#include "graph/program.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include "common/error.h"
#include "graph/program_impl.h"

namespace paserta {

// ---------------------------------------------------------------------------
// Program value type (representation in graph/program_impl.h)
// ---------------------------------------------------------------------------

Program::Program() : impl_(std::make_unique<Impl>()) {}
Program::Program(const Program& o) : impl_(std::make_unique<Impl>(*o.impl_)) {}
Program::Program(Program&& o) noexcept = default;
Program& Program::operator=(const Program& o) {
  impl_ = std::make_unique<Impl>(*o.impl_);
  return *this;
}
Program& Program::operator=(Program&& o) noexcept = default;
Program::~Program() = default;

Program& Program::section(SectionSpec s) {
  PASERTA_REQUIRE(!s.tasks.empty(), "section must contain at least one task");
  for (const auto& [from, to] : s.edges) {
    PASERTA_REQUIRE(from < s.tasks.size() && to < s.tasks.size(),
                    "section edge index out of range");
    PASERTA_REQUIRE(from != to, "section self-edge");
  }
  impl_->segs.emplace_back(std::move(s));
  return *this;
}

Program& Program::task(std::string name, SimTime wcet, SimTime acet) {
  return section(SectionSpec{{{std::move(name), wcet, acet}}, {}});
}

Program& Program::parallel(std::vector<TaskSpec> tasks) {
  return section(SectionSpec{std::move(tasks), {}});
}

Program& Program::chain(std::vector<TaskSpec> tasks) {
  SectionSpec s{std::move(tasks), {}};
  for (std::size_t i = 0; i + 1 < s.tasks.size(); ++i) s.edges.push_back({i, i + 1});
  return section(std::move(s));
}

Program& Program::branch(std::string name,
                         std::vector<std::pair<double, Program>> alternatives) {
  PASERTA_REQUIRE(!alternatives.empty(), "branch '" << name
                                                    << "' needs alternatives");
  double sum = 0.0;
  for (const auto& [p, prog] : alternatives) {
    PASERTA_REQUIRE(p > 0.0 && p <= 1.0, "branch '" << name
                                                    << "': probability " << p
                                                    << " outside (0,1]");
    sum += p;
  }
  PASERTA_REQUIRE(std::abs(sum - 1.0) < 1e-9,
                  "branch '" << name << "': probabilities sum to " << sum);
  impl_->segs.emplace_back(
      Impl::BranchSeg{std::move(name), std::move(alternatives)});
  return *this;
}

Program& Program::loop(std::string name, Program body,
                       std::vector<double> iteration_prob, LoopMode mode) {
  PASERTA_REQUIRE(!body.empty(), "loop '" << name << "' has an empty body");
  PASERTA_REQUIRE(!iteration_prob.empty(),
                  "loop '" << name << "' needs an iteration distribution");
  double sum = 0.0;
  for (double p : iteration_prob) {
    PASERTA_REQUIRE(p >= 0.0 && p <= 1.0,
                    "loop '" << name << "': probability outside [0,1]");
    sum += p;
  }
  PASERTA_REQUIRE(std::abs(sum - 1.0) < 1e-9,
                  "loop '" << name << "': iteration probabilities sum to "
                           << sum);
  // Trailing zero probabilities just lower the effective max iteration count.
  while (iteration_prob.size() > 1 && iteration_prob.back() == 0.0)
    iteration_prob.pop_back();
  PASERTA_REQUIRE(iteration_prob.back() > 0.0,
                  "loop '" << name << "': all iteration probabilities zero");
  impl_->segs.emplace_back(Impl::LoopSeg{std::move(name), std::move(body),
                                         std::move(iteration_prob), mode});
  return *this;
}

bool Program::empty() const { return impl_->segs.empty(); }
std::size_t Program::segment_count() const { return impl_->segs.size(); }

// ---------------------------------------------------------------------------
// Loop handling
// ---------------------------------------------------------------------------
namespace {

/// Serial execution-time bounds of a program (sum over a single processor):
/// used by LoopMode::Collapse, matching the paper's "treat a whole loop as
/// one task with the execution time of maximal iterations as WCET and
/// average iterations as ACET".
struct SerialBounds {
  double wcet_ps = 0.0;
  double acet_ps = 0.0;
};

SerialBounds serial_bounds(const Program& p);

SerialBounds serial_bounds_seg(const Program::Impl::Seg& seg) {
  SerialBounds b;
  if (const auto* sec = std::get_if<SectionSpec>(&seg)) {
    for (const auto& t : sec->tasks) {
      // A collapsed body never reaches AndOrGraph::add_task: hold its tasks
      // to the same rule here.
      PASERTA_REQUIRE(t.wcet > SimTime::zero() && t.acet > SimTime::zero() &&
                          t.acet <= t.wcet,
                      "task '" << t.name
                               << "' needs 0 < ACET <= WCET (got acet="
                               << t.acet.ps << "ps, wcet=" << t.wcet.ps
                               << "ps)");
      b.wcet_ps += static_cast<double>(t.wcet.ps);
      b.acet_ps += static_cast<double>(t.acet.ps);
    }
  } else if (const auto* br = std::get_if<Program::Impl::BranchSeg>(&seg)) {
    double wmax = 0.0, aexp = 0.0;
    for (const auto& [prob, prog] : br->alts) {
      const SerialBounds sb = serial_bounds(prog);
      wmax = std::max(wmax, sb.wcet_ps);
      aexp += prob * sb.acet_ps;
    }
    b.wcet_ps = wmax;
    b.acet_ps = aexp;
  } else {
    const auto& lp = std::get<Program::Impl::LoopSeg>(seg);
    const SerialBounds body = serial_bounds(lp.body);
    const auto max_iters = static_cast<double>(lp.iter_prob.size());
    double expected_iters = 0.0;
    for (std::size_t k = 0; k < lp.iter_prob.size(); ++k)
      expected_iters += lp.iter_prob[k] * static_cast<double>(k + 1);
    b.wcet_ps = max_iters * body.wcet_ps;
    b.acet_ps = expected_iters * body.acet_ps;
  }
  return b;
}

SerialBounds serial_bounds(const Program& p) {
  SerialBounds total;
  for (const auto& seg : p.impl().segs) {
    const SerialBounds sb = serial_bounds_seg(seg);
    total.wcet_ps += sb.wcet_ps;
    total.acet_ps += sb.acet_ps;
  }
  return total;
}

/// Appends `suffix` to every task name in `p`, recursively, so unrolled
/// loop iterations stay distinguishable in traces and DOT dumps.
void rename_tasks(Program::Impl& impl, const std::string& suffix);

void rename_tasks(Program& p, const std::string& suffix) {
  rename_tasks(p.impl(), suffix);
}

void rename_tasks(Program::Impl& impl, const std::string& suffix) {
  for (auto& seg : impl.segs) {
    if (auto* sec = std::get_if<SectionSpec>(&seg)) {
      for (auto& t : sec->tasks) t.name += suffix;
    } else if (auto* br = std::get_if<Program::Impl::BranchSeg>(&seg)) {
      for (auto& [prob, prog] : br->alts) rename_tasks(prog, suffix);
    } else {
      rename_tasks(std::get<Program::Impl::LoopSeg>(seg).body, suffix);
    }
  }
}

/// Desugars an unrolled loop into nested OR branches:
///   loop(body, p_1..p_K) =
///     body#1 ; Branch{ exit with P(stop|reached 1), continue -> loop tail }
/// where the exit probability after iteration j is the conditional
/// p_j / (p_j + ... + p_K). Iterations with p_j == 0 emit no branch (the
/// loop cannot stop there).
Program expand_loop(const std::string& name, const Program& body,
                    const std::vector<double>& probs, std::size_t j) {
  const std::size_t K = probs.size();
  Program out = body;  // iteration j's body copy
  if (K > 1) rename_tasks(out, "#" + std::to_string(j));
  if (j == K) return out;

  double tail_mass = 0.0;
  for (std::size_t k = j - 1; k < K; ++k) tail_mass += probs[k];
  const double q = probs[j - 1] / tail_mass;

  Program rest = expand_loop(name, body, probs, j + 1);
  const std::string bname = name + "_it" + std::to_string(j);
  if (q <= 1e-12) {
    // Cannot stop after iteration j: continue unconditionally by splicing
    // the remaining iterations' segments after this body copy.
    for (auto& seg : rest.impl().segs)
      out.impl().segs.push_back(std::move(seg));
    return out;
  }
  if (q >= 1.0 - 1e-12) return out;  // must stop after iteration j

  std::vector<std::pair<double, Program>> alts;
  alts.emplace_back(q, Program{});           // exit the loop
  alts.emplace_back(1.0 - q, std::move(rest));  // next iteration(s)
  out.branch(bname, std::move(alts));
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Flattening
// ---------------------------------------------------------------------------
namespace {

/// Entry/exit interface of a flattened fragment.
struct Flow {
  std::vector<NodeId> entries;
  std::vector<NodeId> exits;
};

class Flattener {
 public:
  explicit Flattener(AndOrGraph& g) : g_(g) {}

  Flow flatten_program(const Program::Impl& p, const std::string& suffix,
                       StructProgram& out);

 private:
  Flow flatten_section(const SectionSpec& spec, const std::string& suffix,
                       StructSegment& seg);
  Flow flatten_branch(const Program::Impl::BranchSeg& spec,
                      const std::string& suffix, StructSegment& seg);

  /// Connects `prev_exits` (exits of the previous segment) to `entries`.
  /// When both sides have several nodes, a glue AND join is appended to
  /// `prev_section` (which is non-null exactly when the previous segment was
  /// a section — branches always expose a single exit). When a single OR
  /// exit (a branch join) feeds several entries, a glue AND fork is
  /// prepended to `next_section` instead: an OR node owns exactly one
  /// successor per alternative.
  void connect(const std::vector<NodeId>& prev_exits,
               StructSegment* prev_section,
               const std::vector<NodeId>& entries,
               StructSegment* next_section);

  /// Returns a single node standing for `nodes`, inserting a glue AND join
  /// into `section` when needed.
  NodeId coalesce(const std::vector<NodeId>& nodes, StructSegment* section,
                  const std::string& glue_name, bool as_join);

  AndOrGraph& g_;
  int glue_counter_ = 0;
};

void Flattener::connect(const std::vector<NodeId>& prev_exits,
                        StructSegment* prev_section,
                        const std::vector<NodeId>& entries,
                        StructSegment* next_section) {
  if (prev_exits.empty()) return;
  if (prev_exits.size() == 1) {
    if (entries.size() > 1 &&
        g_.node(prev_exits[0]).kind == NodeKind::OrNode) {
      // OR join -> parallel entries: fan out through a glue AND fork owned
      // by the following section.
      PASERTA_ASSERT(next_section != nullptr &&
                         next_section->kind == StructSegment::Kind::Section,
                     "multi-entry fragment after an OR join without an "
                     "owning section");
      const NodeId fork =
          g_.add_and("__seqf" + std::to_string(glue_counter_++));
      g_.add_edge(prev_exits[0], fork);
      for (NodeId e : entries) g_.add_edge(fork, e);
      next_section->members.insert(next_section->members.begin(), fork);
      return;
    }
    for (NodeId e : entries) g_.add_edge(prev_exits[0], e);
    return;
  }
  // A single non-OR entry can absorb the fan-in itself (AND semantics).
  // An OR entry cannot — it would fire on the *first* finishing
  // predecessor — so it gets a glue AND join like the many-entries case.
  if (entries.size() == 1 &&
      g_.node(entries[0]).kind != NodeKind::OrNode) {
    for (NodeId p : prev_exits) g_.add_edge(p, entries[0]);
    return;
  }
  const NodeId j = coalesce(prev_exits, prev_section, "seq", true);
  for (NodeId e : entries) g_.add_edge(j, e);
}

NodeId Flattener::coalesce(const std::vector<NodeId>& nodes,
                           StructSegment* section, const std::string& glue_name,
                           bool as_join) {
  PASERTA_ASSERT(!nodes.empty(), "coalesce of empty node set");
  if (nodes.size() == 1) return nodes[0];
  PASERTA_ASSERT(section != nullptr && section->kind == StructSegment::Kind::Section,
                 "multi-node fragment boundary without an owning section");
  const NodeId glue =
      g_.add_and("__" + glue_name + std::to_string(glue_counter_++));
  if (as_join) {
    for (NodeId n : nodes) g_.add_edge(n, glue);
  } else {
    for (NodeId n : nodes) g_.add_edge(glue, n);
  }
  section->members.push_back(glue);
  return glue;
}

Flow Flattener::flatten_section(const SectionSpec& spec,
                                const std::string& suffix, StructSegment& seg) {
  seg.kind = StructSegment::Kind::Section;
  std::vector<NodeId> ids;
  ids.reserve(spec.tasks.size());
  for (const auto& t : spec.tasks)
    ids.push_back(g_.add_task(t.name + suffix, t.wcet, t.acet));
  for (const auto& [from, to] : spec.edges) g_.add_edge(ids[from], ids[to]);
  seg.members = ids;

  Flow flow;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    bool has_intra_pred = false, has_intra_succ = false;
    for (const auto& [from, to] : spec.edges) {
      if (to == i) has_intra_pred = true;
      if (from == i) has_intra_succ = true;
    }
    if (!has_intra_pred) flow.entries.push_back(ids[i]);
    if (!has_intra_succ) flow.exits.push_back(ids[i]);
  }
  return flow;
}

Flow Flattener::flatten_branch(const Program::Impl::BranchSeg& spec,
                               const std::string& suffix, StructSegment& seg) {
  seg.kind = StructSegment::Kind::Branch;
  seg.fork = g_.add_or(spec.name + suffix + "_fork");
  seg.join = g_.add_or(spec.name + suffix + "_join");

  for (std::size_t a = 0; a < spec.alts.size(); ++a) {
    const auto& [prob, prog] = spec.alts[a];
    StructProgram sub;
    NodeId entry, exit;
    if (prog.empty()) {
      // A skipped path: one pass-through dummy carries the EO slot.
      const NodeId skip = g_.add_and("__skip" + std::to_string(glue_counter_++));
      StructSegment s;
      s.kind = StructSegment::Kind::Section;
      s.members = {skip};
      sub.segments.push_back(std::move(s));
      entry = exit = skip;
    } else {
      Flow flow = flatten_program(prog.impl(), suffix, sub);
      // The OR fork needs a unique successor per alternative; prepend a glue
      // AND fork if the alternative starts with several parallel entries.
      if (flow.entries.size() > 1) {
        StructSegment* first = &sub.segments.front();
        PASERTA_ASSERT(first->kind == StructSegment::Kind::Section,
                       "multi-entry alternative must start with a section");
        entry = coalesce(flow.entries, first, "alt_in", /*as_join=*/false);
      } else {
        entry = flow.entries[0];
      }
      exit = coalesce(flow.exits, &sub.segments.back(), "alt_out",
                      /*as_join=*/true);
    }
    g_.add_or_edge(seg.fork, entry, prob);
    g_.add_edge(exit, seg.join);
    seg.alt_prob.push_back(prob);
    seg.alternatives.push_back(std::move(sub));
  }

  return Flow{{seg.fork}, {seg.join}};
}

Flow Flattener::flatten_program(const Program::Impl& p,
                                const std::string& suffix, StructProgram& out) {
  PASERTA_REQUIRE(!p.segs.empty(), "cannot flatten an empty program");

  Flow program_flow;
  std::vector<NodeId> prev_exits;
  // Index (not pointer: out.segments reallocates) of the section owning any
  // glue AND join needed to fan in the previous segment's exits; -1 when the
  // previous segment exposes a single exit (branches, starts of programs).
  std::ptrdiff_t prev_section_idx = -1;
  const auto prev_section = [&]() -> StructSegment* {
    return prev_section_idx >= 0
               ? &out.segments[static_cast<std::size_t>(prev_section_idx)]
               : nullptr;
  };

  for (std::size_t si = 0; si < p.segs.size(); ++si) {
    const auto& seg_spec = p.segs[si];

    // Loops are desugared into sections+branches, then flattened inline so
    // their segments land at this nesting level.
    if (const auto* lp = std::get_if<Program::Impl::LoopSeg>(&seg_spec)) {
      Program expanded;
      if (lp->mode == LoopMode::Collapse) {
        const SerialBounds body = serial_bounds(lp->body);
        const auto K = static_cast<double>(lp->iter_prob.size());
        double expected_iters = 0.0;
        for (std::size_t k = 0; k < lp->iter_prob.size(); ++k)
          expected_iters += lp->iter_prob[k] * static_cast<double>(k + 1);
        const double wcet_ps = K * body.wcet_ps + 0.5;
        const double acet_ps = expected_iters * body.acet_ps + 0.5;
        // Truncation to int64 is defined exactly on [-2^63, 2^63).
        const auto fits = [](double ps) {
          return ps >= -0x1p63 && ps < 0x1p63;
        };
        PASERTA_REQUIRE(fits(wcet_ps) && fits(acet_ps),
                        "loop '" << lp->name
                                 << "': collapsed time exceeds the time range");
        const SimTime wcet{static_cast<std::int64_t>(wcet_ps)};
        const SimTime acet{static_cast<std::int64_t>(acet_ps)};
        expanded.task(lp->name, wcet,
                      std::min(acet == SimTime::zero() ? SimTime{1} : acet, wcet));
      } else {
        expanded = expand_loop(lp->name, lp->body, lp->iter_prob, 1);
      }
      // Flatten the expansion as a nested program and splice its segments.
      StructProgram spliced;
      Flow flow = flatten_program(expanded.impl(), suffix, spliced);
      const std::size_t splice_start = out.segments.size();
      for (auto& s : spliced.segments) out.segments.push_back(std::move(s));
      StructSegment* first_spliced =
          out.segments[splice_start].kind == StructSegment::Kind::Section
              ? &out.segments[splice_start]
              : nullptr;
      connect(prev_exits, prev_section(), flow.entries, first_spliced);
      if (si == 0) program_flow.entries = flow.entries;
      prev_exits = flow.exits;
      prev_section_idx =
          out.segments.back().kind == StructSegment::Kind::Section
              ? static_cast<std::ptrdiff_t>(out.segments.size()) - 1
              : -1;
      continue;
    }

    out.segments.emplace_back();
    Flow flow;
    if (const auto* sec = std::get_if<SectionSpec>(&seg_spec)) {
      flow = flatten_section(*sec, suffix, out.segments.back());
      connect(prev_exits, prev_section(), flow.entries, &out.segments.back());
      prev_section_idx = static_cast<std::ptrdiff_t>(out.segments.size()) - 1;
    } else {
      const auto& br = std::get<Program::Impl::BranchSeg>(seg_spec);
      flow = flatten_branch(br, suffix, out.segments.back());
      connect(prev_exits, prev_section(), flow.entries, nullptr);
      prev_section_idx = -1;
    }
    if (si == 0) program_flow.entries = flow.entries;
    prev_exits = flow.exits;
  }

  program_flow.exits = prev_exits;
  return program_flow;
}

}  // namespace

std::size_t Application::or_fork_count() const {
  std::size_t n = 0;
  for (NodeId id : graph.all_nodes())
    if (graph.node(id).is_or_fork()) ++n;
  return n;
}

Application build_application(std::string name, const Program& program) {
  PASERTA_REQUIRE(!program.empty(),
                  "application '" << name << "' has no segments");
  Application app;
  app.name = std::move(name);
  Flattener fl(app.graph);
  fl.flatten_program(program.impl(), "", app.structure);
  app.graph.validate();
  return app;
}

}  // namespace paserta
