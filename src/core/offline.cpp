#include "core/offline.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <span>

#include "common/error.h"
#include "core/list_sched.h"

namespace paserta {
namespace {

/// Phase-1 result of one segment. The segments of each program occupy one
/// contiguous block of CanonicalData::segs, so forward and backward walks
/// both find segment j of a program whose block starts at `base` at
/// segs[base + j].
struct SegAnalysis {
  // Sections: canonical makespans with inflated WCETs (the schedule that
  // defines EO and LST) and inflated ACETs.
  SimTime w{};
  SimTime a{};
  // Sections: the WCET schedule is CanonicalData::sched_*[first, last).
  // Branches: alternative i is CanonicalData::alts[first + i].
  std::uint32_t first = 0;
  std::uint32_t last = 0;
};

/// One alternative of a branch: its program's segment block and times.
struct AltAnalysis {
  std::uint32_t base = 0;
  SimTime w{};
  SimTime a{};
};

struct ProgramTimes {
  SimTime w{};
  SimTime a{};
};

std::atomic<std::uint64_t> g_canonical_count{0};

}  // namespace

const CanonicalTables& CanonicalTables::empty() {
  static const CanonicalTables kEmpty;
  return kEmpty;
}

/// Deadline-independent payload of one phase-1 analysis. OfflineResults
/// derived from it share its per-node tables; the segment cache drives the
/// per-deadline shift walk.
struct CanonicalData {
  const Application* app = nullptr;
  CanonicalOptions opt;
  SimTime worst_makespan{};
  SimTime average_makespan{};
  std::uint32_t max_eo = 0;
  CanonicalTables tables;
  std::vector<SegAnalysis> segs;
  std::vector<AltAnalysis> alts;
  /// Every section's canonical WCET schedule back to back, each in
  /// dispatch order: node and start time.
  std::vector<NodeId> sched_node;
  std::vector<SimTime> sched_start;
};

/// The only writer of CanonicalAnalysis and OfflineResult (their friend):
/// phase 1 fills a CanonicalData, phase 2 shifts it to a deadline.
class OfflineAnalyzer {
 public:
  static CanonicalAnalysis analyze(const Application& app,
                                   const CanonicalOptions& opt) {
    PASERTA_REQUIRE(opt.cpus >= 1, "need at least one processor");
    PASERTA_REQUIRE(!opt.overhead_budget.is_negative(),
                    "overhead budget must be non-negative");
    PASERTA_REQUIRE(!app.structure.segments.empty(),
                    "application '" << app.name << "' has no structure");

    auto data = std::make_shared<CanonicalData>();
    data->app = &app;
    data->opt = opt;

    const std::size_t n = app.graph.size();
    const std::span<const Node> nodes = app.graph.nodes();
    CanonicalTables& t = data->tables;
    t.eo.assign(n, NodeId::kInvalid);
    t.nup_init.resize(n);
    t.node_flags.resize(n);
    t.wcet.resize(n);
    t.inflated_wcet.resize(n);
    t.succ_off.resize(n + 1, 0);
    std::size_t edges = 0;
    for (const Node& node : nodes) edges += node.succs.size();
    t.succ_flat.reserve(edges);
    for (std::uint32_t v = 0; v < n; ++v) {
      const Node& node = nodes[v];
      t.nup_init[v] =
          node.kind == NodeKind::OrNode
              ? std::min<std::uint32_t>(
                    1, static_cast<std::uint32_t>(node.preds.size()))
              : static_cast<std::uint32_t>(node.preds.size());
      if (t.nup_init[v] == 0) t.sources.push_back(v);
      std::uint8_t flags = 0;
      if (node.is_dummy()) flags |= kNodeFlagDummy;
      if (node.is_or_fork()) flags |= kNodeFlagOrFork;
      if (node.kind == NodeKind::OrNode) flags |= kNodeFlagOrNode;
      t.node_flags[v] = flags;
      t.wcet[v] = node.wcet;
      t.inflated_wcet[v] = node.is_dummy()
                               ? SimTime::zero()
                               : node.wcet + opt.overhead_budget;
      t.succ_off[v] = static_cast<std::uint32_t>(t.succ_flat.size());
      for (NodeId s : node.succs) t.succ_flat.push_back(s.value);
    }
    t.succ_off[n] = static_cast<std::uint32_t>(t.succ_flat.size());
    t.rem_a.assign(n, SimTime::zero());
    t.rem_w.assign(n, SimTime::zero());

    OfflineAnalyzer an(app, opt, *data);
    data->segs.resize(app.structure.segments.size());
    const ProgramTimes times = an.compute_times(app.structure, 0);
    data->worst_makespan = times.w;
    data->average_makespan = times.a;
    data->max_eo = an.assign_eo(app.structure, 0, 0);
    PASERTA_ASSERT(
        std::none_of(t.eo.begin(), t.eo.end(),
                     [](std::uint32_t e) { return e == NodeId::kInvalid; }),
        "offline phase left a node without an execution order");
    an.assign_rem(app.structure, 0, SimTime::zero(), SimTime::zero());

    g_canonical_count.fetch_add(1, std::memory_order_relaxed);
    CanonicalAnalysis result;
    result.data_ = std::move(data);
    return result;
  }

  static OfflineResult apply(const CanonicalAnalysis& canonical,
                             SimTime deadline) {
    PASERTA_REQUIRE(canonical.valid(),
                    "apply_deadline needs a valid canonical analysis");
    PASERTA_REQUIRE(deadline > SimTime::zero(), "deadline must be positive");
    const CanonicalData& d = *canonical.data_;

    OfflineResult r;
    r.cpus_ = d.opt.cpus;
    r.deadline_ = deadline;
    r.overhead_budget_ = d.opt.overhead_budget;
    r.worst_makespan_ = d.worst_makespan;
    r.average_makespan_ = d.average_makespan;
    r.max_eo_ = d.max_eo;
    // Aliasing pointer: shares ownership of the whole canonical payload.
    r.tables_ = std::shared_ptr<const CanonicalTables>(canonical.data_,
                                                       &d.tables);

    const std::size_t n = d.app->graph.size();
    r.lst_.assign(n, SimTime::zero());
    r.eet_.resize(n);
    assign_lst(d, d.app->structure, 0, deadline, r);
    for (std::uint32_t v = 0; v < n; ++v)
      r.eet_[v] = r.lst_[v] + d.tables.inflated_wcet[v];
    return r;
  }

 private:
  OfflineAnalyzer(const Application& app, const CanonicalOptions& opt,
                  CanonicalData& data)
      : app_(app), opt_(opt), data_(data) {}

  /// Schedules every section of `p` (whose segment block starts at
  /// `base`) and of its nested alternatives; returns the program's times.
  ProgramTimes compute_times(const StructProgram& p, std::uint32_t base) {
    ProgramTimes total;
    for (std::size_t j = 0; j < p.segments.size(); ++j) {
      const StructSegment& seg = p.segments[j];
      SegAnalysis sa;
      if (seg.kind == StructSegment::Kind::Section) {
        const SectionSchedule& wcet_sched = ltf_schedule(
            scratch_, app_.graph, seg.members, opt_.cpus,
            [&](NodeId id) { return data_.tables.inflated_wcet[id.value]; },
            opt_.heuristic);
        sa.first = static_cast<std::uint32_t>(data_.sched_node.size());
        data_.sched_node.insert(data_.sched_node.end(),
                                wcet_sched.dispatch_order.begin(),
                                wcet_sched.dispatch_order.end());
        for (const SectionSchedule::Item& item : wcet_sched.items)
          data_.sched_start.push_back(item.start);
        sa.last = static_cast<std::uint32_t>(data_.sched_node.size());
        sa.w = wcet_sched.makespan;
        sa.a = ltf_schedule(
                   scratch_, app_.graph, seg.members, opt_.cpus,
                   [&](NodeId id) { return inflated_acet(id); },
                   opt_.heuristic)
                   .makespan;
        total.w += sa.w;
        total.a += sa.a;
      } else {
        sa.first = static_cast<std::uint32_t>(data_.alts.size());
        sa.last =
            sa.first + static_cast<std::uint32_t>(seg.alternatives.size());
        data_.alts.resize(sa.last);
        SimTime w_max{};
        double a_exp = 0.0;
        for (std::size_t i = 0; i < seg.alternatives.size(); ++i) {
          const StructProgram& alt = seg.alternatives[i];
          const auto alt_base = static_cast<std::uint32_t>(data_.segs.size());
          data_.segs.resize(alt_base + alt.segments.size());
          const ProgramTimes t = compute_times(alt, alt_base);
          data_.alts[sa.first + i] = AltAnalysis{alt_base, t.w, t.a};
          w_max = std::max(w_max, t.w);
          a_exp += seg.alt_prob[i] * static_cast<double>(t.a.ps);
        }
        total.w += w_max;
        total.a += SimTime{static_cast<std::int64_t>(a_exp + 0.5)};
      }
      // Assigned last: the recursion above may grow (and move) `segs`.
      data_.segs[base + j] = sa;
    }
    return total;
  }

  std::uint32_t assign_eo(const StructProgram& p, std::uint32_t base,
                          std::uint32_t counter) {
    for (std::size_t j = 0; j < p.segments.size(); ++j) {
      const StructSegment& seg = p.segments[j];
      const SegAnalysis& sa = data_.segs[base + j];
      if (seg.kind == StructSegment::Kind::Section) {
        for (std::uint32_t k = sa.first; k < sa.last; ++k)
          data_.tables.eo[data_.sched_node[k].value] = counter++;
      } else {
        data_.tables.eo[seg.fork.value] = counter++;
        const std::uint32_t alt_counter = counter;
        std::uint32_t max_span = 0;
        for (std::size_t i = 0; i < seg.alternatives.size(); ++i) {
          const std::uint32_t end =
              assign_eo(seg.alternatives[i], data_.alts[sa.first + i].base,
                        alt_counter);
          max_span = std::max(max_span, end - alt_counter);
        }
        counter = alt_counter + max_span;
        data_.tables.eo[seg.join.value] = counter++;
      }
    }
    return counter;
  }

  /// Backward walk computing remaining worst/average times after each OR
  /// node and the per-alternative fork profiles (the PMP data of §2.2).
  void assign_rem(const StructProgram& p, std::uint32_t base,
                  SimTime rem_w_after, SimTime rem_a_after) {
    CanonicalTables& t = data_.tables;
    for (std::size_t j = p.segments.size(); j-- > 0;) {
      const StructSegment& seg = p.segments[j];
      const SegAnalysis& sa = data_.segs[base + j];
      if (seg.kind == StructSegment::Kind::Section) {
        rem_w_after += sa.w;
        rem_a_after += sa.a;
      } else {
        t.rem_w[seg.join.value] = rem_w_after;
        t.rem_a[seg.join.value] = rem_a_after;
        OrForkProfile prof;
        SimTime rem_w_fork{};
        double rem_a_fork = 0.0;
        for (std::size_t i = 0; i < seg.alternatives.size(); ++i) {
          const AltAnalysis& alt = data_.alts[sa.first + i];
          prof.rem_w_alt.push_back(alt.w + rem_w_after);
          prof.rem_a_alt.push_back(alt.a + rem_a_after);
          rem_w_fork = std::max(rem_w_fork, prof.rem_w_alt.back());
          rem_a_fork += seg.alt_prob[i] *
                        static_cast<double>(prof.rem_a_alt.back().ps);
          assign_rem(seg.alternatives[i], alt.base, rem_w_after, rem_a_after);
        }
        t.rem_w[seg.fork.value] = rem_w_fork;
        t.rem_a[seg.fork.value] =
            SimTime{static_cast<std::int64_t>(rem_a_fork + 0.5)};
        t.fork_profiles.emplace(seg.fork.value, std::move(prof));
        rem_w_after = t.rem_w[seg.fork.value];
        rem_a_after = t.rem_a[seg.fork.value];
      }
    }
  }

  /// Shifts this program's canonical schedule so it finishes exactly at
  /// `end`; records LSTs. Returns the program's shifted start time.
  static SimTime assign_lst(const CanonicalData& d, const StructProgram& p,
                            std::uint32_t base, SimTime end,
                            OfflineResult& r) {
    for (std::size_t j = p.segments.size(); j-- > 0;) {
      const StructSegment& seg = p.segments[j];
      const SegAnalysis& sa = d.segs[base + j];
      if (seg.kind == StructSegment::Kind::Section) {
        const SimTime shift = end - sa.w;
        for (std::uint32_t k = sa.first; k < sa.last; ++k)
          r.lst_[d.sched_node[k].value] = d.sched_start[k] + shift;
        end = shift;
      } else {
        r.lst_[seg.join.value] = end;
        SimTime w_max{};
        for (std::size_t i = 0; i < seg.alternatives.size(); ++i) {
          const AltAnalysis& alt = d.alts[sa.first + i];
          assign_lst(d, seg.alternatives[i], alt.base, end, r);
          w_max = std::max(w_max, alt.w);
        }
        const SimTime fork_time = end - w_max;
        r.lst_[seg.fork.value] = fork_time;
        end = fork_time;
      }
    }
    return end;
  }

  SimTime inflated_acet(NodeId id) const {
    const Node& n = app_.graph.node(id);
    return n.is_dummy() ? SimTime::zero() : n.acet + opt_.overhead_budget;
  }

  const Application& app_;
  const CanonicalOptions& opt_;
  CanonicalData& data_;
  /// List-scheduling scratch shared by every section of this analysis.
  ListSchedScratch scratch_;
};

SimTime CanonicalAnalysis::worst_makespan() const {
  return data_ ? data_->worst_makespan : SimTime::zero();
}
SimTime CanonicalAnalysis::average_makespan() const {
  return data_ ? data_->average_makespan : SimTime::zero();
}
int CanonicalAnalysis::cpus() const { return data_ ? data_->opt.cpus : 0; }
SimTime CanonicalAnalysis::overhead_budget() const {
  return data_ ? data_->opt.overhead_budget : SimTime::zero();
}
ListHeuristic CanonicalAnalysis::heuristic() const {
  return data_ ? data_->opt.heuristic : ListHeuristic::LongestTaskFirst;
}
const Application& CanonicalAnalysis::application() const {
  PASERTA_REQUIRE(data_ != nullptr, "empty canonical analysis");
  return *data_->app;
}

std::size_t CanonicalAnalysis::bytes() const {
  if (!data_) return 0;
  const auto cap = [](const auto& v) {
    return v.capacity() * sizeof(v[0]);
  };
  const CanonicalTables& t = data_->tables;
  std::size_t n = sizeof(CanonicalData) + cap(t.eo) + cap(t.nup_init) +
                  cap(t.sources) + cap(t.node_flags) + cap(t.wcet) +
                  cap(t.succ_off) + cap(t.succ_flat) + cap(t.inflated_wcet) +
                  cap(t.rem_a) + cap(t.rem_w) + cap(data_->segs) +
                  cap(data_->alts) + cap(data_->sched_node) +
                  cap(data_->sched_start);
  for (const auto& [fork, p] : t.fork_profiles)
    n += sizeof(fork) + sizeof(p) + 2 * sizeof(void*) + cap(p.rem_w_alt) +
         cap(p.rem_a_alt);
  return n;
}

CanonicalAnalysis analyze_canonical(const Application& app,
                                    const CanonicalOptions& options) {
  return OfflineAnalyzer::analyze(app, options);
}

OfflineResult apply_deadline(const CanonicalAnalysis& canonical,
                             SimTime deadline) {
  return OfflineAnalyzer::apply(canonical, deadline);
}

OfflineResult analyze_offline(const Application& app,
                              const OfflineOptions& options) {
  CanonicalOptions copt;
  copt.cpus = options.cpus;
  copt.overhead_budget = options.overhead_budget;
  copt.heuristic = options.heuristic;
  return apply_deadline(analyze_canonical(app, copt), options.deadline);
}

SimTime canonical_worst_makespan(const Application& app, int cpus,
                                 SimTime overhead_budget,
                                 ListHeuristic heuristic) {
  CanonicalOptions opt;
  opt.cpus = cpus;
  opt.overhead_budget = overhead_budget;
  opt.heuristic = heuristic;
  return analyze_canonical(app, opt).worst_makespan();
}

SimTime deadline_at_load(SimTime worst_makespan, double load) {
  const double ps = std::ceil(static_cast<double>(worst_makespan.ps) / load);
  // Negated comparisons reject NaN too; 2^63 is the first double the int64
  // conversion cannot hold.
  PASERTA_REQUIRE(ps >= 1.0 && ps < 0x1p63,
                  "load " << load << " gives no deadline in (0, 2^63) ps for "
                          << "the worst-case makespan "
                          << to_string(worst_makespan));
  return SimTime{static_cast<std::int64_t>(ps)};
}

std::uint64_t canonical_analysis_count() {
  return g_canonical_count.load(std::memory_order_relaxed);
}

}  // namespace paserta
