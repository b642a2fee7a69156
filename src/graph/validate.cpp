// Structural validation of flat AND/OR graphs.
//
// Beyond local rules (probabilities, dummy attributes, acyclicity) this
// implements the mutual-exclusion check for OR joins: every pair of
// predecessors of an OR join must lie on different alternatives of a common
// OR fork, so that at runtime exactly one of them executes and the join
// (whose unfinished-predecessor counter starts at 1, Fig. 2 of the paper)
// fires exactly once.
//
// Mutual exclusion is decided with a dataflow analysis: for every node `v`
// we compute the set of *mandatory branch commitments*
//     commit(v) = { (fork F, alternative a) : every source->v path passes
//                    through F and leaves it via alternative a }
// via the DAG recurrence
//     commit(v) = intersection over predecessors p of
//                    ( commit(p) + {(p, index of v in p.succs)} if p is an
//                      OR fork, else commit(p) ).
// Two nodes are mutually exclusive iff their commitment sets disagree on
// some fork. This is exact for graphs produced by ProgramBuilder and sound
// (never accepts a non-exclusive pair) for arbitrary DAGs. Each set is a
// run of (fork, alternative) pairs sorted by fork, stored back to back in
// one arena, so intersections and exclusivity tests are linear merges and
// no set is copied per edge.
#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "common/error.h"
#include "graph/graph.h"

namespace paserta {
namespace {

/// One mandatory branch commitment: every path to the node leaves OR fork
/// `fork` through its alternative `alt`.
struct Commit {
  std::uint32_t fork;
  std::uint32_t alt;
};

using CommitRun = std::span<const Commit>;

/// The commitment sets of all nodes, each stored as a run of Commits
/// sorted by fork, back to back in one arena.
class CommitSets {
 public:
  explicit CommitSets(std::size_t nodes) : begin_(nodes), end_(nodes) {}

  CommitRun of(std::uint32_t v) const {
    return {arena_.data() + begin_[v], arena_.data() + end_[v]};
  }

  void set(std::uint32_t v, const std::vector<Commit>& run) {
    begin_[v] = arena_.size();
    arena_.insert(arena_.end(), run.begin(), run.end());
    end_[v] = arena_.size();
  }

 private:
  std::vector<Commit> arena_;
  std::vector<std::size_t> begin_;
  std::vector<std::size_t> end_;
};

/// `out` = `run` plus the commitment (fork, alt), kept sorted by fork.
void extend_into(std::vector<Commit>& out, CommitRun run, Commit extra) {
  out.clear();
  const auto at = std::lower_bound(
      run.begin(), run.end(), extra.fork,
      [](const Commit& c, std::uint32_t fork) { return c.fork < fork; });
  out.insert(out.end(), run.begin(), at);
  out.push_back(extra);
  out.insert(out.end(), at, run.end());
}

/// Whether the sets disagree on some fork: then no run executes both.
bool mutually_exclusive(CommitRun a, CommitRun b) {
  auto i = a.begin();
  auto j = b.begin();
  while (i != a.end() && j != b.end()) {
    if (i->fork < j->fork) {
      ++i;
    } else if (j->fork < i->fork) {
      ++j;
    } else {
      if (i->alt != j->alt) return true;
      ++i;
      ++j;
    }
  }
  return false;
}

/// Keeps the entries of `acc` present and equal in `other`, in order.
void intersect_into(std::vector<Commit>& acc, CommitRun other) {
  auto j = other.begin();
  std::size_t kept = 0;
  for (const Commit& c : acc) {
    while (j != other.end() && j->fork < c.fork) ++j;
    if (j != other.end() && j->fork == c.fork && j->alt == c.alt)
      acc[kept++] = c;
  }
  acc.resize(kept);
}

}  // namespace

void AndOrGraph::validate() const {
  PASERTA_REQUIRE(!nodes_.empty(), "empty AND/OR graph");

  // ---- Local rules -------------------------------------------------------
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    switch (n.kind) {
      case NodeKind::Computation:
        PASERTA_REQUIRE(n.wcet > SimTime::zero(),
                        "task '" << n.name << "' has non-positive WCET");
        PASERTA_REQUIRE(n.acet > SimTime::zero() && n.acet <= n.wcet,
                        "task '" << n.name << "' violates 0 < ACET <= WCET");
        PASERTA_REQUIRE(n.succ_prob.empty(),
                        "task '" << n.name << "' carries branch probabilities");
        break;
      case NodeKind::AndNode:
        PASERTA_REQUIRE(n.wcet.is_zero() && n.acet.is_zero(),
                        "AND node '" << n.name << "' has execution time");
        PASERTA_REQUIRE(n.succ_prob.empty(),
                        "AND node '" << n.name
                                     << "' carries branch probabilities");
        break;
      case NodeKind::OrNode: {
        PASERTA_REQUIRE(n.wcet.is_zero() && n.acet.is_zero(),
                        "OR node '" << n.name << "' has execution time");
        if (n.succs.size() > 1) {
          PASERTA_REQUIRE(n.succ_prob.size() == n.succs.size(),
                          "OR fork '" << n.name
                                      << "' lacks per-successor probabilities");
          double sum = 0.0;
          for (double p : n.succ_prob) {
            PASERTA_REQUIRE(p > 0.0 && p <= 1.0,
                            "OR fork '" << n.name
                                        << "' has probability outside (0,1]");
            sum += p;
          }
          PASERTA_REQUIRE(std::abs(sum - 1.0) < 1e-9,
                          "OR fork '" << n.name << "' probabilities sum to "
                                      << sum << ", expected 1");
        } else if (!n.succ_prob.empty()) {
          PASERTA_REQUIRE(n.succ_prob.size() == n.succs.size() &&
                              std::abs(n.succ_prob[0] - 1.0) < 1e-9,
                          "single-successor OR node '"
                              << n.name << "' must have probability 1");
        }
        break;
      }
    }
  }

  // ---- Acyclicity (throws on cycle) + order for the dataflow pass. -------
  const std::vector<NodeId> topo = topo_order();

  // ---- Commitment sets & OR-join exclusivity. ----------------------------
  CommitSets commit(nodes_.size());
  std::vector<Commit> acc;
  std::vector<Commit> extended;
  for (NodeId v : topo) {
    const Node& n = nodes_[v.value];
    acc.clear();
    bool first = true;
    for (NodeId p : n.preds) {
      // commit(p), plus the alternative p takes to reach v if p is a fork.
      CommitRun from_p = commit.of(p.value);
      const Node& pn = nodes_[p.value];
      if (pn.is_or_fork()) {
        const auto it = std::find(pn.succs.begin(), pn.succs.end(), v);
        PASERTA_ASSERT(it != pn.succs.end(), "inconsistent adjacency");
        extend_into(extended, from_p,
                    {p.value, static_cast<std::uint32_t>(
                                  std::distance(pn.succs.begin(), it))});
        from_p = extended;
      }
      if (first) {
        acc.assign(from_p.begin(), from_p.end());
        first = false;
      } else {
        // A non-OR node reachable from several alternatives would merge
        // exclusive control flows with AND semantics — that deadlocks at
        // runtime, so reject it here.
        if (n.kind != NodeKind::OrNode) {
          PASERTA_REQUIRE(
              !mutually_exclusive(acc, from_p),
              "node '" << n.name
                       << "' has AND semantics but mutually exclusive "
                          "predecessors; use an OR join instead");
        }
        intersect_into(acc, from_p);
      }
    }
    commit.set(v.value, acc);
  }

  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    if (!(n.kind == NodeKind::OrNode && n.preds.size() > 1)) continue;
    for (std::size_t a = 0; a < n.preds.size(); ++a) {
      for (std::size_t b = a + 1; b < n.preds.size(); ++b) {
        const NodeId pa = n.preds[a], pb = n.preds[b];
        PASERTA_REQUIRE(
            mutually_exclusive(commit.of(pa.value), commit.of(pb.value)),
            "OR join '" << n.name << "': predecessors '"
                        << nodes_[pa.value].name << "' and '"
                        << nodes_[pb.value].name
                        << "' can both execute in one run; OR-join "
                           "predecessors must be mutually exclusive");
      }
    }
  }
}

}  // namespace paserta
