// Offline phase of the AND/OR greedy slack-sharing algorithm (paper §3.2),
// split into two phases so sweeps do not repeat deadline-independent work.
//
// Phase 1 — *canonical* (round 1): builds canonical LTF schedules for every
// program section (WCETs at f_max, inflated by a per-dispatch overhead
// budget so the online guarantee survives speed-computation and
// voltage-switch costs), derives the execution order (EO) of every node —
// including the OR rules: an OR node's EO is one past the largest EO of its
// predecessors, and tasks on different alternatives of the same fork share
// EO values — and collects the per-path worst/average remaining times
// stored at the power-management points. Nothing in this phase depends on
// the deadline, so a sweep over deadlines (paper §5.1: D = W / load) runs
// it exactly once; see analyze_canonical / OfflineCache.
//
// Phase 2 — *shift* (round 2): shifts every canonical schedule (recursively
// through embedded OR structures) so it finishes exactly at the deadline,
// yielding each node's latest start time LST(i): the time it must start for
// the rest of the shifted schedule to meet the deadline. The online phase
// claims slack for a task as LST(i) - t. This phase is a cheap linear walk
// over the cached canonical schedules; see apply_deadline.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/list_sched.h"
#include "graph/program.h"
#include "power/power_model.h"

namespace paserta {

struct OfflineOptions {
  int cpus = 2;
  /// Application deadline D. Must be positive.
  SimTime deadline{};
  /// Per-dispatch worst-case overhead budget added to every task's WCET
  /// (and ACET) in canonical schedules; normally
  /// Overheads::worst_case_budget(table).
  SimTime overhead_budget{};
  /// Priority rule for the canonical schedules. The online phase preserves
  /// whatever execution order this produced (paper §3.2: "given any
  /// heuristic, if the off-line phase does not fail, the following on-line
  /// phase can be applied under the same heuristic").
  ListHeuristic heuristic = ListHeuristic::LongestTaskFirst;
};

/// The deadline-independent subset of OfflineOptions: everything phase 1
/// depends on. Two analyses with equal CanonicalOptions on the same graph
/// are interchangeable — the basis of OfflineCache's key.
struct CanonicalOptions {
  int cpus = 2;
  SimTime overhead_budget{};
  ListHeuristic heuristic = ListHeuristic::LongestTaskFirst;
};

/// Remaining-time profile attached to an OR fork's power-management point:
/// per alternative, the worst/average time from the fork to the end of the
/// application along that path (the paper's w_p and a_p).
struct OrForkProfile {
  std::vector<SimTime> rem_w_alt;
  std::vector<SimTime> rem_a_alt;
};

class OfflineAnalyzer;  // offline.cpp: the sole writer of the types below
struct CanonicalData;   // offline.cpp: phase-1 payload (segment schedules)

/// The deadline-independent per-node tables of one canonical analysis.
/// Phase 1 builds them once; every OfflineResult derived from the analysis
/// shares them read-only instead of copying them per deadline.
struct CanonicalTables {
  std::vector<std::uint32_t> eo;
  /// Initial NUP per node (Figure 2 initialization: preds for AND /
  /// computation, min(1, preds) for OR) and the nodes starting at zero.
  std::vector<std::uint32_t> nup_init;
  std::vector<std::uint32_t> sources;
  /// Flat dispatch descriptors (NodeFlag masks, raw WCETs, CSR successor
  /// lists): everything a dispatch needs from the Node structs, laid out
  /// contiguously for the engine hot path.
  std::vector<std::uint8_t> node_flags;
  std::vector<SimTime> wcet;
  std::vector<std::uint32_t> succ_off;
  std::vector<std::uint32_t> succ_flat;
  std::vector<SimTime> inflated_wcet;
  std::vector<SimTime> rem_a;
  std::vector<SimTime> rem_w;
  std::unordered_map<std::uint32_t, OrForkProfile> fork_profiles;

  /// The tables of a default-constructed OfflineResult: all empty.
  static const CanonicalTables& empty();
};

/// Per-node kind flags in OfflineResult::node_flag_table(), precomputed so
/// the engine's dispatch loop never touches the pointer-heavy Node structs.
enum NodeFlag : std::uint8_t {
  kNodeFlagDummy = 1u,   // AND/OR node: executes in zero time
  kNodeFlagOrFork = 2u,  // OR node with more than one successor
  kNodeFlagOrNode = 4u,  // OR node of any arity (EO may jump ahead)
};

/// Immutable result of phase 1 for one (application, CanonicalOptions)
/// pair. Holds pointers into the application's structure, so the
/// Application object must outlive every CanonicalAnalysis derived from it
/// (sweeps keep the app alive for their whole duration). Copies share the
/// underlying payload; the type is cheap to pass by value.
class CanonicalAnalysis {
 public:
  CanonicalAnalysis() = default;

  bool valid() const { return data_ != nullptr; }
  /// W: canonical worst-case finish time along the longest path.
  SimTime worst_makespan() const;
  /// A: probability-weighted average-case finish time of the application.
  SimTime average_makespan() const;
  int cpus() const;
  SimTime overhead_budget() const;
  ListHeuristic heuristic() const;
  /// The application this analysis was computed for.
  const Application& application() const;

 private:
  friend class OfflineAnalyzer;
  std::shared_ptr<const CanonicalData> data_;
};

class OfflineResult {
 public:
  int cpus() const { return cpus_; }
  SimTime deadline() const { return deadline_; }
  SimTime overhead_budget() const { return overhead_budget_; }

  /// W: canonical worst-case finish time along the longest path.
  SimTime worst_makespan() const { return worst_makespan_; }
  /// A: probability-weighted average-case finish time of the application.
  SimTime average_makespan() const { return average_makespan_; }
  /// Whether W <= D (the offline phase "fails" otherwise; online schemes
  /// then cannot guarantee the deadline).
  bool feasible() const { return worst_makespan_ <= deadline_; }

  std::uint32_t eo(NodeId id) const { return tables().eo.at(id.value); }
  SimTime lst(NodeId id) const { return lst_.at(id.value); }
  /// Estimated end time: LST + inflated WCET (worst-case finish in the
  /// shifted schedule) — what the online phase allocates to the task.
  SimTime eet(NodeId id) const { return eet_.at(id.value); }
  SimTime inflated_wcet(NodeId id) const {
    return tables().inflated_wcet.at(id.value);
  }

  /// Expected average-case remaining time *after* the given OR node fires
  /// (for OR joins; for forks prefer fork_profile(), which conditions on
  /// the chosen alternative).
  SimTime rem_a_after(NodeId id) const { return tables().rem_a.at(id.value); }
  SimTime rem_w_after(NodeId id) const { return tables().rem_w.at(id.value); }

  const OrForkProfile& fork_profile(NodeId fork) const {
    return tables().fork_profiles.at(fork.value);
  }
  bool has_fork_profile(NodeId id) const {
    return tables().fork_profiles.contains(id.value);
  }

  std::uint32_t max_eo() const { return max_eo_; }

  /// Whole-table views for the simulation engine's hot path (one bounds
  /// check per run instead of one per dispatch).
  const std::vector<std::uint32_t>& eo_table() const { return tables().eo; }
  const std::vector<SimTime>& eet_table() const { return eet_; }

  /// Initial NUP (number of unfinished predecessors) per node: preds for
  /// AND/computation nodes, min(1, preds) for OR nodes (Figure 2
  /// initialization). Precomputed in phase 1 so the engine resets its
  /// per-run counters with one memcpy instead of re-walking the Node
  /// structs; the debug completeness traversal reuses it too.
  const std::vector<std::uint32_t>& nup_init_table() const {
    return tables().nup_init;
  }
  /// Nodes whose initial NUP is zero, in ascending id order — the engine's
  /// initial ready set.
  const std::vector<std::uint32_t>& source_table() const {
    return tables().sources;
  }

  /// Per-node NodeFlag masks (dummy / OR fork / OR node) — the dispatch
  /// loop's replacement for Node::kind and the is_* predicates.
  const std::vector<std::uint8_t>& node_flag_table() const {
    return tables().node_flags;
  }
  /// Raw (uninflated) WCET per node, the quantity the online phase sizes
  /// speeds against (zero for dummy nodes).
  const std::vector<SimTime>& wcet_table() const { return tables().wcet; }
  /// Flattened successor adjacency in CSR form: the successors of node v
  /// are succ_list_table()[succ_offset_table()[v] ..
  /// succ_offset_table()[v+1]]. Successor order matches Node::succs, so OR
  /// forks index alternatives identically.
  const std::vector<std::uint32_t>& succ_offset_table() const {
    return tables().succ_off;
  }
  const std::vector<std::uint32_t>& succ_list_table() const {
    return tables().succ_flat;
  }

 private:
  // Populated exclusively by OfflineAnalyzer (offline.cpp), so results can
  // only come out of analyze_offline / apply_deadline — nothing can bypass
  // the canonical cache by poking fields.
  friend class OfflineAnalyzer;

  const CanonicalTables& tables() const {
    return tables_ ? *tables_ : CanonicalTables::empty();
  }

  int cpus_ = 0;
  SimTime deadline_{};
  SimTime overhead_budget_{};
  SimTime worst_makespan_{};
  SimTime average_makespan_{};
  /// Shared with the CanonicalAnalysis this result was derived from (and
  /// keeps its payload alive); null only in a default-constructed result.
  std::shared_ptr<const CanonicalTables> tables_;
  std::vector<SimTime> lst_;
  std::vector<SimTime> eet_;
  std::uint32_t max_eo_ = 0;
};

/// Phase 1: canonical schedules, makespans, EOs, PMP profiles. Throws
/// paserta::Error on invalid options. Increments canonical_analysis_count().
CanonicalAnalysis analyze_canonical(const Application& app,
                                    const CanonicalOptions& options);

/// Phase 2: derives the per-deadline OfflineResult (LST/EET shift) from a
/// cached phase-1 analysis. Cheap (linear in graph size); call it once per
/// sweep point against one shared CanonicalAnalysis.
OfflineResult apply_deadline(const CanonicalAnalysis& canonical,
                             SimTime deadline);

/// Runs both offline rounds (analyze_canonical + apply_deadline). Throws
/// paserta::Error on invalid options.
OfflineResult analyze_offline(const Application& app,
                              const OfflineOptions& options);

/// Convenience: canonical worst-case makespan only (used to derive a
/// deadline from a load factor: D = W / load).
SimTime canonical_worst_makespan(
    const Application& app, int cpus, SimTime overhead_budget,
    ListHeuristic heuristic = ListHeuristic::LongestTaskFirst);

/// The load-factor deadline of §5.1, D = W / load, in whole picoseconds:
/// ceil(worst_makespan / load). Every site that turns a load into a
/// deadline calls this, so one load names one deadline everywhere (the
/// byte-identity of serve responses with `paserta_cli sweep --json`
/// rests on it). Throws paserta::Error naming the load when the quotient
/// is not a positive SimTime: load <= 0 or NaN, or a load so small that
/// W / load leaves the int64 range.
SimTime deadline_at_load(SimTime worst_makespan, double load);

/// Process-wide count of phase-1 (round 1) analyses performed. Test hook:
/// lets sweeps assert they ran exactly one canonical analysis. Monotonic;
/// take a before/after difference rather than resetting.
std::uint64_t canonical_analysis_count();

/// Memoizes analyze_canonical per (graph identity, cpus, overhead_budget,
/// heuristic). Graph identity is the graph object's address: the cache is
/// meant to be scoped to one sweep (or one driver) that keeps its
/// applications alive and unmodified; do not cache across mutations of the
/// same graph object (sweep_alpha redraws ACETs, so it must NOT reuse a
/// cache entry across alphas — it keys nothing here and analyzes fresh).
/// Not thread-safe; confine one cache to one driving thread.
class OfflineCache {
 public:
  /// Returns the cached analysis for (app.graph, options), computing and
  /// inserting it on first use.
  const CanonicalAnalysis& get(const Application& app,
                               const CanonicalOptions& options);
  std::size_t size() const { return entries_.size(); }

  /// Lifetime get() statistics: lookups served from the cache vs. lookups
  /// that ran a fresh canonical analysis. Exposed so harness callers can
  /// export them as offline.cache.{hits,misses} registry counters
  /// (ExperimentConfig::collect_metrics) instead of relying on the
  /// canonical_analysis_count() test hook.
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  struct Key {
    const void* graph = nullptr;
    int cpus = 0;
    std::int64_t overhead_budget_ps = 0;
    ListHeuristic heuristic = ListHeuristic::LongestTaskFirst;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const;
  };
  std::unordered_map<Key, CanonicalAnalysis, KeyHash> entries_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace paserta
