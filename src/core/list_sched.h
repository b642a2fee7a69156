// Longest-Task-First list scheduling of one program section (paper §3.1).
//
// List scheduling puts tasks into a ready queue as soon as they become
// ready and dispatches from the front to idle processors; among tasks that
// become ready simultaneously the longest (by WCET) goes first. This is the
// heuristic the paper fixes for both the offline (canonical) and online
// phases; the canonical dispatch order becomes the execution order (EO)
// that the online scheduler must preserve.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string_view>
#include <vector>

#include "graph/graph.h"

namespace paserta {

/// Canonical schedule of one section on `cpus` identical processors.
struct SectionSchedule {
  struct Item {
    SimTime start{};
    SimTime finish{};
    int cpu = -1;  // -1 for zero-duration dummies (they only borrow a CPU)
  };

  /// Tasks in the order they were dispatched (defines execution order).
  std::vector<NodeId> dispatch_order;
  /// Placement of each task, parallel to `dispatch_order`.
  std::vector<Item> items;
  SimTime makespan{};

  /// Placement of `id` (a linear search); throws paserta::Error if `id` is
  /// not in the section.
  const Item& item(NodeId id) const;
};

/// Priority rule among tasks that become ready simultaneously. The paper
/// fixes LTF for its evaluation but notes (§3.2) that *any* heuristic
/// works as long as the offline and online phases use the same one — the
/// execution order recorded offline is what the online phase preserves.
enum class ListHeuristic {
  LongestTaskFirst,   // the paper's choice
  ShortestTaskFirst,
  InsertionOrder,     // FIFO by node id
};

const char* to_string(ListHeuristic h);

/// The heuristic a front end names in lower case (ltf, stf, fifo). Throws
/// paserta::Error naming the valid names otherwise.
ListHeuristic heuristic_from_name(std::string_view name);

class ListSchedScratch;

/// Schedules exactly the nodes in `members` (edges among non-members are
/// ignored) with the given heuristic. `duration(id)` supplies each node's
/// execution time at f_max (typically inflated WCET or ACET); dummies must
/// return zero. Deterministic: ties break on (ready time, heuristic key,
/// node id). Throws paserta::Error on an empty, repeated or out-of-range
/// member list, on cpus < 1, and on a dependence cycle among the members.
///
/// `scratch` is working storage and also holds the result: the returned
/// schedule stays valid until the next call with the same scratch. Passing
/// one scratch to every call of an analysis makes scheduling
/// allocation-free once the scratch has grown.
const SectionSchedule& ltf_schedule(
    ListSchedScratch& scratch, const AndOrGraph& g,
    std::span<const NodeId> members, int cpus,
    const std::function<SimTime(NodeId)>& duration,
    ListHeuristic heuristic = ListHeuristic::LongestTaskFirst);

/// Same, with scratch of its own; returns the schedule by value.
SectionSchedule ltf_schedule(
    const AndOrGraph& g, std::span<const NodeId> members, int cpus,
    const std::function<SimTime(NodeId)>& duration,
    ListHeuristic heuristic = ListHeuristic::LongestTaskFirst);

/// Working storage and result of ltf_schedule, grown to the largest graph
/// and section it has served. Its graph-sized member-slot table is all
/// zero between calls, so a call costs time linear in its section, not in
/// the graph. One scratch serves one thread at a time.
class ListSchedScratch {
 private:
  friend const SectionSchedule& ltf_schedule(
      ListSchedScratch&, const AndOrGraph&, std::span<const NodeId>, int,
      const std::function<SimTime(NodeId)>&, ListHeuristic);

  /// Ready-queue key: earlier readiness first, then the heuristic's
  /// priority (a signed duration, so one comparator serves every rule),
  /// then node id.
  struct ReadyKey {
    SimTime ready_time;
    std::int64_t priority;  // smaller dispatches first
    std::uint32_t id;
  };
  /// A busy processor's completion event.
  struct Completion {
    SimTime finish;
    int cpu;
    std::uint32_t node;
  };

  std::vector<std::uint32_t> slot_;    // node id -> 1 + member index, or 0
  std::vector<std::uint32_t> indeg_;   // per member: unfinished member preds
  std::vector<SimTime> duration_;      // per member
  std::vector<ReadyKey> ready_;        // binary min-heap
  std::vector<Completion> running_;    // binary min-heap on (finish, node)
  std::vector<int> idle_;              // binary min-heap of idle cpus
  SectionSchedule schedule_;           // the last call's result
};

}  // namespace paserta
