#include "core/list_sched.h"

#include <algorithm>
#include <functional>

#include "common/error.h"

namespace paserta {

const char* to_string(ListHeuristic h) {
  switch (h) {
    case ListHeuristic::LongestTaskFirst: return "LTF";
    case ListHeuristic::ShortestTaskFirst: return "STF";
    case ListHeuristic::InsertionOrder: return "FIFO";
  }
  return "?";
}

ListHeuristic heuristic_from_name(std::string_view name) {
  if (name == "ltf") return ListHeuristic::LongestTaskFirst;
  if (name == "stf") return ListHeuristic::ShortestTaskFirst;
  if (name == "fifo") return ListHeuristic::InsertionOrder;
  PASERTA_REQUIRE(false,
                  "unknown heuristic '" << name << "' (use ltf, stf or fifo)");
  return ListHeuristic::LongestTaskFirst;  // unreachable
}

namespace {

std::int64_t priority_of(SimTime duration, ListHeuristic h) {
  switch (h) {
    case ListHeuristic::LongestTaskFirst: return -duration.ps;
    case ListHeuristic::ShortestTaskFirst: return duration.ps;
    case ListHeuristic::InsertionOrder: return 0;
  }
  return 0;
}

}  // namespace

const SectionSchedule::Item& SectionSchedule::item(NodeId id) const {
  const auto it = std::find(dispatch_order.begin(), dispatch_order.end(), id);
  PASERTA_REQUIRE(it != dispatch_order.end(),
                  "node " << id.value << " is not in this schedule");
  return items[static_cast<std::size_t>(it - dispatch_order.begin())];
}

SectionSchedule ltf_schedule(const AndOrGraph& g,
                             std::span<const NodeId> members, int cpus,
                             const std::function<SimTime(NodeId)>& duration,
                             ListHeuristic heuristic) {
  ListSchedScratch scratch;
  return ltf_schedule(scratch, g, members, cpus, duration, heuristic);
}

const SectionSchedule& ltf_schedule(
    ListSchedScratch& scratch, const AndOrGraph& g,
    std::span<const NodeId> members, int cpus,
    const std::function<SimTime(NodeId)>& duration, ListHeuristic heuristic) {
  PASERTA_REQUIRE(cpus >= 1, "ltf_schedule needs at least one processor");
  PASERTA_REQUIRE(!members.empty(), "ltf_schedule on empty section");
  using ReadyKey = ListSchedScratch::ReadyKey;
  using Completion = ListSchedScratch::Completion;

  // Member slots: slot_[id] = 1 + index in `members`. Cleared on every
  // exit, including a throw, so the table is all zero between calls.
  std::vector<std::uint32_t>& slot = scratch.slot_;
  if (slot.size() < g.size()) slot.resize(g.size(), 0);
  struct ClearSlots {
    std::vector<std::uint32_t>& slot;
    std::span<const NodeId> members;
    ~ClearSlots() {
      for (NodeId m : members)
        if (m.value < slot.size()) slot[m.value] = 0;
    }
  } clear_slots{slot, members};
  for (std::uint32_t i = 0; i < members.size(); ++i) {
    const NodeId m = members[i];
    PASERTA_REQUIRE(m.value < g.size(),
                    "ltf_schedule member " << m.value << " out of range");
    PASERTA_REQUIRE(slot[m.value] == 0,
                    "ltf_schedule member " << m.value << " listed twice");
    slot[m.value] = i + 1;
  }
  const std::span<const Node> nodes = g.nodes();

  // Per-member in-degree restricted to the section, and duration.
  std::vector<std::uint32_t>& indeg = scratch.indeg_;
  std::vector<SimTime>& dur = scratch.duration_;
  indeg.assign(members.size(), 0);
  dur.resize(members.size());
  for (std::uint32_t i = 0; i < members.size(); ++i) {
    for (NodeId p : nodes[members[i].value].preds)
      if (slot[p.value] != 0) ++indeg[i];
    dur[i] = duration(members[i]);
  }

  // Min-heaps: std::*_heap keep the largest element under the comparator
  // on top, so each comparator says "a comes after b".
  const auto ready_after = [](const ReadyKey& a, const ReadyKey& b) {
    if (a.ready_time != b.ready_time) return a.ready_time > b.ready_time;
    if (a.priority != b.priority) return a.priority > b.priority;
    return a.id > b.id;
  };
  const auto completes_after = [](const Completion& a, const Completion& b) {
    if (a.finish != b.finish) return a.finish > b.finish;
    return a.node > b.node;
  };
  std::vector<ReadyKey>& ready = scratch.ready_;
  std::vector<Completion>& running = scratch.running_;
  std::vector<int>& idle = scratch.idle_;
  ready.clear();
  running.clear();
  idle.clear();
  const auto make_ready = [&](std::uint32_t i, SimTime at) {
    ready.push_back(
        ReadyKey{at, priority_of(dur[i], heuristic), members[i].value});
    std::push_heap(ready.begin(), ready.end(), ready_after);
  };
  for (std::uint32_t i = 0; i < members.size(); ++i)
    if (indeg[i] == 0) make_ready(i, SimTime::zero());
  // Idle processor pool, lowest id first for determinism (ascending ids
  // already form a min-heap).
  for (int c = 0; c < cpus; ++c) idle.push_back(c);

  SectionSchedule& out = scratch.schedule_;
  out.dispatch_order.clear();
  out.items.clear();
  out.makespan = SimTime::zero();
  SimTime now = SimTime::zero();

  const auto release_successors = [&](std::uint32_t node, SimTime at) {
    for (NodeId s : nodes[node].succs) {
      const std::uint32_t si = slot[s.value];
      if (si == 0) continue;  // successor outside the section
      PASERTA_ASSERT(indeg[si - 1] > 0,
                     "in-degree underflow in list scheduler");
      if (--indeg[si - 1] == 0) make_ready(si - 1, at);
    }
  };

  while (out.dispatch_order.size() < members.size()) {
    // Dispatch every ready task we can at the current time.
    while (!ready.empty() && !idle.empty() && ready.front().ready_time <= now) {
      std::pop_heap(ready.begin(), ready.end(), ready_after);
      const ReadyKey key = ready.back();
      ready.pop_back();
      const NodeId id{key.id};
      const SimTime d = dur[slot[key.id] - 1];

      SectionSchedule::Item item;
      item.start = now;
      item.finish = now + d;
      out.dispatch_order.push_back(id);

      if (d.is_zero()) {
        // Dummies borrow an idle CPU for zero time: they dispatch only when
        // a processor is free (matching the online engine) but do not
        // occupy it.
        item.cpu = -1;
        out.items.push_back(item);
        out.makespan = std::max(out.makespan, item.finish);
        release_successors(id.value, now);
      } else {
        std::pop_heap(idle.begin(), idle.end(), std::greater<>{});
        item.cpu = idle.back();
        idle.pop_back();
        out.items.push_back(item);
        running.push_back(Completion{item.finish, item.cpu, id.value});
        std::push_heap(running.begin(), running.end(), completes_after);
      }
    }

    if (out.dispatch_order.size() == members.size()) break;

    // Nothing more dispatchable now: advance to the next completion.
    PASERTA_REQUIRE(!running.empty(),
                    "section contains a dependence cycle or dangling edge");
    std::pop_heap(running.begin(), running.end(), completes_after);
    const Completion done = running.back();
    running.pop_back();
    now = done.finish;
    idle.push_back(done.cpu);
    std::push_heap(idle.begin(), idle.end(), std::greater<>{});
    out.makespan = std::max(out.makespan, done.finish);
    release_successors(done.node, now);
  }

  // Remaining completions only extend the makespan.
  for (const Completion& c : running)
    out.makespan = std::max(out.makespan, c.finish);
  return out;
}

}  // namespace paserta
