// Unit tests for the LTF list scheduler that produces canonical schedules.
#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "core/list_sched.h"

namespace paserta {
namespace {

SimTime ms(double v) { return SimTime::from_ms(v); }

std::function<SimTime(NodeId)> wcet_of(const AndOrGraph& g) {
  return [&g](NodeId id) {
    return g.node(id).is_dummy() ? SimTime::zero() : g.node(id).wcet;
  };
}

TEST(ListSched, SingleTask) {
  AndOrGraph g;
  const NodeId a = g.add_task("a", ms(5), ms(3));
  const std::vector<NodeId> members{a};
  const auto s = ltf_schedule(g, members, 2, wcet_of(g));
  EXPECT_EQ(s.makespan, ms(5));
  EXPECT_EQ(s.item(a).start, SimTime::zero());
  EXPECT_EQ(s.item(a).cpu, 0);
  EXPECT_EQ(s.dispatch_order, members);
}

TEST(ListSched, LongestTaskFirstOrdering) {
  // Three independent tasks on one CPU: dispatched longest-first.
  AndOrGraph g;
  const NodeId s1 = g.add_task("short", ms(1), ms(1));
  const NodeId s2 = g.add_task("long", ms(9), ms(1));
  const NodeId s3 = g.add_task("mid", ms(5), ms(1));
  const std::vector<NodeId> members{s1, s2, s3};
  const auto s = ltf_schedule(g, members, 1, wcet_of(g));
  EXPECT_EQ(s.dispatch_order, (std::vector<NodeId>{s2, s3, s1}));
  EXPECT_EQ(s.makespan, ms(15));
}

TEST(ListSched, TwoProcessorsBalanceLoad) {
  AndOrGraph g;
  const NodeId a = g.add_task("a", ms(4), ms(1));
  const NodeId b = g.add_task("b", ms(3), ms(1));
  const NodeId c = g.add_task("c", ms(3), ms(1));
  const std::vector<NodeId> members{a, b, c};
  const auto s = ltf_schedule(g, members, 2, wcet_of(g));
  // a on cpu0 [0,4]; b on cpu1 [0,3]; c follows b [3,6].
  EXPECT_EQ(s.item(a).cpu, 0);
  EXPECT_EQ(s.item(b).cpu, 1);
  EXPECT_EQ(s.item(c).start, ms(3));
  EXPECT_EQ(s.makespan, ms(6));
}

TEST(ListSched, RespectsPrecedence) {
  AndOrGraph g;
  const NodeId a = g.add_task("a", ms(2), ms(1));
  const NodeId b = g.add_task("b", ms(3), ms(1));
  g.add_edge(a, b);
  const std::vector<NodeId> members{a, b};
  const auto s = ltf_schedule(g, members, 4, wcet_of(g));
  EXPECT_EQ(s.item(b).start, ms(2));
  EXPECT_EQ(s.makespan, ms(5));
}

TEST(ListSched, PaperFigure1aStructure) {
  // A(8) -> {B(5), C(4)} on 2 CPUs: A [0,8], then B and C in parallel.
  AndOrGraph g;
  const NodeId a = g.add_task("A", ms(8), ms(5));
  const NodeId b = g.add_task("B", ms(5), ms(3));
  const NodeId c = g.add_task("C", ms(4), ms(2));
  g.add_edge(a, b);
  g.add_edge(a, c);
  const std::vector<NodeId> members{a, b, c};
  const auto s = ltf_schedule(g, members, 2, wcet_of(g));
  EXPECT_EQ(s.makespan, ms(13));
  EXPECT_EQ(s.item(b).start, ms(8));
  EXPECT_EQ(s.item(c).start, ms(8));
  // LTF: B (longer) dispatched before C.
  EXPECT_EQ(s.dispatch_order, (std::vector<NodeId>{a, b, c}));
}

TEST(ListSched, DummiesBorrowButDoNotOccupyCpus) {
  // task(4) -> AND -> {x(2), y(2)} on 2 CPUs: the AND fires at 4, x and y
  // run in parallel immediately after.
  AndOrGraph g;
  const NodeId a = g.add_task("a", ms(4), ms(1));
  const NodeId d = g.add_and("sync");
  const NodeId x = g.add_task("x", ms(2), ms(1));
  const NodeId y = g.add_task("y", ms(2), ms(1));
  g.add_edge(a, d);
  g.add_edge(d, x);
  g.add_edge(d, y);
  const std::vector<NodeId> members{a, d, x, y};
  const auto s = ltf_schedule(g, members, 2, wcet_of(g));
  EXPECT_EQ(s.item(d).cpu, -1);
  EXPECT_EQ(s.item(d).start, ms(4));
  EXPECT_EQ(s.item(x).start, ms(4));
  EXPECT_EQ(s.item(y).start, ms(4));
  EXPECT_EQ(s.makespan, ms(6));
}

TEST(ListSched, ReadinessBeatsLength) {
  // The queue is FIFO by readiness time; a longer task that becomes ready
  // later does not overtake an earlier short one.
  AndOrGraph g;
  const NodeId a = g.add_task("a", ms(2), ms(1));
  const NodeId s1 = g.add_task("short_early", ms(1), ms(1));
  const NodeId l1 = g.add_task("long_late", ms(9), ms(1));
  g.add_edge(a, l1);  // l1 ready at 2; short_early ready at 0
  const std::vector<NodeId> members{a, s1, l1};
  const auto s = ltf_schedule(g, members, 1, wcet_of(g));
  EXPECT_EQ(s.dispatch_order, (std::vector<NodeId>{a, s1, l1}));
}

TEST(ListSched, DeterministicTieBreakById) {
  AndOrGraph g;
  const NodeId a = g.add_task("a", ms(3), ms(1));
  const NodeId b = g.add_task("b", ms(3), ms(1));
  const std::vector<NodeId> members{b, a};  // insertion order irrelevant
  const auto s1 = ltf_schedule(g, members, 1, wcet_of(g));
  const auto s2 = ltf_schedule(g, members, 1, wcet_of(g));
  EXPECT_EQ(s1.dispatch_order, s2.dispatch_order);
  EXPECT_EQ(s1.dispatch_order.front(), a);  // lower id wins the tie
}

TEST(ListSched, MorePocessorsNeverWorse) {
  AndOrGraph g;
  std::vector<NodeId> members;
  for (int i = 0; i < 12; ++i)
    members.push_back(g.add_task("t" + std::to_string(i), ms(1 + i % 4),
                                 ms(1)));
  SimTime prev = SimTime::max();
  for (int cpus : {1, 2, 3, 4, 8}) {
    const auto s = ltf_schedule(g, members, cpus, wcet_of(g));
    EXPECT_LE(s.makespan, prev);
    prev = s.makespan;
  }
}

TEST(ListSched, CustomDurationCallback) {
  // The caller can schedule with ACETs (average canonical schedule).
  AndOrGraph g;
  const NodeId a = g.add_task("a", ms(8), ms(2));
  const std::vector<NodeId> members{a};
  const auto s = ltf_schedule(g, members, 1, [&](NodeId id) {
    return g.node(id).acet;
  });
  EXPECT_EQ(s.makespan, ms(2));
}

TEST(ListSched, RejectsBadInput) {
  AndOrGraph g;
  const NodeId a = g.add_task("a", ms(1), ms(1));
  const std::vector<NodeId> members{a};
  EXPECT_THROW(ltf_schedule(g, members, 0, wcet_of(g)), Error);
  EXPECT_THROW(ltf_schedule(g, std::vector<NodeId>{}, 1, wcet_of(g)), Error);
}

TEST(ListSched, RejectsRepeatedAndUnknownMembers) {
  AndOrGraph g;
  const NodeId a = g.add_task("a", ms(1), ms(1));
  EXPECT_THROW(ltf_schedule(g, std::vector<NodeId>{a, a}, 1, wcet_of(g)),
               Error);
  EXPECT_THROW(ltf_schedule(g, std::vector<NodeId>{NodeId{7}}, 1, wcet_of(g)),
               Error);
  const auto s = ltf_schedule(g, std::vector<NodeId>{a}, 1, wcet_of(g));
  EXPECT_THROW(s.item(NodeId{7}), Error);
}

TEST(ListSched, SharedScratchMatchesFreshScratch) {
  // One scratch carried across sections of different graphs, and across
  // calls that throw part-way, schedules exactly like a fresh scratch.
  ListSchedScratch scratch;
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    Rng rng(seed);
    AndOrGraph g;
    std::vector<NodeId> nodes;
    const auto n = 1 + static_cast<int>(rng.next_below(40));
    for (int i = 0; i < n; ++i)
      nodes.push_back(g.add_task("t" + std::to_string(i),
                                 ms(1 + static_cast<double>(rng.next_below(5))),
                                 ms(1)));
    for (int i = 0; i < n; ++i)
      for (int j = i + 1; j < n; ++j)
        if (rng.next_double() < 0.1) g.add_edge(nodes[i], nodes[j]);
    // A section is a subset; edges to the rest are ignored.
    std::vector<NodeId> members;
    for (NodeId v : nodes)
      if (rng.next_double() < 0.7) members.push_back(v);
    if (members.empty()) members.push_back(nodes.back());
    for (const int cpus : {1, 3}) {
      const auto fresh = ltf_schedule(g, members, cpus, wcet_of(g));
      const auto reused = ltf_schedule(scratch, g, members, cpus, wcet_of(g));
      EXPECT_EQ(reused.dispatch_order, fresh.dispatch_order) << seed;
      EXPECT_EQ(reused.makespan, fresh.makespan) << seed;
      ASSERT_EQ(reused.items.size(), fresh.items.size());
      for (std::size_t k = 0; k < fresh.items.size(); ++k) {
        EXPECT_EQ(reused.items[k].start, fresh.items[k].start);
        EXPECT_EQ(reused.items[k].finish, fresh.items[k].finish);
        EXPECT_EQ(reused.items[k].cpu, fresh.items[k].cpu);
      }
    }
    std::vector<NodeId> repeated = members;
    repeated.push_back(members.front());
    EXPECT_THROW(ltf_schedule(scratch, g, repeated, 2, wcet_of(g)), Error);
    // A dependence cycle throws once the acyclic members are scheduled.
    const NodeId c0 = g.add_task("c0", ms(1), ms(1));
    const NodeId c1 = g.add_task("c1", ms(1), ms(1));
    g.add_edge(c0, c1);
    g.add_edge(c1, c0);
    std::vector<NodeId> cyclic = members;
    cyclic.push_back(c0);
    cyclic.push_back(c1);
    EXPECT_THROW(ltf_schedule(scratch, g, cyclic, 2, wcet_of(g)), Error);
  }
}

TEST(ListSched, MakespanLowerBoundedByCriticalPathAndWork) {
  AndOrGraph g;
  std::vector<NodeId> members;
  // Chain of 3 x 2ms plus 4 independent 3ms tasks on 2 CPUs.
  NodeId prev = g.add_task("c0", ms(2), ms(1));
  members.push_back(prev);
  for (int i = 1; i < 3; ++i) {
    const NodeId n = g.add_task("c" + std::to_string(i), ms(2), ms(1));
    g.add_edge(prev, n);
    members.push_back(n);
    prev = n;
  }
  for (int i = 0; i < 4; ++i)
    members.push_back(g.add_task("p" + std::to_string(i), ms(3), ms(1)));
  const auto s = ltf_schedule(g, members, 2, wcet_of(g));
  EXPECT_GE(s.makespan, ms(6));  // critical path
  EXPECT_GE(s.makespan, ms(9));  // total work 18ms / 2 cpus
}

}  // namespace
}  // namespace paserta
