// Unit tests for the offline phase: canonical makespans, execution orders,
// latest start times (shifted schedules) and PMP speculation profiles.
#include <gtest/gtest.h>

#include "common/error.h"
#include "core/offline.h"

namespace paserta {
namespace {

SimTime ms(double v) { return SimTime::from_ms(v); }
TaskSpec t(const char* n, double w, double a) {
  return TaskSpec{n, ms(w), ms(a)};
}

OfflineOptions opts(int cpus, SimTime deadline,
                    SimTime budget = SimTime::zero()) {
  OfflineOptions o;
  o.cpus = cpus;
  o.deadline = deadline;
  o.overhead_budget = budget;
  return o;
}

TEST(Offline, ChainOnOneCpu) {
  Program p;
  p.chain({t("a", 4, 2), t("b", 6, 3)});
  const Application app = build_application("chain", p);
  const OfflineResult off = analyze_offline(app, opts(1, ms(20)));

  EXPECT_EQ(off.worst_makespan(), ms(10));
  EXPECT_EQ(off.average_makespan(), ms(5));
  EXPECT_TRUE(off.feasible());

  const NodeId a = *app.graph.find("a");
  const NodeId b = *app.graph.find("b");
  EXPECT_EQ(off.eo(a), 0u);
  EXPECT_EQ(off.eo(b), 1u);
  // Shifted schedule ends at the deadline: b [14,20], a [10,14].
  EXPECT_EQ(off.lst(b), ms(14));
  EXPECT_EQ(off.lst(a), ms(10));
  EXPECT_EQ(off.eet(a), ms(14));
  EXPECT_EQ(off.eet(b), ms(20));
}

TEST(Offline, InfeasibleDeadlineDetected) {
  Program p;
  p.task("big", ms(50), ms(10));
  const Application app = build_application("big", p);
  const OfflineResult off = analyze_offline(app, opts(2, ms(20)));
  EXPECT_FALSE(off.feasible());
  EXPECT_EQ(off.worst_makespan(), ms(50));
}

TEST(Offline, BranchWorstUsesLongestAlternative) {
  Program x, y;
  x.task("x", ms(4), ms(2));
  y.task("y", ms(8), ms(6));
  Program p;
  p.task("pre", ms(2), ms(1));
  p.branch("o", {{0.5, std::move(x)}, {0.5, std::move(y)}});
  const Application app = build_application("br", p);
  const OfflineResult off = analyze_offline(app, opts(2, ms(20)));

  // W = 2 + max(4, 8); A = 1 + 0.5*2 + 0.5*6.
  EXPECT_EQ(off.worst_makespan(), ms(10));
  EXPECT_EQ(off.average_makespan(), ms(5));

  const NodeId pre = *app.graph.find("pre");
  const NodeId nx = *app.graph.find("x");
  const NodeId ny = *app.graph.find("y");
  const StructSegment& br = app.structure.segments[1];

  // Each alternative's shifted schedule finishes exactly at the deadline.
  EXPECT_EQ(off.lst(br.join), ms(20));
  EXPECT_EQ(off.lst(nx), ms(16));
  EXPECT_EQ(off.lst(ny), ms(12));
  // The fork must fire early enough for the longest alternative.
  EXPECT_EQ(off.lst(br.fork), ms(12));
  EXPECT_EQ(off.lst(pre), ms(10));
}

TEST(Offline, BranchExecutionOrdersShareSlots) {
  Program x, y;
  x.chain({t("x1", 1, 1), t("x2", 1, 1)});
  y.task("y", ms(8), ms(6));
  Program p;
  p.task("pre", ms(2), ms(1));
  p.branch("o", {{0.5, std::move(x)}, {0.5, std::move(y)}});
  p.task("post", ms(1), ms(1));
  const Application app = build_application("eo", p);
  const OfflineResult off = analyze_offline(app, opts(2, ms(30)));

  const StructSegment& br = app.structure.segments[1];
  EXPECT_EQ(off.eo(*app.graph.find("pre")), 0u);
  EXPECT_EQ(off.eo(br.fork), 1u);
  // Both alternatives start at EO 2; x-alt spans 2 slots, y-alt 1 (plus
  // the glue-free single task). Join EO = 2 + max(2,1) = 4.
  EXPECT_EQ(off.eo(*app.graph.find("x1")), 2u);
  EXPECT_EQ(off.eo(*app.graph.find("x2")), 3u);
  EXPECT_EQ(off.eo(*app.graph.find("y")), 2u);
  EXPECT_EQ(off.eo(br.join), 4u);
  EXPECT_EQ(off.eo(*app.graph.find("post")), 5u);
  EXPECT_EQ(off.max_eo(), 6u);
}

TEST(Offline, ForkProfilesCarryPerPathRemainingTimes) {
  Program x, y;
  x.task("x", ms(4), ms(2));
  y.task("y", ms(8), ms(6));
  Program p;
  p.branch("o", {{0.25, std::move(x)}, {0.75, std::move(y)}});
  p.task("post", ms(2), ms(1));
  const Application app = build_application("prof", p);
  const OfflineResult off = analyze_offline(app, opts(2, ms(30)));

  const StructSegment& br = app.structure.segments[0];
  ASSERT_TRUE(off.has_fork_profile(br.fork));
  const OrForkProfile& prof = off.fork_profile(br.fork);
  ASSERT_EQ(prof.rem_w_alt.size(), 2u);
  // Worst remaining: alternative + the 2ms epilogue.
  EXPECT_EQ(prof.rem_w_alt[0], ms(6));
  EXPECT_EQ(prof.rem_w_alt[1], ms(10));
  EXPECT_EQ(prof.rem_a_alt[0], ms(3));
  EXPECT_EQ(prof.rem_a_alt[1], ms(7));
  // After the join only the epilogue remains.
  EXPECT_EQ(off.rem_w_after(br.join), ms(2));
  EXPECT_EQ(off.rem_a_after(br.join), ms(1));
  // Whole-application A = 0.25*2 + 0.75*6 + 1 = 6; matches the fork's
  // expected remaining time at time zero.
  EXPECT_EQ(off.average_makespan(), ms(6));
  EXPECT_EQ(off.rem_a_after(br.fork) + SimTime::zero(), ms(6));
}

TEST(Offline, OverheadBudgetInflatesWcets) {
  Program p;
  p.chain({t("a", 4, 2), t("b", 6, 3)});
  const Application app = build_application("infl", p);
  const SimTime budget = SimTime::from_us(10);
  const OfflineResult off = analyze_offline(app, opts(1, ms(20), budget));
  EXPECT_EQ(off.worst_makespan(), ms(10) + budget * 2);
  const NodeId a = *app.graph.find("a");
  EXPECT_EQ(off.inflated_wcet(a), ms(4) + budget);
  EXPECT_EQ(off.eet(a), off.lst(a) + ms(4) + budget);
}

TEST(Offline, DummiesAreNotInflated) {
  Program x, y;
  x.task("x", ms(4), ms(2));
  y.task("y", ms(8), ms(6));
  Program p;
  p.branch("o", {{0.5, std::move(x)}, {0.5, std::move(y)}});
  const Application app = build_application("dummy", p);
  const OfflineResult off =
      analyze_offline(app, opts(1, ms(20), SimTime::from_us(10)));
  const StructSegment& br = app.structure.segments[0];
  EXPECT_EQ(off.inflated_wcet(br.fork), SimTime::zero());
  EXPECT_EQ(off.inflated_wcet(br.join), SimTime::zero());
}

TEST(Offline, ParallelSectionUsesProcessors) {
  Program p;
  p.parallel({t("a", 4, 4), t("b", 4, 4), t("c", 4, 4), t("d", 4, 4)});
  const Application app = build_application("par", p);
  EXPECT_EQ(analyze_offline(app, opts(1, ms(100))).worst_makespan(), ms(16));
  EXPECT_EQ(analyze_offline(app, opts(2, ms(100))).worst_makespan(), ms(8));
  EXPECT_EQ(analyze_offline(app, opts(4, ms(100))).worst_makespan(), ms(4));
}

TEST(Offline, LstNonNegativeWhenFeasible) {
  Program p;
  p.chain({t("a", 4, 2), t("b", 6, 3)});
  p.parallel({t("c", 3, 2), t("d", 5, 4)});
  const Application app = build_application("mix", p);
  const OfflineResult off = analyze_offline(app, opts(2, ms(15)));
  ASSERT_TRUE(off.feasible());
  for (NodeId id : app.graph.all_nodes())
    EXPECT_GE(off.lst(id), SimTime::zero());
}

TEST(Offline, CanonicalWorstMakespanMatchesFullAnalysis) {
  Program x, y;
  x.task("x", ms(4), ms(2));
  y.chain({t("y1", 3, 1), t("y2", 3, 1)});
  Program p;
  p.task("pre", ms(2), ms(1));
  p.branch("o", {{0.5, std::move(x)}, {0.5, std::move(y)}});
  const Application app = build_application("wm", p);
  const SimTime w = canonical_worst_makespan(app, 2, SimTime::zero());
  const OfflineResult off = analyze_offline(app, opts(2, ms(100)));
  EXPECT_EQ(w, off.worst_makespan());
  EXPECT_EQ(w, ms(8));
}

TEST(Offline, DeadlineAtLoadIsCeilingOfWorstOverLoad) {
  // D = ceil(W / load) in whole picoseconds: a whole quotient is exact (no
  // extra picosecond), a fractional one rounds up.
  const SimTime w{123'456'789};
  EXPECT_EQ(deadline_at_load(w, 0.5), SimTime{2 * w.ps});
  EXPECT_EQ(deadline_at_load(w, 1.0), w);
  EXPECT_EQ(deadline_at_load(SimTime{10}, 0.3), SimTime{34});
  // A quotient SimTime cannot hold is refused by name, not converted.
  try {
    (void)deadline_at_load(w, 1e-300);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("load 1e-300"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)deadline_at_load(w, 0.0), Error);
  EXPECT_THROW((void)deadline_at_load(w, -0.5), Error);
  EXPECT_THROW((void)deadline_at_load(SimTime::zero(), 0.5), Error);
}

TEST(Offline, DeadlineResultsShareCanonicalTables) {
  // apply_deadline shares the deadline-independent tables of its canonical
  // analysis instead of copying them, and keeps them alive after the
  // analysis handle is gone.
  Program x, y;
  x.task("x", ms(4), ms(2));
  y.chain({t("y1", 3, 1), t("y2", 3, 1)});
  Program p;
  p.task("pre", ms(2), ms(1));
  p.branch("o", {{0.5, std::move(x)}, {0.5, std::move(y)}});
  const Application app = build_application("share", p);
  OfflineResult loose, tight;
  {
    CanonicalOptions opt;
    opt.cpus = 2;
    const CanonicalAnalysis canon = analyze_canonical(app, opt);
    loose = apply_deadline(canon, ms(100));
    tight = apply_deadline(canon, ms(8));
  }
  EXPECT_EQ(&loose.eo_table(), &tight.eo_table());
  EXPECT_EQ(&loose.succ_list_table(), &tight.succ_list_table());
  EXPECT_NE(&loose.eet_table(), &tight.eet_table());
  const OfflineResult fresh = analyze_offline(app, opts(2, ms(8)));
  EXPECT_EQ(tight.eo_table(), fresh.eo_table());
  EXPECT_EQ(tight.eet_table(), fresh.eet_table());
  const NodeId fork = *app.graph.find("o_fork");
  EXPECT_EQ(tight.fork_profile(fork).rem_w_alt,
            fresh.fork_profile(fork).rem_w_alt);

  const OfflineResult none;
  EXPECT_TRUE(none.eo_table().empty());
  EXPECT_FALSE(none.has_fork_profile(fork));
}

TEST(Offline, RejectsBadOptions) {
  Program p;
  p.task("a", ms(1), ms(1));
  const Application app = build_application("bad", p);
  EXPECT_THROW(analyze_offline(app, opts(0, ms(1))), Error);
  EXPECT_THROW(analyze_offline(app, opts(1, SimTime::zero())), Error);
}

TEST(Offline, NestedBranchLstRecursion) {
  // outer: 0.5 -> {inner branch}, 0.5 -> z(10). Inner: 0.5 -> a(2),
  // 0.5 -> b(6).
  Program a, b;
  a.task("a", ms(2), ms(1));
  b.task("b", ms(6), ms(3));
  Program inner;
  inner.branch("inner", {{0.5, std::move(a)}, {0.5, std::move(b)}});
  Program z;
  z.task("z", ms(10), ms(5));
  Program p;
  p.branch("outer", {{0.5, std::move(inner)}, {0.5, std::move(z)}});
  const Application app = build_application("nest", p);
  const OfflineResult off = analyze_offline(app, opts(1, ms(20)));

  // W = max(max(2,6), 10) = 10.
  EXPECT_EQ(off.worst_makespan(), ms(10));
  // Every alternative's shifted schedule ends at D = 20.
  EXPECT_EQ(off.lst(*app.graph.find("z")), ms(10));
  EXPECT_EQ(off.lst(*app.graph.find("b")), ms(14));
  EXPECT_EQ(off.lst(*app.graph.find("a")), ms(18));
}

}  // namespace
}  // namespace paserta
