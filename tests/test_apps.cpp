// Tests for the workload builders: ATR, the Figure-3 synthetic application
// and the random AND/OR generator.
#include <gtest/gtest.h>

#include <cmath>

#include "apps/atr.h"
#include "apps/random_app.h"
#include "apps/synthetic.h"
#include "common/error.h"
#include "core/offline.h"
#include "sim/scenario.h"

namespace paserta {
namespace {

using apps::AtrConfig;
using apps::RandomAppConfig;
using apps::SyntheticConfig;

TEST(Atr, DefaultBuildValidates) {
  const Application app = apps::build_atr();
  EXPECT_EQ(app.name, "atr");
  EXPECT_NO_THROW(app.graph.validate());
  EXPECT_EQ(app.or_fork_count(), 1u);
  // detect + report + per-branch pipelines: sum k=1..4 of 3k tasks = 30,
  // plus 2 = 32 computation nodes.
  EXPECT_EQ(app.graph.task_count(), 32u);
}

TEST(Atr, BranchProbabilitiesMatchConfig) {
  AtrConfig cfg;
  cfg.max_rois = 3;
  cfg.roi_count_prob = {0.5, 0.3, 0.2};
  const Application app = apps::build_atr(cfg);
  for (NodeId id : app.graph.all_nodes()) {
    const Node& n = app.graph.node(id);
    if (n.is_or_fork()) {
      ASSERT_EQ(n.succ_prob.size(), 3u);
      EXPECT_DOUBLE_EQ(n.succ_prob[0], 0.5);
      EXPECT_DOUBLE_EQ(n.succ_prob[1], 0.3);
      EXPECT_DOUBLE_EQ(n.succ_prob[2], 0.2);
    }
  }
}

TEST(Atr, AlphaControlsAcets) {
  AtrConfig cfg;
  cfg.alpha = 0.5;
  const Application app = apps::build_atr(cfg);
  for (NodeId id : app.graph.all_nodes()) {
    const Node& n = app.graph.node(id);
    if (n.kind != NodeKind::Computation) continue;
    EXPECT_NEAR(static_cast<double>(n.acet.ps) /
                    static_cast<double>(n.wcet.ps),
                0.5, 1e-6)
        << n.name;
  }
}

TEST(Atr, TemplatesScaleMatchingWork) {
  AtrConfig small, big;
  small.templates = 1;
  big.templates = 8;
  const Application a = apps::build_atr(small);
  const Application b = apps::build_atr(big);
  EXPECT_GT(b.graph.total_wcet(), a.graph.total_wcet());
}

TEST(Atr, MoreRoisMoreParallelism) {
  // The 4-ROI branch finishes faster on more processors.
  const Application app = apps::build_atr();
  OfflineOptions o;
  o.deadline = SimTime::from_sec(10);
  o.cpus = 1;
  const SimTime w1 = analyze_offline(app, o).worst_makespan();
  o.cpus = 4;
  const SimTime w4 = analyze_offline(app, o).worst_makespan();
  EXPECT_LT(w4, w1);
}

TEST(Atr, RejectsBadConfig) {
  AtrConfig cfg;
  cfg.max_rois = 0;
  EXPECT_THROW(apps::build_atr(cfg), Error);
  cfg = AtrConfig{};
  cfg.alpha = 0.0;
  EXPECT_THROW(apps::build_atr(cfg), Error);
  cfg = AtrConfig{};
  cfg.roi_count_prob = {1.0};  // size mismatch with max_rois=4
  EXPECT_THROW(apps::build_atr(cfg), Error);
}

TEST(Synthetic, BuildValidatesAndUsesLegibleFragments) {
  const Application app = apps::build_synthetic();
  EXPECT_NO_THROW(app.graph.validate());
  // The two OR branches plus three loop-exit forks (4 iterations).
  EXPECT_EQ(app.or_fork_count(), 5u);
  for (const char* name :
       {"A", "B", "C", "E", "F", "G", "H", "I", "J", "K", "L"}) {
    EXPECT_TRUE(app.graph.find(name).has_value()) << name;
  }
  // Spot-check the legible WCET/ACET pairs.
  const Node& a = app.graph.node(*app.graph.find("A"));
  EXPECT_EQ(a.wcet, SimTime::from_ms(8));
  EXPECT_EQ(a.acet, SimTime::from_ms(5));
  const Node& h = app.graph.node(*app.graph.find("H"));
  EXPECT_EQ(h.wcet, SimTime::from_ms(10));
  EXPECT_EQ(h.acet, SimTime::from_ms(6));
}

TEST(Synthetic, CollapseModeShrinksGraph) {
  SyntheticConfig unroll, collapse;
  collapse.loop_mode = LoopMode::Collapse;
  const Application u = apps::build_synthetic(unroll);
  const Application c = apps::build_synthetic(collapse);
  EXPECT_LT(c.graph.size(), u.graph.size());
  EXPECT_EQ(c.or_fork_count(), 2u);  // only the two explicit branches
  // Collapsed loop task: 4 iterations x (4+4)ms WCET.
  EXPECT_TRUE(c.graph.find("scan").has_value());
  EXPECT_EQ(c.graph.node(*c.graph.find("scan")).wcet, SimTime::from_ms(32));
}

TEST(Synthetic, WorstCaseMakespanIsStable) {
  // Pin the canonical W on 2 CPUs so accidental workload changes are
  // caught: A + max-par(B,C) ... computed value asserted once here.
  const Application app = apps::build_synthetic();
  OfflineOptions o;
  o.cpus = 2;
  o.deadline = SimTime::from_sec(1);
  const OfflineResult off = analyze_offline(app, o);
  // Prologue 8+5, loop 4x4, branch max(5+10, 10), tail max(8,5),
  // epilogue 10+4 = 13+16+15+8+14 = 66 ms.
  EXPECT_EQ(off.worst_makespan(), SimTime::from_ms(66));
}

TEST(RandomApp, DeterministicForSeed) {
  RandomAppConfig cfg;
  Rng r1(77), r2(77);
  const Application a = apps::random_application(r1, cfg, "a");
  const Application b = apps::random_application(r2, cfg, "b");
  ASSERT_EQ(a.graph.size(), b.graph.size());
  for (NodeId id : a.graph.all_nodes()) {
    EXPECT_EQ(a.graph.node(id).kind, b.graph.node(id).kind);
    EXPECT_EQ(a.graph.node(id).wcet, b.graph.node(id).wcet);
    EXPECT_EQ(a.graph.node(id).succs, b.graph.node(id).succs);
  }
}

TEST(RandomApp, AllSeedsValidate) {
  RandomAppConfig cfg;
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    Rng rng(seed);
    const Application app = apps::random_application(rng, cfg);
    EXPECT_NO_THROW(app.graph.validate()) << "seed " << seed;
  }
}

TEST(RandomApp, RespectsWcetRange) {
  RandomAppConfig cfg;
  cfg.wcet_min = SimTime::from_ms(2);
  cfg.wcet_max = SimTime::from_ms(3);
  Rng rng(5);
  const Application app = apps::random_application(rng, cfg);
  for (NodeId id : app.graph.all_nodes()) {
    const Node& n = app.graph.node(id);
    if (n.kind != NodeKind::Computation) continue;
    EXPECT_GE(n.wcet, cfg.wcet_min);
    EXPECT_LE(n.wcet, cfg.wcet_max);
    EXPECT_LE(n.acet, n.wcet);
  }
}

TEST(RandomApp, ConfigValidation) {
  Rng rng(1);
  RandomAppConfig cfg;
  cfg.max_branch_alts = 1;
  EXPECT_THROW(apps::random_program(rng, cfg), Error);
  cfg = RandomAppConfig{};
  cfg.alpha_min = 0.0;
  EXPECT_THROW(apps::random_program(rng, cfg), Error);
  cfg = RandomAppConfig{};
  cfg.wcet_min = SimTime::from_ms(5);
  cfg.wcet_max = SimTime::from_ms(1);
  EXPECT_THROW(apps::random_program(rng, cfg), Error);
}

// --------------------------------------------------------------- scenario

TEST(Scenario, ActualTimesWithinBounds) {
  const Application app = apps::build_atr();
  Rng rng(11);
  for (int i = 0; i < 20; ++i) {
    const RunScenario sc = draw_scenario(app.graph, rng);
    for (NodeId id : app.graph.all_nodes()) {
      const Node& n = app.graph.node(id);
      if (n.kind == NodeKind::Computation) {
        EXPECT_GT(sc.actual_of(id), SimTime::zero());
        EXPECT_LE(sc.actual_of(id), n.wcet);
      } else {
        EXPECT_EQ(sc.actual_of(id), SimTime::zero());
      }
      if (n.is_or_fork()) {
        EXPECT_GE(sc.choice_of(id), 0);
        EXPECT_LT(static_cast<std::size_t>(sc.choice_of(id)),
                  n.succs.size());
      } else {
        EXPECT_EQ(sc.choice_of(id), -1);
      }
    }
  }
}

TEST(Scenario, MeanTracksAcet) {
  Program p;
  p.task("T", SimTime::from_ms(10), SimTime::from_ms(6));
  const Application app = build_application("m", p);
  Rng rng(3);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    sum += draw_scenario(app.graph, rng).actual[0].ms();
  EXPECT_NEAR(sum / n, 6.0, 0.05);
}

TEST(Scenario, ForkChoiceFrequenciesMatchProbabilities) {
  Program xa, yb;
  xa.task("x", SimTime::from_ms(1), SimTime::from_ms(1));
  yb.task("y", SimTime::from_ms(1), SimTime::from_ms(1));
  Program p;
  p.branch("o", {{0.2, std::move(xa)}, {0.8, std::move(yb)}});
  const Application app = build_application("f", p);
  const NodeId fork = app.structure.segments[0].fork;
  Rng rng(9);
  int taken0 = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i)
    if (draw_scenario(app.graph, rng).choice_of(fork) == 0) ++taken0;
  EXPECT_NEAR(taken0 / double(n), 0.2, 0.01);
}

TEST(Scenario, AssignAlphaScalesMeans) {
  Application app = apps::build_atr();
  assign_alpha(app.graph, 0.4);  // no jitter
  for (NodeId id : app.graph.all_nodes()) {
    const Node& n = app.graph.node(id);
    if (n.kind != NodeKind::Computation) continue;
    EXPECT_NEAR(static_cast<double>(n.acet.ps) /
                    static_cast<double>(n.wcet.ps),
                0.4, 1e-6);
  }
}

TEST(Scenario, AssignAlphaWithJitterStaysBounded) {
  Application app = apps::build_atr();
  Rng rng(21);
  assign_alpha(app.graph, 0.5, &rng);
  for (NodeId id : app.graph.all_nodes()) {
    const Node& n = app.graph.node(id);
    if (n.kind != NodeKind::Computation) continue;
    EXPECT_GE(n.acet, SimTime{1});
    EXPECT_LE(n.acet, n.wcet);
  }
}

TEST(Scenario, WorstCaseUsesWcets) {
  const Application app = apps::build_synthetic();
  const RunScenario sc = worst_case_scenario(app.graph);
  for (NodeId id : app.graph.all_nodes()) {
    const Node& n = app.graph.node(id);
    if (n.kind == NodeKind::Computation) {
      EXPECT_EQ(sc.actual_of(id), n.wcet);
    }
  }
}

}  // namespace
}  // namespace paserta
