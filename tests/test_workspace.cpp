// Tests for the reusable simulation workspace and opt-in trace recording:
// workspace reuse must be observationally identical to the one-shot
// convenience overload, the Monte-Carlo harness must stay bit-identical
// across thread counts, and the degenerate-baseline and sweep-grid fixes
// must hold.
#include <gtest/gtest.h>

#include <sstream>

#include "apps/atr.h"
#include "apps/synthetic.h"
#include "common/error.h"
#include "core/scheduler.h"
#include "harness/experiment.h"
#include "sim/engine.h"
#include "sim/gantt.h"
#include "sim/scenario.h"
#include "sim/verify.h"

namespace paserta {
namespace {

SimTime ms(double v) { return SimTime::from_ms(v); }

/// Only dummy nodes execute: zero busy energy, and with idle_fraction = 0
/// a zero NPM baseline — the degenerate case of the normalization.
Application all_dummy_app() {
  Program p;
  p.branch("o", {{0.5, Program{}}, {0.5, Program{}}});
  return build_application("empty", p);
}

void expect_same_numbers(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.busy_energy, b.busy_energy);
  EXPECT_EQ(a.overhead_energy, b.overhead_energy);
  EXPECT_EQ(a.idle_energy, b.idle_energy);
  EXPECT_EQ(a.finish_time, b.finish_time);
  EXPECT_EQ(a.speed_changes, b.speed_changes);
  EXPECT_EQ(a.dispatched, b.dispatched);
  EXPECT_EQ(a.deadline_met, b.deadline_met);
}

TEST(Workspace, ReuseMatchesOneShot) {
  const Application app = apps::build_synthetic();
  const PowerModel pm(LevelTable::transmeta_tm5400());
  Overheads ovh;
  OfflineOptions o;
  o.cpus = 2;
  o.deadline = ms(120);
  o.overhead_budget = ovh.worst_case_budget(pm.table());
  const OfflineResult off = analyze_offline(app, o);

  // One workspace serves every scheme and every scenario in sequence; the
  // results must match fresh one-shot simulations exactly, trace included.
  SimWorkspace ws;
  Rng rng(11);
  for (int draw = 0; draw < 4; ++draw) {
    const RunScenario sc = draw_scenario(app.graph, rng);
    for (Scheme s : {Scheme::NPM, Scheme::GSS, Scheme::SS2, Scheme::AS}) {
      auto p1 = make_policy(s);
      p1->reset(off, pm);
      const SimResult one_shot = simulate(app, off, pm, ovh, *p1, sc);

      auto p2 = make_policy(s);
      p2->reset(off, pm);
      const SimResult reused = simulate(app, off, pm, ovh, *p2, sc, ws);

      expect_same_numbers(one_shot, reused);
      ASSERT_EQ(one_shot.trace.size(), reused.trace.size());
      for (std::size_t i = 0; i < one_shot.trace.size(); ++i) {
        EXPECT_EQ(one_shot.trace[i].node, reused.trace[i].node);
        EXPECT_EQ(one_shot.trace[i].cpu, reused.trace[i].cpu);
        EXPECT_EQ(one_shot.trace[i].finish, reused.trace[i].finish);
        EXPECT_EQ(one_shot.trace[i].level, reused.trace[i].level);
      }
    }
  }
}

TEST(Workspace, TraceRecordingOptIn) {
  const Application app = apps::build_synthetic();
  const PowerModel pm(LevelTable::transmeta_tm5400());
  Overheads ovh;
  OfflineOptions o;
  o.cpus = 2;
  o.deadline = ms(120);
  o.overhead_budget = ovh.worst_case_budget(pm.table());
  const OfflineResult off = analyze_offline(app, o);
  Rng rng(12);
  const RunScenario sc = draw_scenario(app.graph, rng);

  SimWorkspace ws;
  auto p = make_policy(Scheme::GSS);
  p->reset(off, pm);
  SimOptions no_trace;
  no_trace.record_trace = false;
  const SimResult silent = simulate(app, off, pm, ovh, *p, sc, ws, no_trace);
  EXPECT_TRUE(silent.trace.empty());
  EXPECT_GT(silent.dispatched, 0u);

  // Turning recording back on through the same workspace still yields the
  // full trace — and identical numbers either way.
  p->reset(off, pm);
  const SimResult traced = simulate(app, off, pm, ovh, *p, sc, ws);
  EXPECT_EQ(traced.trace.size(), traced.dispatched);
  expect_same_numbers(silent, traced);
}

TEST(Workspace, CompletenessCheckAgreesWithInlineAccounting) {
  // The engine's O(1) inline accounting (activated == completed counters
  // maintained during dispatch) replaced the post-run executed_set
  // traversal on the hot path; the traversal survives behind
  // SimOptions::check_completeness. Both modes must accept the same runs
  // and produce identical numbers — on OR-heavy workloads especially,
  // where untaken alternatives must not count as pending work.
  const Application app = apps::build_atr();
  const PowerModel pm(LevelTable::transmeta_tm5400());
  Overheads ovh;
  OfflineOptions o;
  o.cpus = 2;
  o.overhead_budget = ovh.worst_case_budget(pm.table());
  o.deadline = canonical_worst_makespan(app, 2, o.overhead_budget) * 2;
  const OfflineResult off = analyze_offline(app, o);

  SimWorkspace ws;
  Rng rng(77);
  SimOptions fast;
  fast.record_trace = false;
  SimOptions checked = fast;
  checked.check_completeness = true;
  for (int draw = 0; draw < 8; ++draw) {
    const RunScenario sc = draw_scenario(app.graph, rng);
    for (Scheme s : {Scheme::NPM, Scheme::GSS, Scheme::AS}) {
      auto p = make_policy(s);
      p->reset(off, pm);
      const SimResult plain = simulate(app, off, pm, ovh, *p, sc, ws, fast);
      p->reset(off, pm);
      const SimResult audited =
          simulate(app, off, pm, ovh, *p, sc, ws, checked);
      expect_same_numbers(plain, audited);
      EXPECT_EQ(plain.dispatched, audited.dispatched);
    }
  }
}

TEST(Workspace, TraceConsumersRejectTracelessResults) {
  // The verifier and the Gantt renderer need a trace; a result simulated
  // with recording off must produce a clear diagnostic, not a misleading
  // per-node coverage failure.
  const Application app = apps::build_synthetic();
  const PowerModel pm(LevelTable::transmeta_tm5400());
  Overheads ovh;
  OfflineOptions o;
  o.cpus = 2;
  o.deadline = ms(120);
  o.overhead_budget = ovh.worst_case_budget(pm.table());
  const OfflineResult off = analyze_offline(app, o);
  Rng rng(14);
  const RunScenario sc = draw_scenario(app.graph, rng);

  SimWorkspace ws;
  auto p = make_policy(Scheme::GSS);
  p->reset(off, pm);
  SimOptions no_trace;
  no_trace.record_trace = false;
  const SimResult r = simulate(app, off, pm, ovh, *p, sc, ws, no_trace);

  const VerifyReport rep = verify_trace(app, off, sc, r);
  EXPECT_FALSE(rep.ok);
  ASSERT_EQ(rep.violations.size(), 1u);
  EXPECT_NE(rep.violations.front().find("record_trace"), std::string::npos);

  std::ostringstream gantt;
  EXPECT_THROW(render_gantt(gantt, app, off, pm, r), Error);
}

TEST(Workspace, NoStateBleedsAcrossRuns) {
  // The same scenario through the same workspace twice in a row: a stale
  // counter, queue entry or trace record from run 1 would show up in run 2.
  const Application app = apps::build_synthetic();
  const PowerModel pm(LevelTable::intel_xscale());
  Overheads ovh;
  OfflineOptions o;
  o.cpus = 3;
  o.deadline = ms(120);
  o.overhead_budget = ovh.worst_case_budget(pm.table());
  const OfflineResult off = analyze_offline(app, o);
  Rng rng(13);
  const RunScenario sc = draw_scenario(app.graph, rng);

  SimWorkspace ws;
  auto p = make_policy(Scheme::AS);
  p->reset(off, pm);
  const SimResult first = simulate(app, off, pm, ovh, *p, sc, ws);
  p->reset(off, pm);
  const SimResult second = simulate(app, off, pm, ovh, *p, sc, ws);
  expect_same_numbers(first, second);
  EXPECT_EQ(first.trace.size(), second.trace.size());
}

TEST(Harness, WorkspacePathMatchesHandRolledLoop) {
  // run_point (workspace reuse, traces off) against a hand-rolled loop
  // through the one-shot trace-recording overload: statistics must agree
  // to the last bit.
  const Application app = apps::build_synthetic();
  const SimTime deadline = ms(120);
  ExperimentConfig cfg;
  cfg.cpus = 2;
  cfg.table = LevelTable::intel_xscale();
  cfg.schemes = {Scheme::GSS, Scheme::SS2};
  cfg.runs = 25;
  cfg.seed = 777;
  const SweepPoint point = run_point(app, cfg, deadline, 0.0);

  const PowerModel pm(cfg.table, cfg.c_ef, cfg.idle_fraction);
  OfflineOptions o;
  o.cpus = cfg.cpus;
  o.deadline = deadline;
  o.overhead_budget = cfg.overheads.worst_case_budget(cfg.table);
  const OfflineResult off = analyze_offline(app, o);

  RunningStat npm_energy;
  std::vector<RunningStat> norm(cfg.schemes.size());
  auto npm = make_policy(Scheme::NPM);
  for (int run = 0; run < cfg.runs; ++run) {
    Rng rng(Rng::stream_seed(cfg.seed, static_cast<std::uint64_t>(run)));
    const RunScenario sc = draw_scenario(app.graph, rng);
    npm->reset(off, pm);
    const SimResult base = simulate(app, off, pm, cfg.overheads, *npm, sc);
    npm_energy.add(base.total_energy());
    for (std::size_t s = 0; s < cfg.schemes.size(); ++s) {
      auto p = make_policy(cfg.schemes[s], cfg.policy_options);
      p->reset(off, pm);
      const SimResult r = simulate(app, off, pm, cfg.overheads, *p, sc);
      norm[s].add(r.total_energy() / base.total_energy());
    }
  }

  EXPECT_EQ(point.degenerate_runs, 0u);
  EXPECT_DOUBLE_EQ(point.npm_energy.mean(), npm_energy.mean());
  EXPECT_DOUBLE_EQ(point.npm_energy.variance(), npm_energy.variance());
  for (std::size_t s = 0; s < cfg.schemes.size(); ++s) {
    EXPECT_EQ(point.stats[s].norm_energy.count(), norm[s].count());
    EXPECT_DOUBLE_EQ(point.stats[s].norm_energy.mean(), norm[s].mean());
    EXPECT_DOUBLE_EQ(point.stats[s].norm_energy.variance(),
                     norm[s].variance());
  }
}

TEST(Harness, ThreadCountInvariantWithWorkspaces) {
  // Per-worker workspaces must not perturb the bit-identical guarantee,
  // including the oversubscribed case (more threads than runs).
  const Application app = apps::build_synthetic();
  const SimTime deadline = ms(120);
  ExperimentConfig cfg;
  cfg.cpus = 2;
  cfg.table = LevelTable::intel_xscale();
  cfg.runs = 12;
  cfg.seed = 2002;
  cfg.threads = 1;
  const SweepPoint serial = run_point(app, cfg, deadline, 0.0);
  for (int threads : {4, cfg.runs + 1}) {
    cfg.threads = threads;
    const SweepPoint parallel = run_point(app, cfg, deadline, 0.0);
    ASSERT_EQ(serial.stats.size(), parallel.stats.size());
    EXPECT_EQ(serial.degenerate_runs, parallel.degenerate_runs);
    EXPECT_DOUBLE_EQ(serial.npm_energy.mean(), parallel.npm_energy.mean());
    EXPECT_DOUBLE_EQ(serial.npm_energy.variance(),
                     parallel.npm_energy.variance());
    for (std::size_t s = 0; s < serial.stats.size(); ++s) {
      EXPECT_DOUBLE_EQ(serial.stats[s].norm_energy.mean(),
                       parallel.stats[s].norm_energy.mean());
      EXPECT_DOUBLE_EQ(serial.stats[s].norm_energy.variance(),
                       parallel.stats[s].norm_energy.variance());
      EXPECT_DOUBLE_EQ(serial.stats[s].speed_changes.mean(),
                       parallel.stats[s].speed_changes.mean());
      EXPECT_DOUBLE_EQ(serial.stats[s].finish_frac.mean(),
                       parallel.stats[s].finish_frac.mean());
      EXPECT_EQ(serial.stats[s].deadline_misses,
                parallel.stats[s].deadline_misses);
    }
  }
}

TEST(Harness, SweepRangeHitsEveryGridPoint) {
  // (0.1, 1.0, 0.1): (to - from) / step evaluates to 8.999999999999998,
  // so both naive truncation and the old `x += step` accumulation dropped
  // or duplicated grid points. Exactly ten strictly increasing values.
  const std::vector<double> xs = sweep_range(0.1, 1.0, 0.1);
  ASSERT_EQ(xs.size(), 10u);
  EXPECT_DOUBLE_EQ(xs.front(), 0.1);
  EXPECT_EQ(xs.back(), 1.0);
  for (std::size_t i = 1; i < xs.size(); ++i) EXPECT_LT(xs[i - 1], xs[i]);
}

TEST(Harness, SweepRangeOffGridEndpointExcluded) {
  // The endpoint is only emitted when it sits on the grid: 1.0 is not a
  // multiple of 0.4 from 0, so the sweep stops at 0.8.
  const std::vector<double> xs = sweep_range(0.0, 1.0, 0.4);
  ASSERT_EQ(xs.size(), 3u);
  EXPECT_DOUBLE_EQ(xs[0], 0.0);
  EXPECT_DOUBLE_EQ(xs[1], 0.4);
  EXPECT_DOUBLE_EQ(xs[2], 0.8);
}

TEST(Harness, SweepRangeSinglePoint) {
  const std::vector<double> xs = sweep_range(0.5, 0.5, 0.1);
  ASSERT_EQ(xs.size(), 1u);
  EXPECT_DOUBLE_EQ(xs.front(), 0.5);
}

TEST(Harness, DegenerateBaselineCountedNotNaN) {
  // All-dummy workload with zero idle power: the NPM baseline consumes no
  // energy, so normalized energy is undefined. Such runs must be counted
  // and excluded — never divided through.
  const Application app = all_dummy_app();
  ExperimentConfig cfg;
  cfg.cpus = 2;
  cfg.table = LevelTable::intel_xscale();
  cfg.idle_fraction = 0.0;
  cfg.runs = 8;
  cfg.seed = 5;
  const SweepPoint point = run_point(app, cfg, ms(10), 0.0);

  EXPECT_EQ(point.degenerate_runs, 8u);
  EXPECT_EQ(point.npm_energy.mean(), 0.0);
  for (const SchemeStats& st : point.stats) {
    EXPECT_EQ(st.norm_energy.count(), 0u);  // no NaN ever entered
    EXPECT_EQ(st.deadline_misses, 0u);
    EXPECT_EQ(st.finish_frac.mean(), 0.0);
  }
}

TEST(Scheduler, DegenerateFramesCountedNotNaN) {
  PowerAwareScheduler::Config cfg;
  cfg.cpus = 2;
  cfg.table = LevelTable::intel_xscale();
  cfg.idle_fraction = 0.0;
  cfg.deadline = ms(10);
  PowerAwareScheduler sched(all_dummy_app(), cfg);
  Rng rng(7);
  for (int i = 0; i < 5; ++i) (void)sched.run_frame(rng);

  const auto& sum = sched.summary();
  EXPECT_EQ(sum.frames, 5u);
  EXPECT_EQ(sum.degenerate_frames, 5u);
  EXPECT_EQ(sum.norm_energy.count(), 0u);
  EXPECT_EQ(sum.deadline_misses, 0u);
}

TEST(Scheduler, RecordTraceConfig) {
  PowerAwareScheduler::Config cfg;
  cfg.cpus = 2;
  cfg.load = 0.5;
  PowerAwareScheduler traced(apps::build_synthetic(), cfg);
  cfg.record_trace = false;
  PowerAwareScheduler silent(apps::build_synthetic(), cfg);

  Rng rng_a(21), rng_b(21);
  for (int i = 0; i < 3; ++i) {
    const SimResult a = traced.run_frame(rng_a);
    const SimResult b = silent.run_frame(rng_b);
    EXPECT_EQ(a.trace.size(), a.dispatched);
    EXPECT_TRUE(b.trace.empty());
    expect_same_numbers(a, b);
  }
  EXPECT_DOUBLE_EQ(traced.summary().norm_energy.mean(),
                   silent.summary().norm_energy.mean());
  EXPECT_EQ(traced.summary().degenerate_frames, 0u);
}

}  // namespace
}  // namespace paserta
