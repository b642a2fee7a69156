// Batched-engine bit-identity suite: simulate_batch (sim/batch_engine.h)
// must reproduce the scalar engine run-for-run — energies, finish times,
// traces, counters and the attribution ledger, bitwise — and run_point,
// which simulates every pooled chunk on it, must reproduce the scalar
// unpooled reference for every chunk size. The suite cross-validates on
// randomized AND/OR applications (apps/random_app.h), so the lockstep
// dispatch loop is exercised across graph shapes no hand-written workload
// covers: nested OR forks, loops, empty alternatives, wide sections. Chunk
// sizes deliberately leave lane groups with odd remainders.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/random_app.h"
#include "core/offline.h"
#include "harness/experiment.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/trace.h"
#include "power/power_model.h"
#include "sim/batch_engine.h"
#include "sim/engine.h"
#include "sim/sampler.h"

namespace paserta {
namespace {

Application random_app(std::uint64_t seed) {
  apps::RandomAppConfig cfg;
  cfg.max_segments = 5;
  cfg.max_section_tasks = 6;
  Rng rng(seed);
  return apps::random_application(rng, cfg, "rnd" + std::to_string(seed));
}

// TaskRecord has padding, so never memcmp — field by field.
void expect_trace_eq(const std::vector<TaskRecord>& a,
                     const std::vector<TaskRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "trace record " << i);
    EXPECT_EQ(a[i].node, b[i].node);
    EXPECT_EQ(a[i].cpu, b[i].cpu);
    EXPECT_EQ(a[i].eo, b[i].eo);
    EXPECT_EQ(a[i].dispatch_time.ps, b[i].dispatch_time.ps);
    EXPECT_EQ(a[i].exec_start.ps, b[i].exec_start.ps);
    EXPECT_EQ(a[i].finish.ps, b[i].finish.ps);
    EXPECT_EQ(a[i].level, b[i].level);
    EXPECT_EQ(a[i].level_before, b[i].level_before);
    EXPECT_EQ(a[i].switched, b[i].switched);
    EXPECT_EQ(a[i].chosen_alt, b[i].chosen_alt);
  }
}

void expect_counters_eq(const SimCounters& a, const SimCounters& b) {
  EXPECT_EQ(a.dispatches, b.dispatches);
  EXPECT_EQ(a.tasks, b.tasks);
  EXPECT_EQ(a.or_fires, b.or_fires);
  EXPECT_EQ(a.speed_changes, b.speed_changes);
  EXPECT_EQ(a.spec_picks, b.spec_picks);
  EXPECT_EQ(a.greedy_picks, b.greedy_picks);
  EXPECT_EQ(a.reclaimed_slack_ps, b.reclaimed_slack_ps);
  EXPECT_EQ(a.levels, b.levels);
  EXPECT_EQ(a.busy_ps, b.busy_ps);
  EXPECT_EQ(a.compute_ps, b.compute_ps);
  EXPECT_EQ(a.transitions, b.transitions);
  EXPECT_EQ(a.idle_ps, b.idle_ps);
}

void expect_stat_eq(const RunningStat& a, const RunningStat& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.variance(), b.variance());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
}

// Everything but the engine counters (the unpooled reference collects
// none).
void expect_stats_eq(const SweepPoint& a, const SweepPoint& b) {
  EXPECT_EQ(a.x, b.x);
  EXPECT_EQ(a.deadline.ps, b.deadline.ps);
  expect_stat_eq(a.npm_energy, b.npm_energy);
  EXPECT_EQ(a.degenerate_runs, b.degenerate_runs);
  ASSERT_EQ(a.stats.size(), b.stats.size());
  for (std::size_t i = 0; i < a.stats.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "scheme " << i);
    EXPECT_EQ(a.stats[i].scheme, b.stats[i].scheme);
    expect_stat_eq(a.stats[i].norm_energy, b.stats[i].norm_energy);
    expect_stat_eq(a.stats[i].speed_changes, b.stats[i].speed_changes);
    expect_stat_eq(a.stats[i].finish_frac, b.stats[i].finish_frac);
    expect_stat_eq(a.stats[i].busy_frac, b.stats[i].busy_frac);
    expect_stat_eq(a.stats[i].overhead_frac, b.stats[i].overhead_frac);
    expect_stat_eq(a.stats[i].idle_frac, b.stats[i].idle_frac);
    EXPECT_EQ(a.stats[i].deadline_misses, b.stats[i].deadline_misses);
    EXPECT_EQ(a.stats[i].verify_failures, b.stats[i].verify_failures);
  }
}

// Engine level: simulate_batch vs the scalar workspace loop on the same
// pre-drawn scenarios, every scheme, with traces, audit and per-lane
// counters on. Any divergence in the lockstep dispatch order, the
// division-free duration math or the ledger fold fails here with the
// exact field named.
TEST(BatchEngine, MatchesScalarEngineOnRandomApps) {
  const PowerModel pm(LevelTable::transmeta_tm5400());
  Overheads ovh;
  constexpr std::size_t kLanes = 17;  // odd: exercises divergence retirement

  for (std::uint64_t app_seed : {1u, 7u, 13u}) {
    const Application app = random_app(app_seed);
    OfflineOptions oo;
    oo.cpus = 2;
    oo.overhead_budget = ovh.worst_case_budget(pm.table());
    const SimTime w = canonical_worst_makespan(app, oo.cpus,
                                               oo.overhead_budget,
                                               oo.heuristic);
    oo.deadline = SimTime{2 * w.ps};  // load 0.5
    const OfflineResult off = analyze_offline(app, oo);

    const ScenarioSampler sampler(app.graph);
    ScenarioBatch batch;
    batch.ensure(kLanes, app.graph.size());
    std::vector<RunScenario> scenarios(kLanes);
    for (std::size_t l = 0; l < kLanes; ++l) {
      // Two draws from identically seeded streams: the slab fill must
      // consume the stream exactly like the per-run draw.
      Rng a(Rng::stream_seed(app_seed, l));
      Rng b(Rng::stream_seed(app_seed, l));
      sampler.draw_into(a, scenarios[l]);
      sampler.draw_into(b, batch, l);
    }

    for (Scheme scheme : {Scheme::NPM, Scheme::SPM, Scheme::GSS, Scheme::SS1,
                          Scheme::SS2, Scheme::AS}) {
      SCOPED_TRACE(testing::Message()
                   << "app seed " << app_seed << " scheme "
                   << static_cast<int>(scheme));
      // Scalar oracle: one policy reset, one workspace, per-run loop.
      auto policy = make_policy(scheme);
      policy->reset(off, pm);
      SimWorkspace sws;
      SimOptions so;
      so.record_trace = true;
      so.audit = true;
      std::vector<SimResult> want(kLanes);
      std::vector<SimCounters> want_cells(kLanes);
      for (std::size_t l = 0; l < kLanes; ++l) {
        so.counters = &want_cells[l];
        want[l] = simulate(app, off, pm, ovh, *policy, scenarios[l], sws, so);
      }

      BatchWorkspace bws;
      BatchSimOptions bo;
      bo.record_trace = true;
      bo.audit = true;
      std::vector<SimCounters> got_cells(kLanes);
      bo.lane_cells = got_cells.data();
      std::vector<SimResult> got(kLanes);
      simulate_batch(app, off, pm, ovh, scheme, PolicyOptions{}, batch,
                     kLanes, bws, got.data(), bo);

      for (std::size_t l = 0; l < kLanes; ++l) {
        SCOPED_TRACE(testing::Message() << "lane " << l);
        EXPECT_EQ(want[l].busy_energy, got[l].busy_energy);
        EXPECT_EQ(want[l].overhead_energy, got[l].overhead_energy);
        EXPECT_EQ(want[l].idle_energy, got[l].idle_energy);
        EXPECT_EQ(want[l].finish_time.ps, got[l].finish_time.ps);
        EXPECT_EQ(want[l].speed_changes, got[l].speed_changes);
        EXPECT_EQ(want[l].dispatched, got[l].dispatched);
        EXPECT_EQ(want[l].deadline_met, got[l].deadline_met);
        expect_trace_eq(want[l].trace, got[l].trace);
        expect_counters_eq(want_cells[l], got_cells[l]);
      }
    }
  }
}

// Harness level: run_point (every chunk on the batched engine) against
// the scalar references — statistics and degenerate counts against
// run_point_unpooled, engine counters against a plain loop of scalar
// simulate calls — at chunk sizes whose lane groups leave odd remainders
// (1, 3, 8, and 50 = one group of 32 plus 18). Audit and metrics stay on,
// so both counter export paths (per-lane cells folded into the slot, and
// the shared slot cell) are covered.
TEST(BatchEngine, RunPointMatchesScalarAcrossBatchSizes) {
  constexpr int kRuns = 50;
  for (std::uint64_t app_seed : {2u, 11u}) {
    const Application app = random_app(app_seed);
    ExperimentConfig cfg;
    cfg.runs = kRuns;
    cfg.seed = 99;
    const SimTime w = canonical_worst_makespan(
        app, cfg.cpus, cfg.overheads.worst_case_budget(cfg.table),
        cfg.heuristic);
    const SimTime deadline{static_cast<std::int64_t>(
        std::ceil(static_cast<double>(w.ps) / 0.5))};
    const SweepPoint ref = run_point_unpooled(app, cfg, deadline, 0.5);

    // Counter reference: every run's scenario through the scalar engine,
    // each scheme's policy (then NPM's) reset before every run.
    const PowerModel pm(cfg.table, cfg.c_ef, cfg.idle_fraction);
    OfflineOptions oo;
    oo.cpus = cfg.cpus;
    oo.deadline = deadline;
    oo.overhead_budget = cfg.overheads.worst_case_budget(cfg.table);
    oo.heuristic = cfg.heuristic;
    const OfflineResult off = analyze_offline(app, oo);
    std::vector<std::unique_ptr<SpeedPolicy>> policies;
    for (Scheme scheme : cfg.schemes)
      policies.push_back(make_policy(scheme, cfg.policy_options));
    policies.push_back(make_policy(Scheme::NPM));
    std::vector<SimCounters> want(policies.size());  // schemes, then NPM
    SimWorkspace ws;
    RunScenario sc;
    SimOptions so;
    so.record_trace = false;
    for (int run = 0; run < kRuns; ++run) {
      Rng rng(Rng::stream_seed(cfg.seed, static_cast<std::uint64_t>(run)));
      draw_scenario(app.graph, rng, sc);
      for (std::size_t s = 0; s < policies.size(); ++s) {
        policies[s]->reset(off, pm);
        so.counters = &want[s];
        (void)simulate(app, off, pm, cfg.overheads, *policies[s], sc, ws, so);
      }
    }

    for (int chunk : {1, 3, 8, kRuns}) {
      SCOPED_TRACE(testing::Message()
                   << "app seed " << app_seed << " chunk_runs " << chunk);
      ExperimentConfig ccfg = cfg;
      ccfg.chunk_runs = chunk;
      ccfg.audit = true;
      ccfg.collect_metrics = true;
      MetricsRegistry reg;
      ccfg.registry = &reg;
      const SweepPoint got = run_point(app, ccfg, deadline, 0.5);
      expect_stats_eq(ref, got);
      ASSERT_EQ(got.metrics.schemes.size() + 1, want.size());
      expect_counters_eq(got.metrics.npm, want.back());
      for (std::size_t s = 0; s < got.metrics.schemes.size(); ++s) {
        SCOPED_TRACE(testing::Message() << "scheme counters " << s);
        expect_counters_eq(got.metrics.schemes[s], want[s]);
      }
    }
  }
}

// verify_traces and an attached tracer run on the batched engine like
// every other configuration: the independent verifier and the per-call
// spans observe the engine production runs, not a scalar stand-in.
TEST(BatchEngine, VerifyAndRunTracingRunOnBatchedEngine) {
  const Application app = random_app(5);
  ExperimentConfig cfg;
  cfg.runs = 40;
  cfg.chunk_runs = 40;  // one chunk: lane groups of 32 and 8 runs
  const SimTime w = canonical_worst_makespan(
      app, cfg.cpus, cfg.overheads.worst_case_budget(cfg.table),
      cfg.heuristic);
  const SimTime deadline{2 * w.ps};

  const auto drain_calls = [](const Profiler& prof) {
    std::uint64_t calls = 0;
    for (const ProfPhaseTotals& p : prof.snapshot())
      if (p.name == "batch.drain") calls = p.count;
    return calls;
  };

  Profiler verify_prof(Profiler::Mode::kFallback);
  ExperimentConfig vcfg = cfg;
  vcfg.verify_traces = true;
  vcfg.prof = &verify_prof;
  const SweepPoint verified = run_point(app, vcfg, deadline, 0.5);
  EXPECT_GT(drain_calls(verify_prof), 0u);
  for (const SchemeStats& st : verified.stats)
    EXPECT_EQ(st.verify_failures, 0u) << to_string(st.scheme);

  Tracer tracer;
  Profiler trace_prof(Profiler::Mode::kFallback, &tracer);
  ExperimentConfig tcfg = cfg;
  tcfg.prof = &trace_prof;
  const SweepPoint traced = run_point(app, tcfg, deadline, 0.5);
  EXPECT_GT(drain_calls(trace_prof), 0u);
  for (const SchemeStats& st : traced.stats)
    EXPECT_EQ(st.verify_failures, 0u) << to_string(st.scheme);
  // One span per simulate_batch call: the NPM baseline and each scheme
  // once per lane group.
  std::size_t gss_spans = 0;
  for (const TraceEvent& ev : tracer.events())
    if (std::string(ev.name) == "GSS") ++gss_spans;
  EXPECT_EQ(gss_spans, 2u);
}

}  // namespace
}  // namespace paserta
