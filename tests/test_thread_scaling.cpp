// Thread-scaling bit-identity suite: the contract the parallel-path
// restructure (per-slot staging buffers, per-slot sampler clones, batched
// chunk claiming — DESIGN.md §13) must preserve is that the rendered
// figure output is *byte-identical* to the unpooled single-thread
// reference at every thread count and chunk size, with audit and
// observability enabled. The full fig4a load sweep is rendered to CSV per
// configuration and compared as strings, so any reordering, dropped run,
// staging-merge mistake or float-accumulation change fails loudly. The
// suite carries the pool_smoke ctest label, so the pooled portion also
// runs under ThreadSanitizer in CI (cmake -DPASERTA_SANITIZE=thread;
// ctest -L pool_smoke).
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "core/offline.h"
#include "harness/experiment.h"
#include "harness/figures.h"
#include "harness/report.h"
#include "obs/metrics.h"
#include "sim/scenario.h"

namespace paserta {
namespace {

// Small enough to keep the 9-configuration sweeps (and their TSan run) fast,
// large enough that every chunk-size regime below is distinct: chunk=1
// makes one chunk per run, chunk=kRuns one chunk per point, and the
// default auto size lands in between.
constexpr int kRuns = 40;

std::string render_csv(const FigureDef& fig,
                       const std::vector<SweepPoint>& points) {
  std::ostringstream os;
  print_figure(os, fig.id, fig.caption, points, fig.x_name);
  return os.str();
}

// Unpooled reference: the pre-pool execution model (fresh strided
// std::thread set, fresh offline analysis, legacy per-run draw_scenario
// walk), serial, with observability and audit off. Everything the pooled
// path layers on top — persistent pool, chunk claiming, staging merge,
// offline cache, compiled samplers, the batched engine, audit, metrics —
// must be unobservable against this.
std::string unpooled_reference_csv(const FigureDef& fig,
                                   const Application& app) {
  ExperimentConfig ref_cfg = fig.config;
  ref_cfg.threads = 1;
  const SimTime w = canonical_worst_makespan(
      app, ref_cfg.cpus, ref_cfg.overheads.worst_case_budget(ref_cfg.table),
      ref_cfg.heuristic);
  std::vector<SweepPoint> ref_points;
  for (double load : fig.xs) {
    const SimTime deadline{static_cast<std::int64_t>(
        std::ceil(static_cast<double>(w.ps) / load))};
    ref_points.push_back(run_point_unpooled(app, ref_cfg, deadline, load));
  }
  return render_csv(fig, ref_points);
}

TEST(ThreadScalingBitIdentity, Fig4aSweepMatchesUnpooledReference) {
  const FigureDef fig = paper_figure("fig4a", kRuns);
  const Application app = figure_workload(fig);
  const std::string ref_csv = unpooled_reference_csv(fig, app);
  ASSERT_FALSE(ref_csv.empty());

  for (int threads : {1, 2, 4}) {
    for (int chunk : {0, 1, kRuns}) {
      ExperimentConfig cfg = fig.config;
      cfg.threads = threads;
      cfg.chunk_runs = chunk;
      // Audit re-accounts every run three ways and metrics route through
      // the chunk stages' counter cells; both must stay write-only for the
      // simulation at every thread count.
      cfg.audit = true;
      cfg.collect_metrics = true;
      MetricsRegistry reg;  // scoped: one run's totals
      cfg.registry = &reg;
      const std::string csv = render_csv(fig, sweep_load(app, cfg, fig.xs));
      SCOPED_TRACE(testing::Message()
                   << "threads=" << threads << " chunk_runs=" << chunk);
      EXPECT_EQ(csv, ref_csv);
    }
  }
}

// The batched engine (sim/batch_engine.h) under the same contract: the
// rendered fig4a sweep must stay byte-identical to the unpooled reference
// at every (thread count x lane-group size), with audit and metrics on.
// A chunk's runs are simulated in lane groups of min(32, runs left), so
// chunk_runs sets the group sizes: 3 gives 3-lane groups and a 1-lane
// tail chunk (40 = 13 x 3 + 1), 8 gives five full 8-lane groups, and 32
// one full-width group followed by an 8-lane chunk.
TEST(ThreadScalingBitIdentity, Fig4aSweepIdenticalAcrossBatchSizes) {
  const FigureDef fig = paper_figure("fig4a", kRuns);
  const Application app = figure_workload(fig);
  const std::string ref_csv = unpooled_reference_csv(fig, app);
  ASSERT_FALSE(ref_csv.empty());

  for (int threads : {1, 2, 4}) {
    for (int chunk : {3, 8, 32}) {
      ExperimentConfig cfg = fig.config;
      cfg.threads = threads;
      cfg.chunk_runs = chunk;
      cfg.audit = true;
      cfg.collect_metrics = true;
      MetricsRegistry reg;
      cfg.registry = &reg;
      const std::string csv = render_csv(fig, sweep_load(app, cfg, fig.xs));
      SCOPED_TRACE(testing::Message()
                   << "threads=" << threads << " chunk_runs=" << chunk);
      EXPECT_EQ(csv, ref_csv);
    }
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

// Scenario-dedup memoization (DESIGN.md §15) under the same contract, in
// the regime the cache exists for: the fig4a ATR graph at alpha = 1, where
// ACET = WCET leaves the OR forks as the only randomness and the scenario
// space collapses to a handful of outcomes (most runs replay a cached
// record). The rendered sweep CSV and the per-point engine-counter totals
// (including the integer attribution ledger) must be byte-identical with
// dedup forced on vs. forced off, at every thread count.
TEST(ThreadScalingBitIdentity, DedupOnMatchesOffOnDiscreteWorkload) {
  const FigureDef fig = paper_figure("fig4a", kRuns);
  Application app = figure_workload(fig);
  assign_alpha(app.graph, 1.0);  // ACET = WCET: discrete scenario space

  // Reference: dedup forced off, serial, metrics on.
  ExperimentConfig ref_cfg = fig.config;
  ref_cfg.threads = 1;
  ref_cfg.dedup = DedupMode::kOff;
  ref_cfg.collect_metrics = true;
  MetricsRegistry ref_reg;
  ref_cfg.registry = &ref_reg;
  const std::vector<SweepPoint> ref_points =
      sweep_load(app, ref_cfg, fig.xs);
  const std::string ref_csv = render_csv(fig, ref_points);
  ASSERT_FALSE(ref_csv.empty());
  for (const SweepPoint& pt : ref_points) EXPECT_FALSE(pt.dedup.enabled);

  for (int threads : {1, 2, 4}) {
    ExperimentConfig cfg = fig.config;
    cfg.threads = threads;
    cfg.dedup = DedupMode::kOn;
    cfg.collect_metrics = true;
    MetricsRegistry reg;
    cfg.registry = &reg;
    const std::vector<SweepPoint> points = sweep_load(app, cfg, fig.xs);
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    EXPECT_EQ(render_csv(fig, points), ref_csv);
    ASSERT_EQ(points.size(), ref_points.size());
    for (std::size_t p = 0; p < points.size(); ++p) {
      SCOPED_TRACE(testing::Message() << "point=" << p);
      // The dedup layer actually engaged and accounted for every run.
      EXPECT_TRUE(points[p].dedup.enabled);
      EXPECT_EQ(points[p].dedup.hits + points[p].dedup.misses,
                static_cast<std::uint64_t>(kRuns));
      EXPECT_GT(points[p].dedup.hits, 0u);
      // Engine-counter totals (with attribution ledgers) are bitwise
      // equal to the uncached reference.
      const PointMetrics& m = points[p].metrics;
      const PointMetrics& rm = ref_points[p].metrics;
      ASSERT_EQ(m.schemes.size(), rm.schemes.size());
      for (std::size_t s = 0; s < m.schemes.size(); ++s)
        expect_counters_eq(m.schemes[s], rm.schemes[s]);
      expect_counters_eq(m.npm, rm.npm);
    }
  }
}

// Configurations whose purpose is per-run engine work (audit's three-way
// re-accounting, verify_traces) must force the uncached path even when
// dedup is requested — a replayed run performs no engine work to audit.
TEST(ThreadScalingBitIdentity, AuditAndVerifyForceDedupOff) {
  ExperimentConfig cfg;
  cfg.runs = 100;
  cfg.dedup = DedupMode::kOn;
  EXPECT_TRUE(resolved_dedup(cfg, 4));
  cfg.audit = true;
  EXPECT_FALSE(resolved_dedup(cfg, 4));
  cfg.audit = false;
  cfg.verify_traces = true;
  EXPECT_FALSE(resolved_dedup(cfg, 4));
  cfg.verify_traces = false;

  // And end-to-end: an audited sweep with dedup requested reports the
  // layer as disabled while the output stays identical to the reference.
  const FigureDef fig = paper_figure("fig4a", kRuns);
  Application app = figure_workload(fig);
  assign_alpha(app.graph, 1.0);
  ExperimentConfig ref_cfg = fig.config;
  ref_cfg.threads = 1;
  ref_cfg.dedup = DedupMode::kOff;
  const std::string ref_csv =
      render_csv(fig, sweep_load(app, ref_cfg, fig.xs));
  ExperimentConfig audit_cfg = fig.config;
  audit_cfg.threads = 2;
  audit_cfg.dedup = DedupMode::kOn;
  audit_cfg.audit = true;
  const std::vector<SweepPoint> points = sweep_load(app, audit_cfg, fig.xs);
  for (const SweepPoint& pt : points) {
    EXPECT_FALSE(pt.dedup.enabled);
    EXPECT_EQ(pt.dedup.hits, 0u);
  }
  EXPECT_EQ(render_csv(fig, points), ref_csv);
}

}  // namespace
}  // namespace paserta
