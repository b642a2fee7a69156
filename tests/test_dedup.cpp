// Scenario-dedup memoization suite (DESIGN.md §15).
//
// Layers under test, bottom-up: the FingerprintTable (dense interning,
// growth, full-key comparison under adversarial hash collisions), the
// sampler's key-emitting draws (equal keys iff bit-identical scenarios)
// and scenario_space(), the dedup resolution rule (resolved_dedup), and —
// the point of it all — randomized bitwise cross-validation: on random
// AND/OR applications, in both the discrete (high-hit-rate) and the
// continuous (all-miss) regime, a dedup-on evaluation must produce
// byte-identical rendered output and bitwise-equal counter totals to
// dedup-off at every thread count. Carries the batch_identity and the
// dedup_identity labels (TSan CI).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "apps/random_app.h"
#include "common/rng.h"
#include "core/offline.h"
#include "harness/experiment.h"
#include "harness/json.h"
#include "obs/metrics.h"
#include "sim/fingerprint.h"
#include "sim/sampler.h"
#include "sim/scenario.h"

namespace paserta {
namespace {

// ---- FingerprintTable ---------------------------------------------------

TEST(FingerprintTable, InternsDenseIdsInFirstEncounterOrder) {
  FingerprintTable table(2);
  bool inserted = false;
  const std::uint64_t a[] = {1, 2};
  const std::uint64_t b[] = {3, 4};
  EXPECT_EQ(table.intern(a, inserted), 0u);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(table.intern(b, inserted), 1u);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(table.intern(a, inserted), 0u);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.find(b), 1u);
  const std::uint64_t c[] = {1, 3};  // shares a word with `a`, distinct key
  EXPECT_EQ(table.find(c), FingerprintTable::kNotFound);
  // Stored keys are readable back, id-major.
  EXPECT_EQ(table.key(0)[0], 1u);
  EXPECT_EQ(table.key(1)[1], 4u);
}

TEST(FingerprintTable, GrowsPastInitialCapacityWithoutLosingKeys) {
  FingerprintTable table(1);
  bool inserted = false;
  constexpr std::uint64_t kKeys = 10000;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    const std::uint64_t key = k * 0x9E3779B97F4A7C15ULL + 7;
    ASSERT_EQ(table.intern(&key, inserted), k);
    ASSERT_TRUE(inserted);
  }
  EXPECT_EQ(table.size(), kKeys);
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    const std::uint64_t key = k * 0x9E3779B97F4A7C15ULL + 7;
    ASSERT_EQ(table.find(&key), k);
    ASSERT_EQ(table.intern(&key, inserted), k);
    ASSERT_FALSE(inserted);
  }
  EXPECT_GT(table.bytes(), kKeys * sizeof(std::uint64_t));
}

TEST(FingerprintTable, ZeroWordKeysCollapseToOneId) {
  // A deterministic workload has no stochastic ops: every run's (empty)
  // fingerprint is the same scenario.
  FingerprintTable table(0);
  bool inserted = false;
  EXPECT_EQ(table.intern(nullptr, inserted), 0u);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(table.intern(nullptr, inserted), 0u);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(table.size(), 1u);
}

TEST(FingerprintTable, CollidingHashesFallBackToFullKeyComparison) {
  // Adversarial hash: every key collides. Correctness may not depend on
  // hash quality — distinct keys must still intern to distinct ids, and
  // lookups must land on the right one via the full-key memcmp.
  const auto constant_hash = [](const std::uint64_t*, std::size_t)
      -> std::uint64_t { return 42; };
  FingerprintTable table(3, constant_hash);
  bool inserted = false;
  constexpr std::uint64_t kKeys = 500;  // forces growth while colliding
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    const std::uint64_t key[] = {k, ~k, k ^ 0xABCDEF};
    ASSERT_EQ(table.intern(key, inserted), k);
    ASSERT_TRUE(inserted);
  }
  EXPECT_EQ(table.size(), kKeys);
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    const std::uint64_t key[] = {k, ~k, k ^ 0xABCDEF};
    ASSERT_EQ(table.find(key), k);
  }
  // A near-miss key (equal hash, equal first words, one differing word)
  // must not alias an existing entry.
  const std::uint64_t near[] = {0, ~std::uint64_t{0}, 0xABCDEE};
  EXPECT_EQ(table.find(near), FingerprintTable::kNotFound);
  EXPECT_EQ(table.intern(near, inserted), kKeys);
  EXPECT_TRUE(inserted);
}

// ---- Sampler fingerprints ----------------------------------------------

TEST(ScenarioFingerprint, EqualKeysMeanBitIdenticalScenarios) {
  Rng gen(2026);
  apps::RandomAppConfig rcfg;
  const Application app = apps::random_application(gen, rcfg, "keys");
  const ScenarioSampler sampler(app.graph);
  ASSERT_GT(sampler.op_count(), 0u);

  std::vector<std::uint64_t> key_a(sampler.op_count());
  std::vector<std::uint64_t> key_b(sampler.op_count());
  RunScenario sc_a, sc_b, sc_plain;

  // Same stream -> same key, same scenario; the key-emitting draw must
  // also consume exactly the same randomness as the plain draw.
  for (std::uint64_t run = 0; run < 16; ++run) {
    Rng r1(Rng::stream_seed(99, run));
    Rng r2(Rng::stream_seed(99, run));
    sampler.draw_into(r1, sc_a, key_a.data());
    sampler.draw_into(r2, sc_plain);
    EXPECT_EQ(sc_a.actual, sc_plain.actual);
    EXPECT_EQ(sc_a.or_choice, sc_plain.or_choice);

    Rng r3(Rng::stream_seed(99, run));
    sampler.draw_into(r3, sc_b, key_b.data());
    EXPECT_EQ(key_a, key_b);
    // Distinct runs draw gaussians here, so keys (and scenarios) differ.
    if (run > 0) {
      Rng r0(Rng::stream_seed(99, 0));
      sampler.draw_into(r0, sc_b, key_b.data());
      EXPECT_NE(key_a, key_b);
      EXPECT_NE(sc_a.actual, sc_b.actual);
    }
  }
}

TEST(ScenarioFingerprint, ScenarioSpaceCountsForkOutcomesOnly) {
  Rng gen(7);
  apps::RandomAppConfig rcfg;
  // Continuous regime: gaussian ACET draws -> unbounded space.
  const Application cont = apps::random_application(gen, rcfg, "cont");
  EXPECT_EQ(ScenarioSampler(cont.graph).scenario_space(), 0u);

  // Discrete regime: ACET = WCET kills every gaussian op; the space is
  // the product of fork alternative counts.
  Application disc = cont;
  assign_alpha(disc.graph, 1.0);
  const ScenarioSampler sampler(disc.graph);
  EXPECT_EQ(sampler.gaussian_count(), 0u);
  std::uint64_t expected = 1;
  for (const Node& node : disc.graph.nodes())
    if (node.is_or_fork()) expected *= node.succs.size();
  EXPECT_EQ(sampler.scenario_space(), expected);
  EXPECT_GE(expected, 1u);
}

TEST(ScenarioFingerprint, ResolvedDedupFollowsModeAndSpace) {
  ExperimentConfig cfg;
  cfg.runs = 100;

  cfg.dedup = DedupMode::kAuto;
  EXPECT_FALSE(resolved_dedup(cfg, 0));    // unbounded space
  EXPECT_TRUE(resolved_dedup(cfg, 1));     // deterministic
  EXPECT_TRUE(resolved_dedup(cfg, 100));   // space == runs
  EXPECT_FALSE(resolved_dedup(cfg, 101));  // more scenarios than runs

  cfg.dedup = DedupMode::kOn;
  EXPECT_TRUE(resolved_dedup(cfg, 0));  // forced, even unbounded
  cfg.dedup = DedupMode::kOff;
  EXPECT_FALSE(resolved_dedup(cfg, 1));

  // Per-run engine work forces the uncached path in every mode.
  cfg.dedup = DedupMode::kOn;
  cfg.verify_traces = true;
  EXPECT_FALSE(resolved_dedup(cfg, 1));
  cfg.verify_traces = false;
  cfg.audit = true;
  EXPECT_FALSE(resolved_dedup(cfg, 1));
}

// ---- Randomized bitwise cross-validation --------------------------------

struct EvalResult {
  std::string json;       // rendered sweep point (all stats, all schemes)
  PointMetrics metrics;   // engine-counter totals incl. attribution ledger
  DedupStats dedup;
};

EvalResult evaluate(const Application& app, ExperimentConfig cfg,
                    SimTime deadline, DedupMode mode, int threads) {
  cfg.dedup = mode;
  cfg.threads = threads;
  cfg.collect_metrics = true;
  MetricsRegistry reg;
  cfg.registry = &reg;
  std::vector<SweepPoint> points;
  points.push_back(run_point(app, cfg, deadline, 0.5));
  EvalResult r;
  JsonExportOptions jopt;
  jopt.experiment_id = "dedup-crosscheck";
  r.json = sweep_to_json(points, jopt);
  r.metrics = points.front().metrics;
  r.dedup = points.front().dedup;
  return r;
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

void cross_validate(const Application& app, std::uint64_t seed,
                    bool expect_hits) {
  ExperimentConfig cfg;
  cfg.runs = 60;
  cfg.seed = seed;
  const SimTime w = canonical_worst_makespan(
      app, cfg.cpus, cfg.overheads.worst_case_budget(cfg.table),
      cfg.heuristic);
  ASSERT_GT(w.ps, 0);
  const SimTime deadline{w.ps * 2};

  const EvalResult ref =
      evaluate(app, cfg, deadline, DedupMode::kOff, 1);
  EXPECT_FALSE(ref.dedup.enabled);

  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    const EvalResult on =
        evaluate(app, cfg, deadline, DedupMode::kOn, threads);
    EXPECT_EQ(on.json, ref.json);
    ASSERT_EQ(on.metrics.schemes.size(), ref.metrics.schemes.size());
    for (std::size_t s = 0; s < on.metrics.schemes.size(); ++s)
      expect_counters_eq(on.metrics.schemes[s], ref.metrics.schemes[s]);
    expect_counters_eq(on.metrics.npm, ref.metrics.npm);
    EXPECT_TRUE(on.dedup.enabled);
    EXPECT_EQ(on.dedup.hits + on.dedup.misses,
              static_cast<std::uint64_t>(cfg.runs));
    if (expect_hits) {
      EXPECT_GT(on.dedup.hits, 0u);
    }
  }
}

TEST(DedupCrossValidation, DiscreteRandomAppsReplayBitIdentically) {
  // ACET = WCET: OR forks are the only randomness, so scenarios repeat
  // and the replay path carries most runs.
  for (std::uint64_t seed : {11u, 22u, 33u}) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    Rng gen(seed);
    apps::RandomAppConfig rcfg;
    Application app = apps::random_application(gen, rcfg, "disc");
    assign_alpha(app.graph, 1.0);
    cross_validate(app, /*seed=*/seed * 1000 + 1, /*expect_hits=*/true);
  }
}

TEST(DedupCrossValidation, ContinuousRandomAppsSurviveForcedDedup) {
  // Gaussian ACET draws: virtually every scenario is distinct, so forcing
  // dedup on exercises the all-miss bookkeeping (auto would decline).
  for (std::uint64_t seed : {5u, 17u}) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    Rng gen(seed);
    apps::RandomAppConfig rcfg;
    const Application app = apps::random_application(gen, rcfg, "cont");
    cross_validate(app, /*seed=*/seed * 1000 + 2, /*expect_hits=*/false);
  }
}

}  // namespace
}  // namespace paserta
