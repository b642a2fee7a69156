// Tests for the persistent worker pool (harness/pool.h) and the pooled
// sweep executor built on it: chunk coverage, exception propagation, the
// executor's point-interleaved chunk order, and — the contract the
// paper's figures depend on — bit-identical SweepPoints for every thread
// count and chunk size. The determinism tests carry the `pool_smoke`
// ctest label so they can be run standalone under TSan (cmake
// -DPASERTA_SANITIZE=thread; ctest -L pool_smoke).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "apps/synthetic.h"
#include "common/error.h"
#include "core/offline.h"
#include "harness/experiment.h"
#include "harness/figures.h"
#include "harness/json.h"
#include "harness/pool.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/trace.h"

namespace paserta {
namespace {

TEST(WorkerPool, EveryChunkExactlyOnce) {
  WorkerPool pool(3);
  EXPECT_EQ(pool.thread_count(), 3);
  std::vector<std::atomic<int>> counts(257);
  pool.parallel_chunks(257, 4, [&](int chunk, int slot) {
    ASSERT_GE(chunk, 0);
    ASSERT_LT(chunk, 257);
    ASSERT_GE(slot, 0);
    ASSERT_LT(slot, 4);
    counts[static_cast<std::size_t>(chunk)]++;
  });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(WorkerPool, ReusableAcrossCallsAndWorkerCounts) {
  WorkerPool pool(2);
  for (int max_workers : {1, 2, 5}) {
    std::atomic<int> sum{0};
    pool.parallel_chunks(40, max_workers,
                         [&](int chunk, int) { sum += chunk; });
    EXPECT_EQ(sum.load(), 40 * 39 / 2);
  }
}

TEST(WorkerPool, BatchedClaimsCoverEveryChunkOnce) {
  WorkerPool pool(3);
  // Coverage must be exact for any claim batch, including batches larger
  // than the chunk space and batches that do not divide it.
  for (int batch : {1, 2, 5, 64, 1000}) {
    SCOPED_TRACE(testing::Message() << "claim_batch=" << batch);
    std::vector<std::atomic<int>> counts(257);
    pool.parallel_chunks(
        257, 4,
        [&](int chunk, int slot) {
          ASSERT_GE(chunk, 0);
          ASSERT_LT(chunk, 257);
          ASSERT_GE(slot, 0);
          ASSERT_LT(slot, 4);
          counts[static_cast<std::size_t>(chunk)]++;
        },
        /*telemetry=*/nullptr, batch);
    for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
  }
}

TEST(WorkerPool, NonPositiveClaimBatchRejected) {
  WorkerPool pool(1);
  for (int batch : {0, -3}) {
    EXPECT_THROW(
        pool.parallel_chunks(4, 2, [](int, int) {}, nullptr, batch), Error);
  }
}

TEST(WorkerPool, ZeroThreadsRunsInline) {
  WorkerPool pool(0);
  // With no background workers every chunk runs on the caller, slot 0, in
  // increasing order.
  std::vector<int> order;
  pool.parallel_chunks(5, 8, [&](int chunk, int slot) {
    EXPECT_EQ(slot, 0);
    order.push_back(chunk);
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(WorkerPool, ZeroChunksIsANoop) {
  WorkerPool pool(1);
  pool.parallel_chunks(0, 4, [&](int, int) { FAIL() << "no chunks to run"; });
}

TEST(WorkerPool, BodyExceptionPropagatesToCaller) {
  WorkerPool pool(3);
  std::atomic<int> executed{0};
  // Every non-throwing body does a fixed 50 us of work, so the job (at
  // least 12 ms on 4 workers) outlasts the abort latency (microseconds) by
  // orders of magnitude. With trivial bodies the helpers could run all
  // 1000 before the throwing chunk's catch set the abort flag.
  const auto body = [&](int chunk, int) {
    ++executed;
    if (chunk == 7) throw Error("boom in chunk 7");
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::microseconds(50);
    while (std::chrono::steady_clock::now() < until) {
    }
  };
  EXPECT_THROW(pool.parallel_chunks(1000, 4, body), Error);
  // The abort flag stops remaining chunks: far fewer than 1000 ran.
  EXPECT_LT(executed.load(), 1000);
  // The pool survives and is usable afterwards.
  std::atomic<int> after{0};
  pool.parallel_chunks(10, 4, [&](int, int) { ++after; });
  EXPECT_EQ(after.load(), 10);
}

TEST(WorkerPool, TaskRunsOnItsWorkersSlot) {
  // A task runs on a background worker and sees that worker's fixed slot,
  // which is also its participant slot; each slot belongs to one thread.
  WorkerPool pool(3);
  constexpr int kTasks = 24;
  std::vector<std::promise<std::pair<int, std::thread::id>>> got(kTasks);
  for (int t = 0; t < kTasks; ++t) {
    pool.submit([&got, t](int slot) {
      EXPECT_EQ(WorkerPool::participant_slot(), slot);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      got[static_cast<std::size_t>(t)].set_value(
          {slot, std::this_thread::get_id()});
    });
  }
  std::map<int, std::thread::id> owner;
  for (auto& p : got) {
    const auto [slot, id] = p.get_future().get();
    EXPECT_GE(slot, 1);
    EXPECT_LE(slot, 3);
    EXPECT_NE(id, std::this_thread::get_id());
    const auto [it, inserted] = owner.emplace(slot, id);
    EXPECT_EQ(it->second, id) << "slot " << slot << " on two threads";
  }
  EXPECT_EQ(WorkerPool::participant_slot(), 0);  // not a pool thread
}

TEST(WorkerPool, LoopsInsideTasksRunInlineAndTasksDrain) {
  std::atomic<int> finished{0};
  {
    WorkerPool pool(2);
    std::vector<std::promise<void>> looped(6);
    for (std::size_t t = 0; t < looped.size(); ++t) {
      pool.submit([&, t](int) {
        // A loop started inside a task runs inline on local slot 0, in
        // chunk order.
        std::vector<int> order;
        pool.parallel_chunks(5, 4, [&](int chunk, int local) {
          EXPECT_EQ(local, 0);
          order.push_back(chunk);
        });
        EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
        looped[t].set_value();
      });
    }
    for (auto& p : looped) p.get_future().get();
    // Tasks still queued when the pool is destroyed run before it returns.
    for (int t = 0; t < 8; ++t)
      pool.submit([&](int) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        ++finished;
      });
  }
  EXPECT_EQ(finished.load(), 8);
}

TEST(WorkerPool, NestedCallDegradesToInline) {
  WorkerPool pool(2);
  std::atomic<int> inner_total{0};
  pool.parallel_chunks(4, 2, [&](int, int) {
    // A body starting its own loop must not deadlock; it runs inline.
    pool.parallel_chunks(3, 2, [&](int, int) { ++inner_total; });
  });
  EXPECT_EQ(inner_total.load(), 12);
}

// ---------------------------------------------------------------------------
// Telemetry invariants: the serial and pooled paths must attribute time the
// same way — chunks counted per completed body, busy = time inside bodies,
// idle = everything else in the claim loop (including the serial stand-in
// for claims) — so per-slot busy/idle fractions are comparable between
// modes.

struct TelemetryFixture {
  MetricsRegistry reg;
  PoolTelemetry tel;
  TelemetryFixture() {
    tel.chunks = &reg.counter("t.chunks");
    tel.busy_ns = &reg.counter("t.busy_ns");
    tel.idle_ns = &reg.counter("t.idle_ns");
  }
  std::uint64_t total(const std::string& name) {
    for (const auto& row : reg.snapshot().counters)
      if (row.name == name) return row.value;
    return 0;
  }
};

TEST(PoolTelemetryInvariants, SerialAndPooledAccountAlike) {
  constexpr int kChunks = 96;
  const auto body = [](int, int) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  };

  TelemetryFixture serial;
  WorkerPool::serial_chunks(kChunks, body, &serial.tel);

  TelemetryFixture pooled;
  WorkerPool pool(3);
  pool.parallel_chunks(kChunks, 4, body, &pooled.tel);

  for (TelemetryFixture* f : {&serial, &pooled}) {
    // Every chunk counted exactly once, and the sleeps dominate busy time.
    EXPECT_EQ(f->total("t.chunks"), static_cast<std::uint64_t>(kChunks));
    EXPECT_GE(f->total("t.busy_ns"), kChunks * 150000ull);
    // The claim loop is timed on BOTH paths: even the serial loop's
    // inter-body stretches must land in idle, not vanish (the historical
    // untimed-claim shortcut made serial busy fractions incomparable).
    EXPECT_GT(f->total("t.idle_ns"), 0ull);
  }

  // Busy/idle split the loop's wall time exactly; neither can exceed the
  // sum of all participants' loop residency. Serial has one participant.
  const std::uint64_t serial_total =
      serial.total("t.busy_ns") + serial.total("t.idle_ns");
  EXPECT_GE(serial_total, kChunks * 150000ull);
}

TEST(WorkerPool, EnsureThreadsGrows) {
  WorkerPool pool(1);
  pool.ensure_threads(3);
  EXPECT_EQ(pool.thread_count(), 3);
  pool.ensure_threads(2);  // never shrinks
  EXPECT_EQ(pool.thread_count(), 3);
}

// ---------------------------------------------------------------------------
// Executor determinism: the SweepPoint outputs must be bit-identical to the
// serial run for every thread count, chunk size and point-parallel mode.

ExperimentConfig config(int runs, int threads) {
  ExperimentConfig cfg;
  cfg.cpus = 2;
  cfg.table = LevelTable::intel_xscale();
  cfg.runs = runs;
  cfg.threads = threads;
  cfg.seed = 20260806;
  return cfg;
}

void expect_stat_identical(const RunningStat& a, const RunningStat& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_DOUBLE_EQ(a.mean(), b.mean());
  EXPECT_DOUBLE_EQ(a.variance(), b.variance());
  EXPECT_DOUBLE_EQ(a.min(), b.min());
  EXPECT_DOUBLE_EQ(a.max(), b.max());
}

void expect_point_identical(const SweepPoint& a, const SweepPoint& b) {
  EXPECT_DOUBLE_EQ(a.x, b.x);
  EXPECT_EQ(a.deadline, b.deadline);
  EXPECT_EQ(a.worst_makespan, b.worst_makespan);
  EXPECT_EQ(a.degenerate_runs, b.degenerate_runs);
  expect_stat_identical(a.npm_energy, b.npm_energy);
  ASSERT_EQ(a.stats.size(), b.stats.size());
  for (std::size_t s = 0; s < a.stats.size(); ++s) {
    EXPECT_EQ(a.stats[s].scheme, b.stats[s].scheme);
    expect_stat_identical(a.stats[s].norm_energy, b.stats[s].norm_energy);
    expect_stat_identical(a.stats[s].speed_changes, b.stats[s].speed_changes);
    expect_stat_identical(a.stats[s].finish_frac, b.stats[s].finish_frac);
    expect_stat_identical(a.stats[s].busy_frac, b.stats[s].busy_frac);
    expect_stat_identical(a.stats[s].overhead_frac,
                          b.stats[s].overhead_frac);
    expect_stat_identical(a.stats[s].idle_frac, b.stats[s].idle_frac);
    EXPECT_EQ(a.stats[s].deadline_misses, b.stats[s].deadline_misses);
    EXPECT_EQ(a.stats[s].verify_failures, b.stats[s].verify_failures);
  }
}

void expect_sweep_identical(const std::vector<SweepPoint>& a,
                            const std::vector<SweepPoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    expect_point_identical(a[i], b[i]);
}

TEST(PoolDeterminism, SweepInvariantAcrossThreadsChunksPointModes) {
  const Application app = apps::build_synthetic();
  const std::vector<double> loads = {0.3, 0.5, 0.9};

  const std::vector<SweepPoint> baseline =
      sweep_load(app, config(30, 1), loads);

  for (int threads : {1, 2, 5}) {
    for (int chunk : {0, 1, 7, 64}) {
      ExperimentConfig cfg = config(30, threads);
      cfg.chunk_runs = chunk;
      const std::vector<SweepPoint> sweep = sweep_load(app, cfg, loads);
      SCOPED_TRACE(testing::Message()
                   << "threads=" << threads << " chunk=" << chunk);
      expect_sweep_identical(baseline, sweep);
    }
  }
}

TEST(PoolDeterminism, SweepClaimsChunksPointInterleaved) {
  // Flat chunk c of a P-point call is chunk c / P of point c % P, so one
  // thread evaluates every point's first chunk before any point's second.
  // A chunk of 8 runs is one lane group, whose NPM harness.simulate span
  // carries (point, first run); the gaussian ATR graph does not dedup, so
  // every group has a first run.
  const FigureDef fig = paper_figure("fig4a", 40);
  const Application app = figure_workload(fig);
  const std::vector<double> loads = {0.3, 0.6, 0.9};
  ExperimentConfig cfg = fig.config;
  cfg.chunk_runs = 8;
  Tracer tracer;
  Profiler prof(Profiler::Mode::kFallback, &tracer);
  cfg.prof = &prof;
  const std::vector<SweepPoint> serial = sweep_load(app, cfg, loads);

  std::vector<std::pair<std::int64_t, std::int64_t>> spans;
  for (const TraceEvent& ev : tracer.events()) {
    if (std::string_view(ev.cat) == "harness.simulate" &&
        std::string_view(ev.name) == "NPM")
      spans.emplace_back(ev.point, ev.run);
  }
  std::vector<std::pair<std::int64_t, std::int64_t>> want;
  for (std::int64_t run = 0; run < 40; run += 8)
    for (std::int64_t p = 0; p < 3; ++p) want.emplace_back(p, run);
  EXPECT_EQ(spans, want);

  cfg.prof = nullptr;
  cfg.threads = 4;
  JsonExportOptions jopt;
  jopt.x_name = "load";
  EXPECT_EQ(sweep_to_json(sweep_load(app, cfg, loads), jopt),
            sweep_to_json(serial, jopt));
}

TEST(PoolDeterminism, PooledMatchesUnpooledRunPoint) {
  const Application app = apps::build_synthetic();
  const SimTime d = SimTime::from_ms(120);
  for (int threads : {1, 3}) {
    const SweepPoint legacy =
        run_point_unpooled(app, config(40, threads), d, 0.0);
    const SweepPoint pooled = run_point(app, config(40, threads), d, 0.0);
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    expect_point_identical(legacy, pooled);
  }
}

TEST(PoolDeterminism, LoadSweepRunsExactlyOneCanonicalAnalysis) {
  const Application app = apps::build_synthetic();
  const std::vector<double> loads = sweep_range(0.1, 1.0, 0.1);
  ASSERT_EQ(loads.size(), 10u);

  const ExperimentConfig cfg = config(5, 2);
  const std::uint64_t before = canonical_analysis_count();
  const std::vector<SweepPoint> sweep = sweep_load(app, cfg, loads);
  EXPECT_EQ(sweep.size(), 10u);
  EXPECT_EQ(canonical_analysis_count() - before, 1u)
      << "a load sweep must run round 1 once";
}

TEST(PoolDeterminism, RunPointInsideATaskChargesTheTaskSlot) {
  // A harness call made inside a task runs its loop inline (threads = 3
  // degrades to serial), leaves the same registry totals as a serial call
  // on the main thread, and charges every profiler cell and progress
  // count on the task's slot where the main thread's call charges slot 0.
  // Fixed chunks make both calls split the runs alike.
  const Application app = apps::build_synthetic();
  const SimTime d = SimTime::from_ms(120);
  const auto observed = [&](int threads, MetricsRegistry& reg,
                            Profiler& prof) {
    ExperimentConfig cfg = config(96, threads);
    cfg.chunk_runs = 16;
    cfg.collect_metrics = true;
    cfg.registry = &reg;
    cfg.prof = &prof;
    return cfg;
  };
  MetricsRegistry serial_reg, task_reg;
  Profiler serial_prof(Profiler::Mode::kFallback);
  Profiler task_prof(Profiler::Mode::kFallback);
  const SweepPoint serial =
      run_point(app, observed(1, serial_reg, serial_prof), d, 0.0);

  WorkerPool pool(2);
  std::promise<std::pair<int, SweepPoint>> got;
  pool.submit([&](int slot) {
    got.set_value(
        {slot, run_point(app, observed(3, task_reg, task_prof), d, 0.0)});
  });
  const auto [slot, in_task] = got.get_future().get();
  expect_point_identical(serial, in_task);

  const MetricsSnapshot a = serial_reg.snapshot();
  const MetricsSnapshot b = task_reg.snapshot();
  ASSERT_EQ(a.counters.size(), b.counters.size());
  for (std::size_t i = 0; i < a.counters.size(); ++i) {
    const auto& sa = a.counters[i];
    const auto& sb = b.counters[i];
    EXPECT_EQ(sa.name, sb.name);
    if (sa.name.find("_ns") == std::string::npos) {  // not a duration
      EXPECT_EQ(sa.value, sb.value) << sa.name;
    }
  }
  const std::vector<ProfPhaseTotals> pa = serial_prof.snapshot();
  const std::vector<ProfPhaseTotals> pb = task_prof.snapshot();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].name, pb[i].name);
    EXPECT_EQ(pa[i].count, pb[i].count) << pa[i].name;
  }
  // The progress view: 96 runs in 6 chunks, all on the task's slot.
  EXPECT_EQ(task_prof.progress(slot).done, 6u);
  EXPECT_EQ(task_prof.progress(slot).total, 6u);
  EXPECT_EQ(task_prof.progress(0).total, 0u);
  EXPECT_EQ(serial_prof.progress(0).done, 6u);
}

}  // namespace
}  // namespace paserta
