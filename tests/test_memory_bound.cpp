// Pins the harness's retained memory: a Monte-Carlo point must not store
// its runs. The pooled path folds each chunk into the point's accumulators
// as it completes (harness/ordered_fold.h), so a one-thread point keeps
// one chunk's outcomes at a time, whatever its run count. A run-major
// per-run store would take about 290 bytes per run — about 58 MB at the
// 200k runs below. Nor may a call's per-slot state grow past the workers
// the pool can run, however large the configured thread count.
//
// This file is its own test executable: it replaces the global allocation
// functions to track the heap high-water mark, which must not leak into
// the other suites.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <new>
#include <string>
#include <vector>

#include <malloc.h>

#include "apps/atr.h"
#include "core/offline.h"
#include "harness/experiment.h"
#include "harness/json.h"
#include "harness/pool.h"
#include "obs/metrics.h"

namespace {

std::atomic<bool> g_track{false};
std::atomic<std::int64_t> g_live{0};
std::atomic<std::int64_t> g_peak{0};

void note_alloc(void* p) {
  if (p == nullptr || !g_track.load(std::memory_order_relaxed)) return;
  const auto n = static_cast<std::int64_t>(malloc_usable_size(p));
  const std::int64_t live = g_live.fetch_add(n, std::memory_order_relaxed) + n;
  std::int64_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
}

void note_free(void* p) {
  if (p == nullptr || !g_track.load(std::memory_order_relaxed)) return;
  g_live.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                   std::memory_order_relaxed);
}

void* counted_malloc(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  note_alloc(p);
  return p;
}

void* counted_aligned(std::size_t n, std::align_val_t al) {
  const auto a = static_cast<std::size_t>(al);
  void* p = std::aligned_alloc(a, ((n == 0 ? 1 : n) + a - 1) / a * a);
  if (p == nullptr) throw std::bad_alloc();
  note_alloc(p);
  return p;
}

void counted_free(void* p) {
  note_free(p);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t n) { return counted_malloc(n); }
void* operator new[](std::size_t n) { return counted_malloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_malloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_malloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_aligned(n, al);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}

namespace paserta {
namespace {

TEST(MemoryBound, OneThreadPointRetainsNoPerRunStorage) {
  // ATR with ACET = WCET: the OR forks are the only randomness, so the
  // point dedups (four distinct scenarios) and its cost is the harness's
  // own per-run bookkeeping, not the engine.
  apps::AtrConfig atr;
  atr.alpha = 1.0;
  const Application app = apps::build_atr(atr);
  ExperimentConfig cfg;
  cfg.runs = 200000;
  cfg.threads = 1;
  const SimTime w = canonical_worst_makespan(
      app, cfg.cpus, cfg.overheads.worst_case_budget(cfg.table),
      cfg.heuristic);
  const SimTime deadline{w.ps * 2};

  g_live.store(0);
  g_peak.store(0);
  g_track.store(true);
  const SweepPoint pt = run_point(app, cfg, deadline, 0.5);
  g_track.store(false);
  const std::int64_t peak = g_peak.load();

  ASSERT_EQ(pt.npm_energy.count(), static_cast<std::uint64_t>(cfg.runs));
  ASSERT_TRUE(pt.dedup.enabled);
  RecordProperty("heap_high_water_bytes", std::to_string(peak));
  constexpr std::int64_t kBoundBytes = 4 << 20;  // 4 MB: ~21 B per run
  EXPECT_LT(peak, kBoundBytes)
      << "run_point heap high-water " << peak << " B for " << cfg.runs
      << " runs";
}

TEST(MemoryBound, WorkerSlotsStopAtWhatThePoolRuns) {
  // The pool runs at most WorkerPool::kMaxThreads + 1 participants, so a
  // larger `threads` must size no more counter cells, worker contexts or
  // dedup shards than that, and must not shrink the chunks either. Sized
  // by the raw setting, this sweep's cells alone would take 5 points x
  // 6250 slots x 6 cells x 144 B, about 27 MB. Each sweep runs inside a
  // pool task, where its loop runs inline on one slot: the high-water then
  // holds what the call sizes, not how many stages 65 threads sharing the
  // host's cores happen to park.
  const Application app = apps::build_atr();
  const std::vector<double> loads = {0.2, 0.4, 0.6, 0.8, 1.0};
  WorkerPool& pool = WorkerPool::process_pool();
  const auto sweep = [&](int threads, std::int64_t& peak) {
    MetricsRegistry reg;
    ExperimentConfig cfg;
    cfg.runs = 20000;
    cfg.threads = threads;
    cfg.collect_metrics = true;
    cfg.registry = &reg;
    std::promise<std::string> rendered;
    pool.submit([&](int) {
      g_live.store(0);
      g_peak.store(0);
      g_track.store(true);
      std::vector<SweepPoint> points = sweep_load(app, cfg, loads);
      g_track.store(false);
      JsonExportOptions jopt;
      jopt.x_name = "load";
      rendered.set_value(sweep_to_json(points, jopt));
    });
    std::string json = rendered.get_future().get();
    peak = g_peak.load();
    return json;
  };

  std::int64_t capped_peak = 0, huge_peak = 0;
  const std::string capped = sweep(WorkerPool::kMaxThreads + 1, capped_peak);
  const std::string huge = sweep(1 << 16, huge_peak);
  EXPECT_EQ(huge, capped);
  EXPECT_LE(pool.thread_count(), WorkerPool::kMaxThreads);
  RecordProperty("heap_high_water_bytes_capped", std::to_string(capped_peak));
  RecordProperty("heap_high_water_bytes_huge", std::to_string(huge_peak));
  constexpr std::int64_t kSlackBytes = 1 << 20;
  EXPECT_LT(huge_peak, capped_peak + kSlackBytes)
      << "threads=65536 peaks at " << huge_peak << " B, threads=65 at "
      << capped_peak << " B";
}

}  // namespace
}  // namespace paserta
