// Pins the harness's retained memory: a Monte-Carlo point must not store
// its runs. The pooled path folds each chunk into the point's accumulators
// as it completes (harness/ordered_fold.h), so a one-thread point keeps
// one chunk's outcomes at a time, whatever its run count. A run-major
// per-run store would take about 290 bytes per run — about 58 MB at the
// 200k runs below.
//
// This file is its own test executable: it replaces the global allocation
// functions to track the heap high-water mark, which must not leak into
// the other suites.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include <malloc.h>

#include "apps/atr.h"
#include "core/offline.h"
#include "harness/experiment.h"

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

}  // namespace
}  // namespace paserta
