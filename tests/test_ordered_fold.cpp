// Tests for the run-ordered streaming fold (harness/ordered_fold.h): however
// a point's chunks complete — in order, in reverse, in seeded random
// permutations or from several threads at once — the folded SweepPoint
// must equal the plain in-order fold of every run bit for bit, counters
// and min/max included. The suite carries the pool_smoke ctest label, so
// CI runs the concurrent cases under TSan and ASan.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <numeric>
#include <random>
#include <thread>
#include <vector>

#include "harness/ordered_fold.h"

namespace paserta {
namespace {

constexpr std::size_t kSchemes = 3;

// Synthetic per-run outcomes of `points` points x `runs` runs, every field
// drawn so that each conditional branch of the fold is taken: degenerate
// runs, rows without a normalized energy or energy fractions, misses and
// verify failures.
std::vector<ChunkStage> synthetic_outcomes(std::size_t points, int runs,
                                           std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::vector<ChunkStage> all(points);
  for (ChunkStage& st : all) {
    st.ensure(runs, kSchemes);
    for (int r = 0; r < runs; ++r) {
      const auto i = static_cast<std::size_t>(r);
      st.npm_energy[i] = 1e-3 + u(rng) * 5.0;
      st.degenerate[i] = u(rng) < 0.05 ? 1 : 0;
      for (std::size_t s = 0; s < kSchemes; ++s) {
        SchemeOutcome so;
        so.has_norm = st.degenerate[i] == 0;
        so.norm_energy = so.has_norm ? 0.2 + u(rng) : 0.0;
        so.speed_changes = static_cast<double>(rng() % 17);
        so.finish_frac = u(rng) * 1.2;
        so.has_fracs = u(rng) < 0.9;
        if (so.has_fracs) {
          so.busy_frac = u(rng);
          so.overhead_frac = u(rng) * 0.1;
          so.idle_frac = 1.0 - so.busy_frac;
        }
        so.missed = so.finish_frac > 1.0;
        so.verify_failed = u(rng) < 0.02;
        st.schemes[i * kSchemes + s] = so;
      }
    }
  }
  return all;
}

SweepPoint header(double x) {
  SweepPoint pt;
  pt.x = x;
  pt.stats.resize(kSchemes);
  pt.stats[0].scheme = Scheme::GSS;
  pt.stats[1].scheme = Scheme::SS1;
  pt.stats[2].scheme = Scheme::AS;
  return pt;
}

// The reference: every run of the point folded in run order at once.
SweepPoint in_order(const ChunkStage& all, int runs, double x) {
  SweepPoint pt = header(x);
  fold_runs(pt, all, runs);
  return pt;
}

// RunningStat is five 8-byte fields with no padding, so comparing its
// object bytes compares every accumulator bit for bit.
static_assert(sizeof(RunningStat) == sizeof(std::uint64_t) + 4 * sizeof(double),
              "RunningStat must have no padding for a bytewise compare");

void expect_stat_bits(const RunningStat& a, const RunningStat& b) {
  EXPECT_EQ(std::memcmp(&a, &b, sizeof(RunningStat)), 0)
      << "count " << a.count() << " vs " << b.count() << ", mean "
      << a.mean() << " vs " << b.mean();
}

void expect_point_bits(const SweepPoint& a, const SweepPoint& b) {
  EXPECT_EQ(std::memcmp(&a.x, &b.x, sizeof(double)), 0);
  EXPECT_EQ(a.degenerate_runs, b.degenerate_runs);
  expect_stat_bits(a.npm_energy, b.npm_energy);
  ASSERT_EQ(a.stats.size(), b.stats.size());
  for (std::size_t s = 0; s < a.stats.size(); ++s) {
    const SchemeStats& x = a.stats[s];
    const SchemeStats& y = b.stats[s];
    EXPECT_EQ(x.scheme, y.scheme);
    expect_stat_bits(x.norm_energy, y.norm_energy);
    expect_stat_bits(x.speed_changes, y.speed_changes);
    expect_stat_bits(x.finish_frac, y.finish_frac);
    expect_stat_bits(x.busy_frac, y.busy_frac);
    expect_stat_bits(x.overhead_frac, y.overhead_frac);
    expect_stat_bits(x.idle_frac, y.idle_frac);
    EXPECT_EQ(x.deadline_misses, y.deadline_misses);
    EXPECT_EQ(x.verify_failures, y.verify_failures);
  }
}

// Copies chunk `k`'s slice of `all` into `stage`, as a worker evaluating
// that chunk would.
void stage_chunk(const ChunkStage& all, int runs, int chunk, int k,
                 ChunkStage& stage) {
  const int first = k * chunk;
  const int n = std::min(runs, first + chunk) - first;
  const auto f = static_cast<std::size_t>(first);
  for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) {
    stage.npm_energy[i] = all.npm_energy[f + i];
    stage.degenerate[i] = all.degenerate[f + i];
    for (std::size_t s = 0; s < kSchemes; ++s)
      stage.schemes[i * kSchemes + s] = all.schemes[(f + i) * kSchemes + s];
  }
}

// Completes one point's chunks in `order` on the calling thread and
// returns the folded point.
SweepPoint fold_in(const ChunkStage& all, int runs, int chunk,
                   const std::vector<int>& order) {
  OrderedFold fold({header(0.5)}, runs, chunk);
  std::unique_ptr<ChunkStage> stage;
  for (const int k : order) {
    if (!stage) stage = fold.acquire();
    stage_chunk(all, runs, chunk, k, *stage);
    fold.complete(0, k, stage);
  }
  return fold.release().front();
}

std::vector<int> iota_order(int n) {
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  return order;
}

// 1003 runs in chunks of 16: 63 chunks, the last one short (11 runs).
constexpr int kRuns = 1003;
constexpr int kChunk = 16;
constexpr int kChunks = (kRuns + kChunk - 1) / kChunk;

TEST(OrderedFold, InOrderCompletionMatchesSerialFoldAndParksNothing) {
  const auto all = synthetic_outcomes(1, kRuns, 1);
  OrderedFold fold({header(0.5)}, kRuns, kChunk);
  std::unique_ptr<ChunkStage> stage = fold.acquire();
  for (int k = 0; k < kChunks; ++k) {
    stage_chunk(all[0], kRuns, kChunk, k, *stage);
    fold.complete(0, k, stage);
    // In order, every chunk folds at once, so nothing is parked: the
    // caller keeps its one stage throughout.
    ASSERT_NE(stage, nullptr);
  }
  expect_point_bits(fold.release().front(), in_order(all[0], kRuns, 0.5));
}

TEST(OrderedFold, ReverseCompletionMatchesSerialFold) {
  const auto all = synthetic_outcomes(1, kRuns, 2);
  std::vector<int> order = iota_order(kChunks);
  std::reverse(order.begin(), order.end());
  expect_point_bits(fold_in(all[0], kRuns, kChunk, order),
                    in_order(all[0], kRuns, 0.5));
}

TEST(OrderedFold, SeededRandomPermutationsMatchSerialFold) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    const auto all = synthetic_outcomes(1, kRuns, 100 + seed);
    std::vector<int> order = iota_order(kChunks);
    std::mt19937_64 rng(seed);
    std::shuffle(order.begin(), order.end(), rng);
    expect_point_bits(fold_in(all[0], kRuns, kChunk, order),
                      in_order(all[0], kRuns, 0.5));
  }
}

TEST(OrderedFold, SingleChunkAndChunkLargerThanRuns) {
  const auto all = synthetic_outcomes(1, 37, 3);
  expect_point_bits(fold_in(all[0], 37, 37, {0}), in_order(all[0], 37, 0.5));
  // A chunk size beyond the run count folds as one chunk of every run.
  expect_point_bits(fold_in(all[0], 37, 1000, {0}),
                    in_order(all[0], 37, 0.5));
}

TEST(OrderedFold, FourThreadsCompletingConcurrently) {
  constexpr std::size_t kPoints = 3;
  constexpr int kThreads = 4;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    const auto all = synthetic_outcomes(kPoints, kRuns, 200 + seed);
    std::vector<SweepPoint> headers;
    for (std::size_t p = 0; p < kPoints; ++p)
      headers.push_back(header(static_cast<double>(p)));
    OrderedFold fold(std::move(headers), kRuns, kChunk);

    // A shuffled flat (point, chunk) space claimed from one counter, so
    // completions interleave across threads and points.
    std::vector<int> order = iota_order(static_cast<int>(kPoints) * kChunks);
    std::mt19937_64 rng(seed);
    std::shuffle(order.begin(), order.end(), rng);
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        std::mt19937 jitter(static_cast<unsigned>(seed * 31 + t));
        std::unique_ptr<ChunkStage> stage;
        for (;;) {
          const std::size_t i = next.fetch_add(1);
          if (i >= order.size()) return;
          const int c = order[i];
          const auto p = static_cast<std::size_t>(c / kChunks);
          const int k = c % kChunks;
          if (!stage) stage = fold.acquire();
          stage_chunk(all[p], kRuns, kChunk, k, *stage);
          if (jitter() % 4 == 0) std::this_thread::yield();
          fold.complete(p, k, stage);
        }
      });
    }
    for (std::thread& th : threads) th.join();

    const std::vector<SweepPoint> folded = fold.release();
    ASSERT_EQ(folded.size(), kPoints);
    for (std::size_t p = 0; p < kPoints; ++p)
      expect_point_bits(folded[p],
                        in_order(all[p], kRuns, static_cast<double>(p)));
  }
}

}  // namespace
}  // namespace paserta
