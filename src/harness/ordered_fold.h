// Run-ordered streaming fold of per-run Monte-Carlo outcomes.
//
// The determinism contract (harness/experiment.h) adds every run of a
// point to its RunningStats in strict run order. The pooled harness keeps
// that order without storing a point's runs: a worker evaluates a chunk
// into a private ChunkStage and hands it to OrderedFold, which folds the
// chunk into its point at once when it extends the point's folded prefix
// and otherwise parks it until its predecessors are folded. The worker
// that folds a chunk also folds every parked successor. Retained memory is
// therefore the out-of-order window, not the run count (DESIGN.md §13).
// With metrics on, a stage also carries its chunk's engine counters, and
// the fold adds them to the point in the same chunk order: it is the one
// place where a point's per-run values are added up.
//
// Harness-internal: experiment.cpp is the only production user; the header
// exists so tests can drive completion order directly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/aligned.h"
#include "harness/experiment.h"

namespace paserta {

/// Raw per-run measurements of one scheme; fold_runs adds them to the
/// scheme's SchemeStats.
struct SchemeOutcome {
  double norm_energy = 0.0;
  double speed_changes = 0.0;
  double finish_frac = 0.0;
  double busy_frac = 0.0;
  double overhead_frac = 0.0;
  double idle_frac = 0.0;
  bool has_norm = false;
  bool has_fracs = false;
  bool missed = false;
  bool verify_failed = false;
};

/// Per-run outcomes of consecutive runs, run-major: run i owns
/// npm_energy[i], degenerate[i] and schemes[i * nschemes, +nschemes). The
/// arrays are cache-line-aligned, so two workers' stages never share a
/// line. Entries are never cleared between uses: the evaluators assign
/// every field of every run they stage.
struct ChunkStage {
  std::vector<double, CacheAlignedAlloc<double>> npm_energy;
  std::vector<std::uint8_t, CacheAlignedAlloc<std::uint8_t>> degenerate;
  std::vector<SchemeOutcome, CacheAlignedAlloc<SchemeOutcome>> schemes;
  /// The staged runs' engine counters summed, with metrics on: one
  /// SimCounters per scheme, then one for the NPM baseline (empty = none).
  /// Unlike the per-run arrays they are cleared before each chunk.
  std::vector<SimCounters> counters;

  /// Grows the stage to hold `runs` runs (never shrinks).
  void ensure(int runs, std::size_t nschemes);
};

/// Adds the first `runs` staged runs to `point` in run order: the NPM
/// energy, the degenerate count and, per scheme row (parallel to
/// point.stats), every statistic and counter.
void fold_runs(SweepPoint& point, const ChunkStage& stage, int runs);

/// Ordered streaming fold of one harness call's points. Thread-safe: any
/// number of workers may complete chunks concurrently and in any order;
/// the folded points are bit-identical to folding every run in order.
class OrderedFold {
 public:
  /// `points` carry their header fields (x, deadline, worst makespan and
  /// stats[s].scheme); every point has `runs` runs split into chunks of
  /// `chunk` runs, the last one possibly short.
  OrderedFold(std::vector<SweepPoint> points, int runs, int chunk);

  /// A stage sized for one chunk: a spent one from the free list when
  /// there is one, else a new one.
  std::unique_ptr<ChunkStage> acquire();

  /// Chunk `k` of point `p` is staged in `stage`. If the chunk extends the
  /// point's folded prefix, folds it and then every parked successor, in
  /// run order and outside the point's lock; `stage` stays with the
  /// caller. Otherwise parks it and leaves `stage` null. Folding a chunk
  /// also adds its counters, if any, to the point's PointMetrics.
  void complete(std::size_t p, int k, std::unique_ptr<ChunkStage>& stage);

  /// The folded points. Every chunk of every point must have completed.
  std::vector<SweepPoint> release();

 private:
  struct alignas(64) PointState {
    std::mutex mu;
    int next = 0;  // the chunk being folded, or the next one to fold
    /// Parked chunks by index; sized on the point's first park.
    std::vector<std::unique_ptr<ChunkStage>> parked;
    /// Written outside `mu`, only by the thread whose chunk is `next`.
    SweepPoint point;
  };

  void fold_chunk(PointState& ps, const ChunkStage& stage, int k) const;

  int runs_ = 0;
  int chunk_ = 0;
  int chunks_ = 0;
  std::size_t nschemes_ = 0;
  std::vector<PointState> states_;
  std::mutex spare_mu_;
  std::vector<std::unique_ptr<ChunkStage>> spares_;
};

}  // namespace paserta
