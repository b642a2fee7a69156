#include "harness/ordered_fold.h"

#include <algorithm>
#include <utility>

#include "common/error.h"

namespace paserta {

void ChunkStage::ensure(int runs, std::size_t nschemes) {
  const auto n = static_cast<std::size_t>(runs);
  if (npm_energy.size() >= n) return;
  npm_energy.resize(n);
  degenerate.resize(n);
  schemes.resize(n * nschemes);
}

void fold_runs(SweepPoint& point, const ChunkStage& stage, int runs) {
  const std::size_t nschemes = point.stats.size();
  for (std::size_t run = 0; run < static_cast<std::size_t>(runs); ++run) {
    point.npm_energy.add(stage.npm_energy[run]);
    if (stage.degenerate[run]) ++point.degenerate_runs;
    const SchemeOutcome* row = stage.schemes.data() + run * nschemes;
    for (std::size_t s = 0; s < nschemes; ++s) {
      const SchemeOutcome& so = row[s];
      SchemeStats& st = point.stats[s];
      if (so.has_norm) st.norm_energy.add(so.norm_energy);
      st.speed_changes.add(so.speed_changes);
      st.finish_frac.add(so.finish_frac);
      if (so.has_fracs) {
        st.busy_frac.add(so.busy_frac);
        st.overhead_frac.add(so.overhead_frac);
        st.idle_frac.add(so.idle_frac);
      }
      if (so.missed) ++st.deadline_misses;
      if (so.verify_failed) ++st.verify_failures;
    }
  }
}

OrderedFold::OrderedFold(std::vector<SweepPoint> points, int runs, int chunk)
    : nschemes_(points.empty() ? 0 : points.front().stats.size()),
      states_(points.size()) {
  PASERTA_REQUIRE(runs >= 1 && chunk >= 1,
                  "ordered fold needs positive runs and chunk size");
  runs_ = runs;
  chunk_ = std::min(chunk, runs);  // a stage never needs more than a point
  chunks_ = static_cast<int>(
      (static_cast<std::int64_t>(runs) + chunk_ - 1) / chunk_);
  for (std::size_t p = 0; p < points.size(); ++p)
    states_[p].point = std::move(points[p]);
}

std::unique_ptr<ChunkStage> OrderedFold::acquire() {
  {
    std::lock_guard<std::mutex> lock(spare_mu_);
    if (!spares_.empty()) {
      std::unique_ptr<ChunkStage> stage = std::move(spares_.back());
      spares_.pop_back();
      return stage;
    }
  }
  auto stage = std::make_unique<ChunkStage>();
  stage->ensure(chunk_, nschemes_);
  return stage;
}

void OrderedFold::fold_chunk(PointState& ps, const ChunkStage& stage,
                             int k) const {
  const std::int64_t first = std::int64_t{k} * chunk_;
  const std::int64_t last = std::min<std::int64_t>(runs_, first + chunk_);
  fold_runs(ps.point, stage, static_cast<int>(last - first));
  if (stage.counters.empty()) return;
  PointMetrics& m = ps.point.metrics;
  m.schemes.resize(nschemes_);  // sized by the point's first chunk
  for (std::size_t s = 0; s < nschemes_; ++s)
    m.schemes[s].add(stage.counters[s]);
  m.npm.add(stage.counters[nschemes_]);
}

void OrderedFold::complete(std::size_t p, int k,
                           std::unique_ptr<ChunkStage>& stage) {
  PointState& ps = states_[p];
  {
    std::lock_guard<std::mutex> lock(ps.mu);
    if (k != ps.next) {
      // An earlier chunk is outstanding or being folded; whoever folds
      // chunk k - 1 picks this one up.
      if (ps.parked.empty())
        ps.parked.resize(static_cast<std::size_t>(chunks_));
      ps.parked[static_cast<std::size_t>(k)] = std::move(stage);
      return;
    }
  }
  // Chunk k is `next`, so no other thread folds this point until `next`
  // advances: only the completer of chunk `next` ever folds, and each
  // chunk completes once. The accumulators are touched outside the lock;
  // the lock hand-off on `next` orders successive folds.
  fold_chunk(ps, *stage, k);
  for (;;) {
    std::unique_ptr<ChunkStage> succ;
    {
      std::lock_guard<std::mutex> lock(ps.mu);
      ps.next = ++k;
      if (k == chunks_ || ps.parked.empty() ||
          !ps.parked[static_cast<std::size_t>(k)])
        return;
      succ = std::move(ps.parked[static_cast<std::size_t>(k)]);
    }
    fold_chunk(ps, *succ, k);
    std::lock_guard<std::mutex> lock(spare_mu_);
    spares_.push_back(std::move(succ));
  }
}

std::vector<SweepPoint> OrderedFold::release() {
  std::vector<SweepPoint> points;
  points.reserve(states_.size());
  for (PointState& ps : states_) {
    std::lock_guard<std::mutex> lock(ps.mu);
    PASERTA_ASSERT(ps.next == chunks_, "point released with "
                                           << chunks_ - ps.next
                                           << " chunks unfolded");
    points.push_back(std::move(ps.point));
  }
  return points;
}

}  // namespace paserta
