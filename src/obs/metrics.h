// Observability metrics: sharded counters, gauges and fixed-bucket
// histograms behind a name-keyed registry.
//
// Sharding. Every metric keeps kMaxShards cache-line-separated cells, one
// per worker-pool participant slot (slot 0 is the calling thread of a
// parallel loop, 1..kMaxThreads the background workers — harness/pool.h
// guarantees a slot is owned by exactly one thread for the whole loop).
// The write path is therefore single-writer per shard: a relaxed atomic
// store of (relaxed load + n) compiles to a plain increment — no
// read-modify-write instruction, no contention — while staying TSan-clean
// when another thread snapshots the metric mid-loop (live progress
// displays). Aggregation happens only at read time, by summing shards in
// slot order.
//
// Determinism. Metrics are write-only for the simulation: nothing feeds
// back into RNG streams, scheduling decisions or result accumulation, so
// enabling collection cannot change a single output bit (test_obs pins
// sweep results with observability on vs off). Counter cells are integers
// and histogram cells are integer bucket counts, so cross-shard sums are
// order-independent by construction.
//
// Cost. Disabled mode is a null-pointer check at each would-be increment
// site; its end-to-end cost measured under 2 % on the fig4a point.
//
// Registries. MetricsRegistry::global() is the process-wide instance the
// harness defaults to; tests and tools construct scoped local registries
// so concurrent measurements cannot bleed into each other.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace paserta {

/// One shard per worker-pool participant: the caller of a parallel loop is
/// slot 0, background workers claim 1..WorkerPool::kMaxThreads (pool.cpp
/// static_asserts the bound so the two constants cannot drift apart).
constexpr int kMaxShards = 65;

namespace obs_detail {

/// Single-writer relaxed increment: the owning slot is the only writer, so
/// load + store (no lock prefix) is exact; concurrent readers may miss the
/// in-flight add but never see a torn value.
inline void shard_add(std::atomic<std::uint64_t>& cell, std::uint64_t n) {
  cell.store(cell.load(std::memory_order_relaxed) + n,
             std::memory_order_relaxed);
}

inline void shard_add(std::atomic<double>& cell, double v) {
  cell.store(cell.load(std::memory_order_relaxed) + v,
             std::memory_order_relaxed);
}

}  // namespace obs_detail

/// Monotonic sharded counter.
class Counter {
 public:
  void add(int shard, std::uint64_t n = 1) {
    obs_detail::shard_add(shards_[static_cast<std::size_t>(shard)].v, n);
  }

  /// Sum over shards (exact once writers have joined; a live read may lag
  /// by in-flight increments).
  std::uint64_t value() const;
  std::uint64_t shard_value(int shard) const {
    return shards_[static_cast<std::size_t>(shard)].v.load(
        std::memory_order_relaxed);
  }
  void reset();

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Shard, kMaxShards> shards_{};
};

/// Additive sharded gauge (e.g. bytes held, entries buffered): each shard
/// tracks its own contribution via add(); value() is the cross-shard sum.
class Gauge {
 public:
  void add(int shard, double delta) {
    obs_detail::shard_add(shards_[static_cast<std::size_t>(shard)].v, delta);
  }
  void set(int shard, double v) {
    shards_[static_cast<std::size_t>(shard)].v.store(
        v, std::memory_order_relaxed);
  }
  double value() const;
  void reset();

 private:
  struct alignas(64) Shard {
    std::atomic<double> v{0.0};
  };
  std::array<Shard, kMaxShards> shards_{};
};

/// Fixed-bucket sharded histogram. Bucket i counts values v with
/// v <= upper_bounds[i] (and v > upper_bounds[i-1]); one implicit overflow
/// bucket catches everything above the last bound — cumulative
/// Prometheus-style "le" semantics, pinned by test_obs.
class Histogram {
 public:
  /// Bounds must be strictly ascending and at most kMaxBuckets - 1 long.
  explicit Histogram(std::span<const double> upper_bounds);

  static constexpr std::size_t kMaxBuckets = 24;  // including overflow

  void record(int shard, double value) {
    // Branchless-enough: buckets are few, the scan is a handful of
    // well-predicted compares on a cache-resident array.
    std::size_t b = 0;
    while (b < bounds_.size() && value > bounds_[b]) ++b;
    Shard& s = shards_[static_cast<std::size_t>(shard)];
    obs_detail::shard_add(s.buckets[b], 1);
    obs_detail::shard_add(s.sum, value);
  }

  const std::vector<double>& bounds() const { return bounds_; }
  /// Number of buckets including the overflow bucket.
  std::size_t bucket_count() const { return bounds_.size() + 1; }
  /// Cross-shard count of bucket `b` (b == bounds().size() = overflow).
  std::uint64_t bucket_value(std::size_t b) const;
  std::uint64_t count() const;  // total samples
  double sum() const;           // sum of recorded values
  /// Quantile estimate from the bucket counts, Prometheus
  /// histogram_quantile-style: the rank q * count() is located in the
  /// cumulative bucket counts and interpolated linearly inside the matched
  /// bucket (the first bucket interpolates from 0). Ranks landing in the
  /// overflow bucket clamp to the last finite bound; an empty histogram
  /// returns NaN. `q` must be in [0, 1].
  double percentile(double q) const;
  void reset();

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, kMaxBuckets> buckets{};
    std::atomic<double> sum{0.0};
  };
  std::vector<double> bounds_;
  std::array<Shard, kMaxShards> shards_{};
};

/// Additive engine telemetry for one simulated run (sim/engine.cpp fills
/// it when SimOptions::counters is set): dispatch volume, DVS activity,
/// the slack-reclamation behaviour the paper only reports as final energy,
/// and the integer energy-attribution ledger (where every picosecond of
/// the run went, per voltage level). Plain integers so per-(point, slot,
/// scheme) cells can be summed in any order without changing the result.
///
/// The attribution ledger is the engine's own energy accounting: the
/// engine derives busy/overhead/idle joules from exactly these integers
/// (sim/engine.h attribution_energy), so folding an exported ledger back
/// through the power table reproduces the engine's energies bit-for-bit —
/// the invariant audit mode enforces per run.
struct SimCounters {
  std::uint64_t dispatches = 0;     // nodes dequeued (incl. dummy AND/OR)
  std::uint64_t tasks = 0;          // computation nodes executed
  std::uint64_t or_fires = 0;       // OR forks resolved
  std::uint64_t speed_changes = 0;  // voltage transitions charged
  /// Dynamic speed picks where the speculative floor overrode the greedy
  /// slack-reclamation frequency (SS1/SS2/AS), vs. picks where the greedy
  /// choice prevailed (always greedy for GSS).
  std::uint64_t spec_picks = 0;
  std::uint64_t greedy_picks = 0;
  /// Total extra execution time gained by running below f_max: the sum of
  /// (scaled duration - actual time at f_max) over dispatched tasks. This
  /// is the reclaimed slack actually spent, in picoseconds.
  std::uint64_t reclaimed_slack_ps = 0;

  // --- Energy-attribution ledger (empty until the first audited/counted
  // run; sized by the run's voltage-level table, recorded in `levels`).
  /// Voltage levels of the power table the ledger was recorded against
  /// (the stride of `transitions`); 0 = no ledger recorded yet.
  std::uint32_t levels = 0;
  /// Task execution time per level, picoseconds.
  std::vector<std::uint64_t> busy_ps;
  /// Speed-computation overhead time per level (the level the processor
  /// ran the computation at), picoseconds.
  std::vector<std::uint64_t> compute_ps;
  /// Voltage-transition counts per ordered level pair, row-major
  /// [from * levels + to]. Each transition costs the run's fixed
  /// speed-change time at the higher-power level of the pair.
  std::vector<std::uint64_t> transitions;
  /// Idle/sleep time summed over processors up to the deadline,
  /// picoseconds (clamped at 0 per processor when a run overruns).
  std::uint64_t idle_ps = 0;

  /// Elementwise sum; ledgers must come from the same power table (equal
  /// `levels`, enforced), or one side may be ledger-free.
  void add(const SimCounters& o);
};

class ProgressReporter;  // obs/progress.h
class Profiler;          // obs/prof.h

/// Telemetry sinks for WorkerPool::parallel_chunks / serial_chunks. Every
/// pointer may be null (that sink is skipped); a null struct pointer
/// disables instrumentation entirely, leaving the claim loop untouched.
struct PoolTelemetry {
  Counter* chunks = nullptr;          // completed chunks, sharded by slot
  Histogram* chunk_seconds = nullptr; // per-chunk wall latency
  Counter* busy_ns = nullptr;         // time inside bodies, per slot
  Counter* idle_ns = nullptr;         // claim/wait time outside bodies
  ProgressReporter* progress = nullptr;  // one tick per completed chunk
  /// Phase profiler (obs/prof.h): when set, the pool charges body time to
  /// ph_busy, counter-claim time to ph_claim and the rest of the claim
  /// loop to ph_idle via Profiler::add_ns — no extra clock reads beyond
  /// the one the claim split needs, and none at all when null.
  Profiler* prof = nullptr;
  int ph_claim = -1;
  int ph_busy = -1;
  int ph_idle = -1;
};

/// Read-time snapshot of a registry, suitable for rendering. Rows are
/// sorted by name; counter rows carry the per-shard breakdown (trailing
/// all-zero shards trimmed) so pool-balance analyses can see skew.
struct MetricsSnapshot {
  struct CounterRow {
    std::string name;
    std::uint64_t value = 0;
    std::vector<std::uint64_t> shards;  // trimmed at the last non-zero
  };
  struct GaugeRow {
    std::string name;
    double value = 0.0;
  };
  struct HistogramRow {
    std::string name;
    std::vector<double> bounds;
    std::vector<std::uint64_t> buckets;  // bounds.size() + 1 (overflow)
    std::uint64_t count = 0;
    double sum = 0.0;
  };
  std::vector<CounterRow> counters;
  std::vector<GaugeRow> gauges;
  std::vector<HistogramRow> histograms;
};

/// Name-keyed metric registry. Registration (the first counter()/gauge()/
/// histogram() call per name) takes a mutex; the returned reference is
/// stable for the registry's lifetime, so hot paths resolve their handles
/// once and then write lock-free.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// Re-registering an existing histogram requires identical bounds.
  Histogram& histogram(const std::string& name,
                       std::span<const double> upper_bounds);

  MetricsSnapshot snapshot() const;
  /// Zeroes every metric, keeping registrations (and handles) alive.
  void reset();

  /// The process-wide registry the experiment harness defaults to.
  static MetricsRegistry& global();

 private:
  mutable std::mutex m_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Renders a snapshot as a pretty-printed JSON object (counters / gauges /
/// histograms arrays), newline-terminated; parseable by harness/json.
std::string metrics_to_json(const MetricsSnapshot& snapshot);

/// Renders a snapshot in the Prometheus text exposition format (0.0.4):
/// `# TYPE` lines, counters/gauges as single samples, histograms as
/// cumulative `_bucket{le="..."}` series ending in `le="+Inf"` plus `_sum`
/// and `_count`. Metric names are sanitized to [a-zA-Z0-9_:] and numeric
/// values use the same 12-significant-digit formatting as metrics_to_json,
/// so the two exports round-trip against each other (pinned by test_obs).
std::string metrics_to_prometheus(const MetricsSnapshot& snapshot);

}  // namespace paserta
