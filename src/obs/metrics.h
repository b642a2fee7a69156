// Observability metrics: counters, gauges and fixed-bucket histograms
// behind a name-keyed registry.
//
// One atomic per cell. A counter is one relaxed atomic that every writer
// fetch_adds, a gauge one relaxed atomic that writers store, and a
// histogram one atomic per bucket plus one for the sum. Any thread may
// write any metric at any time, and a reader (a live /metrics scrape)
// sees each cell whole. Metrics are written once per pool chunk, request
// group or request, never per simulated run, so the contention a
// per-thread layout would avoid is rare, and a compact metric keeps an
// export of hundreds of counters on few cache lines (DESIGN.md §11).
//
// Determinism. Metrics are write-only for the simulation: nothing feeds
// back into RNG streams, scheduling decisions or result accumulation, so
// enabling collection cannot change a single output bit (test_obs pins
// sweep results with observability on vs off). Counter cells and
// histogram buckets are integers, so their totals do not depend on the
// order the writers' adds land in.
//
// Cost. Disabled mode is a null-pointer check at each would-be increment
// site; its end-to-end cost measured under 2 % on the fig4a point.
//
// Registries. There is no process-wide registry: every caller that
// collects metrics (the CLI, serve, perfbench, tests) constructs its own,
// so concurrent measurements cannot bleed into each other.
//
// Handles. Looking a metric up by name builds a string and takes the
// registry mutex, so code that exports many metrics per call resolves its
// handles once per registry: MetricsRegistry::handles caches a handle set
// under a key (SimCounterHandles is the engine counters' set).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace paserta {

/// Monotonic counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  /// Exact once writers have joined; a live read may lag by in-flight adds.
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-value gauge (e.g. bytes held, entries queued).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { set(0.0); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram. Bucket i counts values v with
/// v <= upper_bounds[i] (and v > upper_bounds[i-1]); one implicit overflow
/// bucket catches everything above the last bound — cumulative
/// Prometheus-style "le" semantics, pinned by test_obs.
class Histogram {
 public:
  /// Bounds must be strictly ascending and at most kMaxBuckets - 1 long.
  explicit Histogram(std::span<const double> upper_bounds);

  static constexpr std::size_t kMaxBuckets = 24;  // including overflow

  void record(double value) {
    // Branchless-enough: buckets are few, the scan is a handful of
    // well-predicted compares on a cache-resident array.
    std::size_t b = 0;
    while (b < bounds_.size() && value > bounds_[b]) ++b;
    buckets_[b].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  const std::vector<double>& bounds() const { return bounds_; }
  /// Number of buckets including the overflow bucket.
  std::size_t bucket_count() const { return bounds_.size() + 1; }
  /// Count of bucket `b` (b == bounds().size() = overflow).
  std::uint64_t bucket_value(std::size_t b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }
  std::uint64_t count() const;  // total samples
  double sum() const {  // sum of recorded values
    return sum_.load(std::memory_order_relaxed);
  }
  /// Quantile estimate from the bucket counts, Prometheus
  /// histogram_quantile-style: the rank q * count() is located in the
  /// cumulative bucket counts and interpolated linearly inside the matched
  /// bucket (the first bucket interpolates from 0). Ranks landing in the
  /// overflow bucket clamp to the last finite bound; an empty histogram
  /// returns NaN. `q` must be in [0, 1].
  double percentile(double q) const;
  void reset();

 private:
  std::vector<double> bounds_;
  std::array<std::atomic<std::uint64_t>, kMaxBuckets> buckets_{};
  std::atomic<double> sum_{0.0};
};

/// Additive engine telemetry for one simulated run (sim/engine.cpp fills
/// it when SimOptions::counters is set): dispatch volume, DVS activity,
/// the slack-reclamation behaviour the paper only reports as final energy,
/// and the integer energy-attribution ledger (where every picosecond of
/// the run went, per voltage level). Plain integers so per-chunk cells can
/// be summed in any order without changing the result.
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

class Profiler;  // obs/prof.h

/// Telemetry sinks for WorkerPool::parallel_chunks / serial_chunks. Every
/// pointer may be null (that sink is skipped); a null struct pointer
/// disables instrumentation entirely, leaving the claim loop untouched.
struct PoolTelemetry {
  Counter* chunks = nullptr;          // completed chunks
  Histogram* chunk_seconds = nullptr; // per-chunk wall latency
  Counter* busy_ns = nullptr;         // time inside bodies
  Counter* idle_ns = nullptr;         // claim/wait time outside bodies
  /// Phase profiler (obs/prof.h): when set, the pool charges each body
  /// stretch to ph_busy, each counter-claim stretch to ph_claim and the
  /// rest of the claim loop to ph_idle (all three ids set) — the stretches
  /// the counters above get, plus one clock read per claim for the split.
  Profiler* prof = nullptr;
  int ph_claim = -1;
  int ph_busy = -1;
  int ph_idle = -1;
};

/// Read-time snapshot of a registry, suitable for rendering. Rows are
/// sorted by name.
struct MetricsSnapshot {
  struct CounterRow {
    std::string name;
    std::uint64_t value = 0;
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

/// A set of resolved metric handles, owned and cached by a registry
/// (MetricsRegistry::handles).
class MetricHandles {
 public:
  virtual ~MetricHandles() = default;
};

/// Name-keyed metric registry. Every counter()/gauge()/histogram() call
/// takes a mutex; the returned reference is stable for the registry's
/// lifetime, so hot paths resolve their handles once and then write
/// without the lock.
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

  /// The handle set cached under `key`: on the key's first use `make()`
  /// (returning std::unique_ptr<T>, T derived from MetricHandles) builds
  /// it outside the lock, so it may register metrics; later calls find it
  /// under the registry mutex. Sets live as long as the registry.
  /// Thread-safe.
  template <class T, class Make>
  T& handles(const std::string& key, Make&& make) {
    MetricHandles* h = find_handles(key);
    if (h == nullptr) h = &publish_handles(key, std::forward<Make>(make)());
    return static_cast<T&>(*h);
  }

  MetricsSnapshot snapshot() const;
  /// Zeroes every metric, keeping registrations (and handles) alive.
  void reset();

 private:
  MetricHandles* find_handles(const std::string& key) const;
  MetricHandles& publish_handles(const std::string& key,
                                 std::unique_ptr<MetricHandles> handles);

  mutable std::mutex m_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::unique_ptr<MetricHandles>> handle_sets_;
};

/// The "<prefix>.<field>" counters one SimCounters total exports to: the
/// seven event counts, idle_ps, busy_ps.L<l> per level, and — only once
/// non-zero, so the export stays as sparse as the ledger —
/// compute_ps.L<l> and transitions.L<from>_L<to>. Resolved once per
/// (registry, prefix, ledger level count); add() then writes without the
/// registry lock, except to register a sparse name on its first non-zero
/// value.
class SimCounterHandles final : public MetricHandles {
 public:
  /// The handles of `reg` for `prefix` and ledgers of `levels` levels,
  /// cached in the registry.
  static SimCounterHandles& of(MetricsRegistry& reg, const std::string& prefix,
                               std::uint32_t levels);

  SimCounterHandles(MetricsRegistry& reg, std::string prefix,
                    std::uint32_t levels);

  /// Adds `c`, whose ledger must have this set's level count.
  void add(const SimCounters& c);

 private:
  /// The counter behind sparse handle `h`, registered on first use as
  /// "<prefix><field>.L<from>" (plus "_L<to>" when `to` >= 0).
  Counter& sparse(std::atomic<Counter*>& h, const char* field,
                  std::uint32_t from, std::int64_t to);

  MetricsRegistry& reg_;
  std::string prefix_;
  std::uint32_t levels_;
  std::array<Counter*, 8> fixed_{};  // the event counts, then idle_ps
  std::vector<Counter*> busy_;
  std::unique_ptr<std::atomic<Counter*>[]> compute_;      // levels
  std::unique_ptr<std::atomic<Counter*>[]> transitions_;  // levels^2
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
