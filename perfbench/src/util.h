// Shared plumbing of the benchmark program: clocks, sample statistics, the
// in-memory span recorder, heap accounting, process statistics and the
// result line.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <sys/types.h>

namespace perfbench {

/// Command-line options of perfbench (run.py forwards its own).
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the span file and other run artifacts.
  std::string out_dir = ".bench_out";
  /// The paserta_cli binary serve_mix starts as its daemon.
  std::string cli;
  /// Print the input digests of the workload and exit (self-tests).
  bool digest = false;
  /// Check the benchmark's own arithmetic and exit (self-tests).
  bool self_test = false;
};

std::int64_t now_ns();

inline double seconds_since(std::int64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

/// splitmix64: derives independent 64-bit streams from the workload seed.
std::uint64_t mix64(std::uint64_t x);

/// FNV-1a over bytes, chained through `h`: the input digests.
std::uint64_t fnv1a(const std::string& bytes,
                    std::uint64_t h = 0xcbf29ce484222325ULL);

std::string hex64(std::uint64_t v);

/// Quantile with linear interpolation between closest ranks (the
/// "inclusive" method of Python's statistics.quantiles); 0 when empty.
double quantile(std::vector<double> v, double q);
double median(const std::vector<double>& v);

/// The set-up times of a run, seconds each. A workload times a round of
/// set-up repeats before its window: at least three, and more while the
/// round has taken less than 0.75 s (at most twelve). When it reports
/// setup_s it times more repeats during the window, between operations,
/// whenever the repeats so far in the window took less than a tenth of
/// it. Set-up is then sampled over the same stretch of host time as the
/// window's throughput, so its median holds still as well when the host's
/// speed drifts.
class SetupTimes {
 public:
  /// The round before the window. `tear_down` runs untimed before each
  /// repeat.
  template <typename SetUp, typename TearDown>
  void round(SetUp&& set_up, TearDown&& tear_down) {
    double sum = 0.0;
    for (int n = 0; n < 3 || (sum < 0.75 && n < 12); ++n) {
      tear_down();
      sum += once(set_up);
    }
  }

  /// One repeat if the window's repeats are below their share of the
  /// `window_s` seconds elapsed so far; returns whether one ran.
  template <typename SetUp>
  bool interleave(SetUp&& set_up, double window_s) {
    if (in_window_s_ >= 0.1 * window_s) return false;
    in_window_s_ += once(set_up);
    return true;
  }

  const std::vector<double>& times() const { return times_; }

 private:
  template <typename SetUp>
  double once(SetUp&& set_up) {
    const std::int64_t t0 = now_ns();
    set_up();
    const double t = seconds_since(t0);
    times_.push_back(t);
    return t;
  }

  std::vector<double> times_;
  double in_window_s_ = 0.0;
};

/// One named, timed interval. `parent` is the index of the enclosing span
/// (-1 for a root); spans of one operation share `op`.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::int64_t op = -1;
};

/// Spans kept in memory and written out once, at the end of the run.
/// Disabled recorders cost one branch per call and record nothing.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Opens a span and returns its index (-1 when disabled).
  int open(const char* name, int parent, std::int64_t op);
  void close(int id);
  /// Records an interval measured by the caller.
  int add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
          int parent, std::int64_t op);

  /// Writes {"spans":[...]} with times relative to the first span to
  /// <out_dir>/trace-<workload>-<seed>.json; returns the path, or an empty
  /// string when the file cannot be written.
  std::string write(const Options& o) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Heap bytes allocated through operator new (the benchmark replaces the
/// global allocation functions to count them). Turning tracking on zeroes
/// the live count and the high-water mark; counting runs only while on.
void heap_tracking(bool on);
std::int64_t heap_live_bytes();
std::int64_t heap_peak_bytes();

/// CPU seconds (user + system) consumed by this process so far.
double process_cpu_seconds();
/// Peak resident set of this process, MB (VmHWM).
double process_peak_rss_mb();
/// CPU seconds of another process, all its threads (its CPU-time clock);
/// negative when unreadable.
double pid_cpu_seconds(pid_t pid);
/// Peak resident set of another process, MB (VmHWM); negative when
/// unreadable.
double pid_peak_rss_mb(pid_t pid);

int hardware_threads();

/// The host's speed during a run, measured from outside the library: a
/// fixed piece of the benchmark's own work (a dependent walk over a 512 KB
/// array, about 3 ms on the host the benchmark was defined on) timed on
/// one thread, many times between a window's operations while the program
/// under test is idle. No change to the library can move it; a host that
/// runs slower than usual, as this kind of virtual machine does for
/// minutes at a time, moves it with the workload.
class HostSpeed {
 public:
  HostSpeed();
  /// Times the probe once.
  void sample();
  /// Median probe time over its time on the reference host: above 1 when
  /// the host runs slower. Workloads divide reported times by it and
  /// multiply reported rates by it, so a figure reads as it would have on
  /// the reference host. 1 before the first sample.
  double slowdown() const;
  std::size_t samples() const { return probe_s_.size(); }

 private:
  std::vector<std::uint64_t> words_;
  std::vector<double> probe_s_;
};

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run prints as its last stdout line.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Free-form facts about the run (sizes, rates, check outcomes),
  /// printed on stderr next to the result.
  std::vector<std::pair<std::string, std::string>> notes;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& key, const std::string& value) {
    notes.emplace_back(key, value);
  }
  void note(const std::string& key, double value);
  /// The values space-separated, in order.
  void note(const std::string& key, const std::vector<double>& values);
};

std::string result_json(const Result& r);
std::string notes_json(const Result& r);

}  // namespace perfbench
