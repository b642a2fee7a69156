#include "harness/throughput.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>
#include <thread>

#include "common/error.h"
#include "core/offline.h"
#include "harness/json.h"
#include "obs/metrics.h"
#include "obs/prof.h"

namespace paserta {
namespace {

// Shared emit helpers from harness/json — one escaping/number policy for
// every JSON artifact in the tree.
inline std::string escape(const std::string& s) { return json_escape(s); }
inline std::string num(double v) { return json_num(v); }

using clock_type = std::chrono::steady_clock;

double seconds_since(clock_type::time_point t0) {
  return std::chrono::duration<double>(clock_type::now() - t0).count();
}

/// One extra untimed pass under a bench-level profiler phase, filling the
/// section's cycles_per_run / ipc columns (see HwColumns in the header).
/// Leaves the NaN defaults untouched when perf_event_open is denied.
template <typename Fn>
void profile_section(double runs, HwColumns& hw, Fn&& body) {
  Profiler prof;
  if (!prof.hardware() || runs <= 0.0) return;
  {
    ProfScope scope(&prof, prof.phase("bench", /*top_level=*/true), 0);
    body();
  }
  const std::vector<ProfPhaseTotals> snap = prof.snapshot();
  if (snap.empty() || snap.front().cycles == 0) return;
  hw.cycles_per_run = static_cast<double>(snap.front().cycles) / runs;
  hw.ipc = static_cast<double>(snap.front().instructions) /
           static_cast<double>(snap.front().cycles);
}

/// The pre-pool sweep shape: one shared worst-case makespan, then one
/// run_point_unpooled per load — fresh thread spawn/join and a fresh
/// offline analysis for every point.
void legacy_sweep_load(const Application& app, const ExperimentConfig& cfg,
                       const std::vector<double>& loads) {
  const SimTime w = canonical_worst_makespan(
      app, cfg.cpus, cfg.overheads.worst_case_budget(cfg.table),
      cfg.heuristic);
  for (double load : loads) {
    const SimTime deadline{static_cast<std::int64_t>(
        std::ceil(static_cast<double>(w.ps) / load))};
    (void)run_point_unpooled(app, cfg, deadline, load);
  }
}

}  // namespace

ThroughputReport measure_throughput(const Application& app,
                                    ExperimentConfig cfg, SimTime deadline,
                                    const std::vector<int>& thread_counts,
                                    const std::string& label, int reps) {
  PASERTA_REQUIRE(!thread_counts.empty(), "need at least one thread count");
  PASERTA_REQUIRE(reps >= 1, "need at least one repetition");
  ThroughputReport report;
  report.label = label;
  report.runs = cfg.runs;
  report.schemes = static_cast<int>(cfg.schemes.size());

  // Untimed warm-up: fault in code paths, allocator state and the worker
  // pool so the first timed sample is not penalized relative to later ones.
  cfg.threads = thread_counts.front();
  (void)run_point(app, cfg, deadline, 0.0);

  for (int threads : thread_counts) {
    cfg.threads = threads;
    // Best of `reps`: contention noise only ever adds time, so the
    // fastest repetition is the cleanest measurement.
    double best = std::numeric_limits<double>::infinity();
    for (int r = 0; r < reps; ++r) {
      const auto t0 = clock_type::now();
      (void)run_point(app, cfg, deadline, 0.0);
      best = std::min(best, seconds_since(t0));
    }
    ThroughputSample s;
    s.threads = threads;
    s.seconds = best;
    s.runs_per_sec =
        s.seconds > 0.0 ? static_cast<double>(cfg.runs) / s.seconds : 0.0;
    report.samples.push_back(s);
  }

  // Hardware columns at threads = 1: the measuring thread is the worker.
  cfg.threads = 1;
  profile_section(static_cast<double>(cfg.runs), report.hw,
                  [&] { (void)run_point(app, cfg, deadline, 0.0); });
  return report;
}

std::string throughput_to_json(const ThroughputReport& report) {
  std::ostringstream os;
  JsonWriter w(os, 2);
  w.begin_object()
      .key("benchmark").value("throughput")
      .key("label").value(report.label)
      .key("runs").value(report.runs)
      .key("schemes").value(report.schemes)
      .key("cycles_per_run").value(report.hw.cycles_per_run)
      .key("ipc").value(report.hw.ipc)
      .key("samples").begin_array();
  for (const ThroughputSample& s : report.samples) {
    std::ostringstream item;
    JsonWriter iw(item);  // compact: one sample object per line
    iw.begin_object()
        .key("threads").value(s.threads)
        .key("seconds").value(s.seconds)
        .key("runs_per_sec").value(s.runs_per_sec)
        .end_object();
    w.raw(item.str());
  }
  w.end_array().end_object();
  os << "\n";
  return os.str();
}

DedupThroughputReport measure_dedup_throughput(
    const Application& app, ExperimentConfig cfg, SimTime deadline,
    const std::vector<int>& run_counts, const std::string& label, int reps) {
  PASERTA_REQUIRE(!run_counts.empty(), "need at least one run count");
  PASERTA_REQUIRE(reps >= 1, "need at least one repetition");
  DedupThroughputReport report;
  report.label = label;
  report.schemes = static_cast<int>(cfg.schemes.size());
  cfg.threads = 1;
  report.threads = cfg.threads;

  // Untimed warm-up on both paths at the smallest run count.
  cfg.runs = run_counts.front();
  cfg.dedup = DedupMode::kOff;
  (void)run_point(app, cfg, deadline, 0.0);
  cfg.dedup = DedupMode::kOn;
  (void)run_point(app, cfg, deadline, 0.0);

  for (int runs : run_counts) {
    cfg.runs = runs;
    DedupThroughputSample s;
    s.runs = runs;

    cfg.dedup = DedupMode::kOff;
    double best = std::numeric_limits<double>::infinity();
    for (int r = 0; r < reps; ++r) {
      const auto t0 = clock_type::now();
      (void)run_point(app, cfg, deadline, 0.0);
      best = std::min(best, seconds_since(t0));
    }
    s.off_seconds = best;
    s.off_runs_per_sec =
        best > 0.0 ? static_cast<double>(runs) / best : 0.0;

    cfg.dedup = DedupMode::kOn;
    best = std::numeric_limits<double>::infinity();
    for (int r = 0; r < reps; ++r) {
      const auto t0 = clock_type::now();
      const SweepPoint pt = run_point(app, cfg, deadline, 0.0);
      const double secs = seconds_since(t0);
      if (secs < best) {
        best = secs;
        s.distinct = pt.dedup.misses;
        const std::uint64_t total = pt.dedup.hits + pt.dedup.misses;
        s.hit_rate = total > 0 ? static_cast<double>(pt.dedup.hits) /
                                     static_cast<double>(total)
                               : 0.0;
      }
    }
    s.on_seconds = best;
    s.on_runs_per_sec = best > 0.0 ? static_cast<double>(runs) / best : 0.0;
    s.speedup = best > 0.0 ? s.off_seconds / best : 0.0;
    report.samples.push_back(s);
  }

  cfg.runs = run_counts.front();
  cfg.dedup = DedupMode::kOff;  // pure simulation cost, like the point section
  profile_section(static_cast<double>(cfg.runs), report.hw,
                  [&] { (void)run_point(app, cfg, deadline, 0.0); });
  return report;
}

std::string dedup_throughput_to_json(const DedupThroughputReport& report) {
  std::ostringstream os;
  JsonWriter w(os, 2);
  w.begin_object()
      .key("benchmark").value("dedup_throughput")
      .key("label").value(report.label)
      .key("schemes").value(report.schemes)
      .key("threads").value(report.threads)
      .key("cycles_per_run").value(report.hw.cycles_per_run)
      .key("ipc").value(report.hw.ipc)
      .key("samples").begin_array();
  for (const DedupThroughputSample& s : report.samples) {
    std::ostringstream item;
    JsonWriter iw(item);
    iw.begin_object()
        .key("runs").value(s.runs)
        .key("off_seconds").value(s.off_seconds)
        .key("off_runs_per_sec").value(s.off_runs_per_sec)
        .key("on_seconds").value(s.on_seconds)
        .key("on_runs_per_sec").value(s.on_runs_per_sec)
        .key("speedup").value(s.speedup)
        .key("hit_rate").value(s.hit_rate)
        .key("distinct").value(s.distinct)
        .end_object();
    w.raw(item.str());
  }
  w.end_array().end_object();
  os << "\n";
  return os.str();
}

SweepThroughputReport measure_sweep_throughput(
    const Application& app, ExperimentConfig cfg,
    const std::vector<double>& loads, const std::vector<int>& thread_counts,
    const std::string& label, int reps) {
  PASERTA_REQUIRE(!thread_counts.empty(), "need at least one thread count");
  PASERTA_REQUIRE(!loads.empty(), "need at least one sweep point");
  PASERTA_REQUIRE(reps >= 1, "need at least one repetition");
  SweepThroughputReport report;
  report.label = label;
  report.points = static_cast<int>(loads.size());
  report.runs = cfg.runs;
  report.schemes = static_cast<int>(cfg.schemes.size());
  report.host_threads =
      static_cast<int>(std::thread::hardware_concurrency());

  // Untimed warm-up of the pooled path (faults in the pool's threads too).
  cfg.threads = thread_counts.front();
  (void)sweep_load(app, cfg, loads);

  for (int threads : thread_counts) {
    cfg.threads = threads;
    SweepThroughputSample s;
    s.threads = threads;

    // Best of `reps` per path, as in measure_throughput.
    s.pooled_seconds = std::numeric_limits<double>::infinity();
    s.legacy_seconds = std::numeric_limits<double>::infinity();
    for (int r = 0; r < reps; ++r) {
      auto t0 = clock_type::now();
      (void)sweep_load(app, cfg, loads);
      s.pooled_seconds = std::min(s.pooled_seconds, seconds_since(t0));

      t0 = clock_type::now();
      legacy_sweep_load(app, cfg, loads);
      s.legacy_seconds = std::min(s.legacy_seconds, seconds_since(t0));
    }

    const auto pts = static_cast<double>(loads.size());
    s.pooled_points_per_sec =
        s.pooled_seconds > 0.0 ? pts / s.pooled_seconds : 0.0;
    s.legacy_points_per_sec =
        s.legacy_seconds > 0.0 ? pts / s.legacy_seconds : 0.0;
    s.speedup =
        s.pooled_seconds > 0.0 ? s.legacy_seconds / s.pooled_seconds : 0.0;
    report.samples.push_back(s);
  }

  // Scaling efficiency relative to the first (typically 1-thread) sample.
  const SweepThroughputSample& base = report.samples.front();
  for (SweepThroughputSample& s : report.samples) {
    if (base.pooled_points_per_sec > 0.0 && s.threads > 0) {
      s.efficiency = (s.pooled_points_per_sec / base.pooled_points_per_sec) *
                     static_cast<double>(base.threads) /
                     static_cast<double>(s.threads);
    }
  }

  cfg.threads = 1;
  profile_section(
      static_cast<double>(loads.size()) * static_cast<double>(cfg.runs),
      report.hw, [&] { (void)sweep_load(app, cfg, loads); });
  return report;
}

std::string sweep_throughput_to_json(const SweepThroughputReport& report) {
  std::ostringstream os;
  JsonWriter w(os, 2);
  w.begin_object()
      .key("benchmark").value("sweep_throughput")
      .key("label").value(report.label)
      .key("points").value(report.points)
      .key("runs").value(report.runs)
      .key("schemes").value(report.schemes)
      .key("host_threads").value(report.host_threads)
      .key("cycles_per_run").value(report.hw.cycles_per_run)
      .key("ipc").value(report.hw.ipc)
      .key("samples").begin_array();
  for (const SweepThroughputSample& s : report.samples) {
    std::ostringstream item;
    JsonWriter iw(item);
    iw.begin_object()
        .key("threads").value(s.threads)
        .key("pooled_seconds").value(s.pooled_seconds)
        .key("pooled_points_per_sec").value(s.pooled_points_per_sec)
        .key("legacy_seconds").value(s.legacy_seconds)
        .key("legacy_points_per_sec").value(s.legacy_points_per_sec)
        .key("speedup").value(s.speedup)
        .key("efficiency").value(s.efficiency)
        .end_object();
    w.raw(item.str());
  }
  w.end_array().end_object();
  os << "\n";
  return os.str();
}

std::string measure_pool_balance_json(const Application& app,
                                      ExperimentConfig cfg,
                                      const std::vector<double>& loads) {
  PASERTA_REQUIRE(!loads.empty(), "need at least one sweep point");
  MetricsRegistry reg;  // scoped: the measurement cannot bleed elsewhere
  cfg.collect_metrics = true;
  cfg.registry = &reg;
  (void)sweep_load(app, cfg, loads);
  const MetricsSnapshot snap = reg.snapshot();

  const auto counter_row =
      [&](const std::string& name) -> const MetricsSnapshot::CounterRow* {
    for (const auto& row : snap.counters)
      if (row.name == name) return &row;
    return nullptr;
  };
  const auto shard_list = [&](std::ostream& os, const std::string& name) {
    os << "[";
    if (const auto* row = counter_row(name)) {
      for (std::size_t i = 0; i < row->shards.size(); ++i)
        os << (i ? ", " : "") << row->shards[i];
    }
    os << "]";
  };

  std::ostringstream os;
  os << "{\n"
     << "    \"threads\": " << cfg.threads << ",\n"
     << "    \"chunks_per_slot\": ";
  shard_list(os, "pool.chunks_completed");
  os << ",\n    \"busy_ns_per_slot\": ";
  shard_list(os, "pool.busy_ns");
  os << ",\n    \"idle_ns_per_slot\": ";
  shard_list(os, "pool.idle_ns");
  std::uint64_t count = 0;
  double sum = 0.0;
  double p50 = std::numeric_limits<double>::quiet_NaN();
  double p95 = p50;
  for (const auto& h : snap.histograms) {
    if (h.name == "pool.chunk_seconds") {
      count = h.count;
      sum = h.sum;
      // Latency percentiles: re-resolve the live histogram under the
      // snapshot's own (registered) bounds — registration is idempotent
      // for identical bounds — and interpolate within the matched bucket.
      // Estimates at bucket resolution, good enough to spot a
      // straggler-dominated chunk distribution in the history.
      const Histogram& lat = reg.histogram(h.name, h.bounds);
      p50 = lat.percentile(0.5);
      p95 = lat.percentile(0.95);
    }
  }
  os << ",\n    \"chunk_seconds\": {\"count\": " << count
     << ", \"sum\": " << num(sum) << ", \"p50\": " << num(p50)
     << ", \"p95\": " << num(p95) << "}\n  }";
  return os.str();
}

std::string throughput_history_entry(const std::string& git_rev, bool dirty,
                                     const std::string& date,
                                     const std::string& doc) {
  const std::size_t open = doc.find('{');
  const std::size_t close = doc.rfind('}');
  PASERTA_REQUIRE(open != std::string::npos && close != std::string::npos &&
                      open < close,
                  "history entry needs a JSON object document");
  std::string inner = doc.substr(open + 1, close - open - 1);
  // Trim leading whitespace so the spliced field list stays tidy.
  const std::size_t first = inner.find_first_not_of(" \t\n\r");
  inner = first == std::string::npos ? std::string{} : inner.substr(first);
  std::string entry = "{\n\"git_rev\": \"" + escape(git_rev) +
                      "\",\n\"dirty\": " + (dirty ? "true" : "false") +
                      ",\n\"date\": \"" + escape(date) + "\",\n";
  if (inner.empty() || inner[0] == '}') {
    // Empty document: drop the trailing comma separator.
    entry.erase(entry.size() - 2, 1);
    entry += "}\n";
    return entry;
  }
  entry += inner;
  if (entry.back() != '\n') entry.push_back('\n');
  entry += "}\n";
  return entry;
}

std::string throughput_history_append(const std::string& existing,
                                      const std::string& entry) {
  const std::size_t last = existing.find_last_not_of(" \t\n\r");
  if (last == std::string::npos) return "[\n" + entry + "]\n";
  if (existing[last] == ']') {
    // Already a history array: splice before the closing bracket, with a
    // comma unless the array is empty.
    const std::string head = existing.substr(0, last);
    const std::size_t tail = head.find_last_not_of(" \t\n\r");
    const bool empty_array = tail != std::string::npos && head[tail] == '[';
    std::string out = head;
    if (const std::size_t t2 = out.find_last_not_of(" \t\n\r");
        t2 != std::string::npos)
      out.erase(t2 + 1);
    out += empty_array ? "\n" : ",\n";
    out += entry;
    out += "]\n";
    return out;
  }
  // Legacy single-object baseline: keep it as the first history entry.
  return "[\n" + existing.substr(0, last + 1) + ",\n" + entry + "]\n";
}

}  // namespace paserta
