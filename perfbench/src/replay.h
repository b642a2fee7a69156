// The traced run's layer measurements.
//
// A traced operation is timed twice from outside: once as the public call a
// user makes (sweep_load at one thread), and once replayed serially through
// the public calls that sweep_load makes underneath — analyze_canonical,
// apply_deadline, ScenarioSampler, draw_into, and the engine the
// configuration resolves to (simulate_batch over resolved_batch_lanes runs
// per call, or SpeedPolicy::reset and simulate per run). The replayed
// result must equal the call's result, so the layer
// split describes the same work. What the replay does not cover of the
// call's time is harness self time (staging, dedup lookup and replay,
// accumulation, pool plumbing).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "util.h"

namespace perfbench {

/// Every per-layer metric of the benchmark. Workloads fill the fields of
/// the layers they exercise; the others stay 0 (not on that path).
struct LayerReport {
  // Replay call timings; simulate_ns holds one sample per engine call, its
  // time per simulated run.
  std::vector<double> draw_ns;
  std::vector<double> simulate_ns;
  std::vector<double> compile_us;
  std::vector<double> analyze_us;
  std::vector<double> apply_us;
  std::uint64_t simulate_calls = 0;
  std::uint64_t dispatches = 0;
  std::uint64_t analyze_calls = 0;
  double engine_s = 0.0;

  // Self time per layer over the traced operations, seconds.
  double t_graph = 0.0;
  double t_core = 0.0;
  double t_sim = 0.0;
  double t_harness = 0.0;
  double t_serve = 0.0;
  double t_obs = 0.0;

  // harness: uncovered share of point time, and retained bytes per run.
  std::vector<double> overhead_frac;
  std::vector<double> bytes_per_run;

  // graph layer.
  std::vector<double> parse_us;
  double parse_bytes = 0.0;
  double parse_s = 0.0;
  std::vector<double> nodes;
  std::vector<double> hash_us;

  // Counters read from the collect_metrics registry and SweepPoint::dedup
  // during the traced window.
  double pool_busy_frac = 0.0;
  double pool_idle_ms = 0.0;  // per request
  double pool_chunks = 0.0;   // per request
  double dispatches_per_run = 0.0;
  double dedup_hit_rate = 0.0;
  double dedup_distinct = 0.0;  // simulated scenarios per point
  double dedup_mb = 0.0;        // per point
  double offline_cache_hit_rate = 0.0;

  // serve layer.
  std::vector<double> serve_parse_us;
  std::vector<double> service_ms;
  std::vector<double> isolated_ms;
  std::vector<double> socket_ms;
  double coalesced_frac = 0.0;
  double graph_store_hit_rate = 0.0;
  double rejected = 0.0;
  double timeouts = 0.0;
  double lag_ms_p99 = 0.0;

  // Tail latency of the traced window's requests, ms (".low" and ".high"
  // as in the end-to-end latency medians).
  double p99_ms_low = 0.0;
  double p99_ms_high = 0.0;

  // Per traced op: (per-call replay - bulk replay) / bulk replay.
  std::vector<double> trace_overhead;
  double error_frac = 0.0;
};

/// Layer times of one replay, seconds, each phase timed as a whole.
struct ReplayTimes {
  double analyze = 0.0;
  double apply = 0.0;
  double compile = 0.0;
  double draw = 0.0;
  double simulate = 0.0;

  double total() const { return analyze + apply + compile + draw + simulate; }
};

/// Appends every per-layer metric, in a fixed order, to `r`.
void emit_layer_metrics(const LayerReport& rep, Result& r);

/// Replays `sweep_load(app, cfg, loads)` serially (cfg.threads is
/// ignored) and returns the points it reproduces. Per point, every run's
/// scenario is drawn first and the records are simulated after, so each
/// layer is timed as a whole into `times`. With an enabled `log` every
/// public call also gets a span under `parent` and its duration lands in
/// `rep`'s per-call samples (an engine call's as its time per simulated
/// run).
std::vector<paserta::SweepPoint> replay_sweep(
    const paserta::Application& app, const paserta::ExperimentConfig& cfg,
    const std::vector<double>& loads, SpanLog& log, int parent,
    std::int64_t op, LayerReport& rep, ReplayTimes& times);

/// True when two sweeps agree: equal counts, and means and extremes
/// within 1e-9 relative (a reordered floating-point sum still agrees).
bool same_points(const std::vector<paserta::SweepPoint>& a,
                 const std::vector<paserta::SweepPoint>& b);

/// Deadline of a load point, as sweep_load derives it: ceil(W / load).
paserta::SimTime deadline_for_load(paserta::SimTime worst, double load);

/// One traced operation: times sweep_load at one thread and measures the
/// bytes it retains per run, replays it once with each layer timed as a
/// whole and once with a span per call, checks both replays against the
/// call, and adds the layer split to `rep`. `parse_s` is graph-layer time
/// already spent on this operation. With `obs_on_path` (the daemon always
/// collects metrics) the call is timed again with collect_metrics on and
/// the difference is charged to the obs layer. Returns false when a replay
/// disagrees with the call.
bool trace_sweep_op(const paserta::Application& app,
                    paserta::ExperimentConfig cfg,
                    const std::vector<double>& loads, double parse_s,
                    bool obs_on_path, SpanLog& log, std::int64_t op,
                    LayerReport& rep);

/// Renders points the way `paserta_cli sweep --json` does.
std::string sweep_json(const std::vector<paserta::SweepPoint>& points,
                       const std::string& app_name);

/// Zero deadline misses for every scheme at every point with x <= 1 (the
/// paper's D >= W guarantee).
bool no_misses(const std::vector<paserta::SweepPoint>& points);

}  // namespace perfbench
