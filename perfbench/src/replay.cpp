#include "replay.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_map>

#include "core/offline.h"
#include "core/policy.h"
#include "harness/json.h"
#include "obs/metrics.h"
#include "sim/batch_engine.h"
#include "sim/engine.h"
#include "sim/sampler.h"
#include "sim/scenario.h"

namespace perfbench {

using namespace paserta;

namespace {

/// Per-scheme outcome of one run, computed with the harness's expressions
/// (harness/experiment.cpp evaluate_scenario).
struct Outcome {
  double norm_energy = 0.0;
  double speed_changes = 0.0;
  double finish_frac = 0.0;
  double busy_frac = 0.0;
  double overhead_frac = 0.0;
  double idle_frac = 0.0;
  bool has_norm = false;
  bool has_fracs = false;
  bool missed = false;
};

struct Record {
  double npm_energy = 0.0;
  bool degenerate = false;
  std::vector<Outcome> rows;
};

/// One simulate call, policy reset included as the harness pays it per
/// run; with an enabled `log` it is timed and gets a span.
SimResult timed_simulate(const Application& app, const OfflineResult& off,
                         const PowerModel& pm, const ExperimentConfig& cfg,
                         SpeedPolicy& policy, const RunScenario& sc,
                         SimWorkspace& ws, SpanLog& log, int parent,
                         std::int64_t op, LayerReport& rep) {
  SimOptions opt;
  opt.record_trace = false;
  if (!log.enabled()) {
    policy.reset(off, pm);
    return simulate(app, off, pm, cfg.overheads, policy, sc, ws, opt);
  }
  const std::int64_t t0 = now_ns();
  policy.reset(off, pm);
  SimResult r = simulate(app, off, pm, cfg.overheads, policy, sc, ws, opt);
  const std::int64_t t1 = now_ns();
  log.add("engine.simulate", t0, t1, parent, op);
  rep.simulate_ns.push_back(static_cast<double>(t1 - t0));
  rep.engine_s += static_cast<double>(t1 - t0) * 1e-9;
  ++rep.simulate_calls;
  rep.dispatches += r.dispatched;
  return r;
}

/// One simulate_batch call over the first `lanes` rows of `batch`; with an
/// enabled `log` it is timed, gets a span, and adds its time per simulated
/// run to the engine's per-call samples.
void timed_simulate_batch(const Application& app, const OfflineResult& off,
                          const PowerModel& pm, const ExperimentConfig& cfg,
                          Scheme scheme, const ScenarioBatch& batch,
                          std::size_t lanes, BatchWorkspace& ws,
                          SimResult* results, SpanLog& log, int parent,
                          std::int64_t op, LayerReport& rep) {
  if (!log.enabled()) {
    simulate_batch(app, off, pm, cfg.overheads, scheme, cfg.policy_options,
                   batch, lanes, ws, results);
    return;
  }
  const std::int64_t t0 = now_ns();
  simulate_batch(app, off, pm, cfg.overheads, scheme, cfg.policy_options,
                 batch, lanes, ws, results);
  const std::int64_t t1 = now_ns();
  log.add("engine.simulate_batch", t0, t1, parent, op);
  rep.simulate_ns.push_back(static_cast<double>(t1 - t0) /
                            static_cast<double>(lanes));
  rep.engine_s += static_cast<double>(t1 - t0) * 1e-9;
  ++rep.simulate_calls;
  for (std::size_t l = 0; l < lanes; ++l) rep.dispatches += results[l].dispatched;
}

/// A scheme's outcome of one run, from the run's record of the NPM baseline.
Outcome outcome_of(const SimResult& r, const Record& rec, SimTime deadline) {
  Outcome o;
  if (!rec.degenerate) {
    o.norm_energy = r.total_energy() / rec.npm_energy;
    o.has_norm = true;
  }
  o.speed_changes = static_cast<double>(r.speed_changes);
  o.finish_frac = static_cast<double>(r.finish_time.ps) /
                  static_cast<double>(deadline.ps);
  const Energy total = r.total_energy();
  if (total > 0.0) {
    o.busy_frac = r.busy_energy / total;
    o.overhead_frac = r.overhead_energy / total;
    o.idle_frac = r.idle_energy / total;
    o.has_fracs = true;
  }
  o.missed = !r.deadline_met;
  return o;
}

void set_npm(Record& rec, const SimResult& npm, std::size_t nschemes) {
  rec.rows.resize(nschemes);
  rec.npm_energy = npm.total_energy();
  rec.degenerate = !(rec.npm_energy > 0.0);
}

}  // namespace

SimTime deadline_for_load(SimTime worst, double load) {
  return SimTime{static_cast<std::int64_t>(
      std::ceil(static_cast<double>(worst.ps) / load))};
}

std::vector<SweepPoint> replay_sweep(const Application& app,
                                     const ExperimentConfig& cfg,
                                     const std::vector<double>& loads,
                                     SpanLog& log, int parent, std::int64_t op,
                                     LayerReport& rep, ReplayTimes& times) {
  const bool per_call = log.enabled();
  const PowerModel pm(cfg.table, cfg.c_ef, cfg.idle_fraction);
  const CanonicalOptions copt{cfg.cpus,
                              cfg.overheads.worst_case_budget(cfg.table),
                              cfg.heuristic};
  // Times [t0, now) into `total` and, per call, into a span and `us`.
  const auto lap = [&](const char* name, std::int64_t t0, double& total,
                       std::vector<double>& us) {
    const std::int64_t t1 = now_ns();
    total += static_cast<double>(t1 - t0) * 1e-9;
    if (per_call) {
      log.add(name, t0, t1, parent, op);
      us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    }
  };

  std::int64_t t0 = now_ns();
  const CanonicalAnalysis canon = analyze_canonical(app, copt);
  lap("offline.analyze", t0, times.analyze, rep.analyze_us);
  if (per_call) ++rep.analyze_calls;
  t0 = now_ns();
  const ScenarioSampler sampler(app.graph);
  lap("sampler.compile", t0, times.compile, rep.compile_us);
  const bool dedup = resolved_dedup(cfg, sampler.scenario_space());

  // The engine sweep_load runs for this configuration: simulate_batch over
  // `lanes` runs per call, or the scalar simulate per run (lanes == 0).
  const auto lanes = static_cast<std::size_t>(resolved_batch_lanes(cfg));
  std::vector<std::unique_ptr<SpeedPolicy>> policies;
  for (Scheme s : cfg.schemes)
    policies.push_back(make_policy(s, cfg.policy_options));
  const std::unique_ptr<SpeedPolicy> npm = make_policy(Scheme::NPM);
  SimWorkspace ws;
  BatchWorkspace bws;
  std::vector<SimResult> results(lanes);
  const auto runs = static_cast<std::size_t>(cfg.runs);
  const std::size_t nodes = app.graph.size();
  // Scenarios: one per run for the scalar engine; for the batched engine,
  // groups of `lanes` records, record d in row d % lanes of group
  // d / lanes (a dedup point draws into `scratch` and fills the groups
  // with its distinct scenarios afterwards).
  std::vector<RunScenario> scenarios(lanes == 0 ? runs : 0);
  std::vector<ScenarioBatch> groups;
  ScenarioBatch scratch;
  if (lanes > 0) {
    groups.resize((runs + lanes - 1) / lanes);
    for (ScenarioBatch& g : groups) g.ensure(lanes, nodes);
    scratch.ensure(1, nodes);
  }
  std::vector<std::uint64_t> keys(dedup ? runs * sampler.op_count() : 0);
  std::vector<std::size_t> record_of(runs);
  std::vector<std::size_t> distinct;  // first run of each record
  std::vector<Record> records;
  const std::size_t nschemes = cfg.schemes.size();

  std::vector<SweepPoint> points;
  for (const double load : loads) {
    const SimTime deadline = deadline_for_load(canon.worst_makespan(), load);
    t0 = now_ns();
    const OfflineResult off = apply_deadline(canon, deadline);
    lap("offline.apply", t0, times.apply, rep.apply_us);

    // Every run's scenario first, each from its own seed-derived stream.
    const std::int64_t draw0 = now_ns();
    for (std::size_t run = 0; run < runs; ++run) {
      Rng rng(Rng::stream_seed(cfg.seed, run));
      const std::int64_t c0 = per_call ? now_ns() : 0;
      std::uint64_t* key =
          dedup ? keys.data() + run * sampler.op_count() : nullptr;
      if (lanes == 0) {
        if (dedup) {
          sampler.draw_into(rng, scenarios[run], key);
        } else {
          sampler.draw_into(rng, scenarios[run]);
        }
      } else if (dedup) {
        sampler.draw_into(rng, scratch, 0, key);
      } else {
        sampler.draw_into(rng, groups[run / lanes], run % lanes);
      }
      if (per_call) {
        const std::int64_t c1 = now_ns();
        log.add("sampler.draw", c0, c1, parent, op);
        rep.draw_ns.push_back(static_cast<double>(c1 - c0));
      }
    }
    times.draw += seconds_since(draw0);

    // Records to simulate: one per run, or one per distinct scenario of a
    // dedup point, as run_point does (the lookup is the benchmark's own
    // bookkeeping and stays outside the timed loops).
    distinct.clear();
    if (dedup) {
      std::unordered_map<std::string, std::size_t> seen;
      const std::size_t words = sampler.op_count() * sizeof(std::uint64_t);
      for (std::size_t run = 0; run < runs; ++run) {
        const std::string key(
            reinterpret_cast<const char*>(keys.data() +
                                          run * sampler.op_count()),
            words);
        const auto [it, fresh] = seen.emplace(key, distinct.size());
        if (fresh) distinct.push_back(run);
        record_of[run] = it->second;
      }
      // The batched engine's rows: each distinct scenario drawn again from
      // its run's stream, untimed.
      for (std::size_t d = 0; lanes > 0 && d < distinct.size(); ++d) {
        Rng rng(Rng::stream_seed(cfg.seed, distinct[d]));
        sampler.draw_into(rng, groups[d / lanes], d % lanes);
      }
    } else {
      for (std::size_t run = 0; run < runs; ++run) {
        distinct.push_back(run);
        record_of[run] = run;
      }
    }

    records.resize(distinct.size());
    const std::int64_t sim0 = now_ns();
    if (lanes == 0) {
      for (std::size_t d = 0; d < distinct.size(); ++d) {
        const RunScenario& sc = scenarios[distinct[d]];
        Record& rec = records[d];
        set_npm(rec,
                timed_simulate(app, off, pm, cfg, *npm, sc, ws, log, parent,
                               op, rep),
                nschemes);
        for (std::size_t s = 0; s < nschemes; ++s)
          rec.rows[s] = outcome_of(
              timed_simulate(app, off, pm, cfg, *policies[s], sc, ws, log,
                             parent, op, rep),
              rec, deadline);
      }
    } else {
      // As the harness's batched chunks: the NPM baseline over a group's
      // rows first, then one scheme after another over the same rows.
      for (std::size_t base = 0; base < distinct.size(); base += lanes) {
        const ScenarioBatch& group = groups[base / lanes];
        const std::size_t n = std::min(lanes, distinct.size() - base);
        timed_simulate_batch(app, off, pm, cfg, Scheme::NPM, group, n, bws,
                             results.data(), log, parent, op, rep);
        for (std::size_t l = 0; l < n; ++l)
          set_npm(records[base + l], results[l], nschemes);
        for (std::size_t s = 0; s < nschemes; ++s) {
          timed_simulate_batch(app, off, pm, cfg, cfg.schemes[s], group, n,
                               bws, results.data(), log, parent, op, rep);
          for (std::size_t l = 0; l < n; ++l)
            records[base + l].rows[s] =
                outcome_of(results[l], records[base + l], deadline);
        }
      }
    }
    times.simulate += seconds_since(sim0);

    // Run-order accumulation, as the harness finalizes a point.
    SweepPoint pt;
    pt.x = load;
    pt.deadline = deadline;
    pt.worst_makespan = off.worst_makespan();
    pt.stats.resize(nschemes);
    for (std::size_t s = 0; s < nschemes; ++s)
      pt.stats[s].scheme = cfg.schemes[s];
    for (std::size_t run = 0; run < runs; ++run) {
      const Record& rec = records[record_of[run]];
      pt.npm_energy.add(rec.npm_energy);
      if (rec.degenerate) ++pt.degenerate_runs;
      for (std::size_t s = 0; s < nschemes; ++s) {
        const Outcome& o = rec.rows[s];
        SchemeStats& st = pt.stats[s];
        if (o.has_norm) st.norm_energy.add(o.norm_energy);
        st.speed_changes.add(o.speed_changes);
        st.finish_frac.add(o.finish_frac);
        if (o.has_fracs) {
          st.busy_frac.add(o.busy_frac);
          st.overhead_frac.add(o.overhead_frac);
          st.idle_frac.add(o.idle_frac);
        }
        if (o.missed) ++st.deadline_misses;
      }
    }
    points.push_back(std::move(pt));
  }
  return points;
}

namespace {

bool near(double a, double b) {
  if (a == b) return true;
  return std::abs(a - b) <= 1e-9 * std::max(std::abs(a), std::abs(b));
}

bool same_stat(const RunningStat& a, const RunningStat& b) {
  return a.count() == b.count() && near(a.mean(), b.mean()) &&
         near(a.min(), b.min()) && near(a.max(), b.max());
}

}  // namespace

bool same_points(const std::vector<SweepPoint>& a,
                 const std::vector<SweepPoint>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t p = 0; p < a.size(); ++p) {
    const SweepPoint& x = a[p];
    const SweepPoint& y = b[p];
    if (x.x != y.x || x.deadline != y.deadline ||
        x.worst_makespan != y.worst_makespan ||
        x.degenerate_runs != y.degenerate_runs ||
        !same_stat(x.npm_energy, y.npm_energy) ||
        x.stats.size() != y.stats.size())
      return false;
    for (std::size_t s = 0; s < x.stats.size(); ++s) {
      const SchemeStats& u = x.stats[s];
      const SchemeStats& v = y.stats[s];
      if (u.scheme != v.scheme || u.deadline_misses != v.deadline_misses ||
          !same_stat(u.norm_energy, v.norm_energy) ||
          !same_stat(u.speed_changes, v.speed_changes) ||
          !same_stat(u.finish_frac, v.finish_frac) ||
          !same_stat(u.busy_frac, v.busy_frac) ||
          !same_stat(u.overhead_frac, v.overhead_frac) ||
          !same_stat(u.idle_frac, v.idle_frac))
        return false;
    }
  }
  return true;
}

std::string sweep_json(const std::vector<SweepPoint>& points,
                       const std::string& app_name) {
  JsonExportOptions jopt;
  jopt.experiment_id = app_name + "-load";
  jopt.caption = "paserta_cli sweep";
  jopt.x_name = "load";
  return sweep_to_json(points, jopt);
}

bool no_misses(const std::vector<SweepPoint>& points) {
  for (const SweepPoint& p : points) {
    if (p.x > 1.0) continue;
    for (const SchemeStats& st : p.stats)
      if (st.deadline_misses != 0) return false;
  }
  return true;
}

bool trace_sweep_op(const Application& app, ExperimentConfig cfg,
                    const std::vector<double>& loads, double parse_s,
                    bool obs_on_path, SpanLog& log, std::int64_t op,
                    LayerReport& rep) {
  cfg.threads = 1;
  cfg.collect_metrics = false;
  cfg.registry = nullptr;
  const int root = log.open("op", -1, op);

  // The call itself, with the heap high-water mark it reaches.
  heap_tracking(true);
  const std::int64_t live0 = heap_live_bytes();
  std::int64_t t0 = now_ns();
  const std::vector<SweepPoint> pts = sweep_load(app, cfg, loads);
  std::int64_t t1 = now_ns();
  const std::int64_t peak = heap_peak_bytes();
  heap_tracking(false);
  log.add("call.sweep_load", t0, t1, root, op);
  const double call_s = static_cast<double>(t1 - t0) * 1e-9;
  const double runs =
      static_cast<double>(cfg.runs) * static_cast<double>(loads.size());
  rep.bytes_per_run.push_back(static_cast<double>(peak - live0) / runs);

  // The same call with the obs registry attached: its extra time is the
  // obs layer's cost.
  double obs_s = 0.0;
  if (obs_on_path) {
    MetricsRegistry reg;
    ExperimentConfig cfg_obs = cfg;
    cfg_obs.collect_metrics = true;
    cfg_obs.registry = &reg;
    t0 = now_ns();
    (void)sweep_load(app, cfg_obs, loads);
    t1 = now_ns();
    log.add("call.sweep_load.metrics", t0, t1, root, op);
    obs_s = std::max(0.0, static_cast<double>(t1 - t0) * 1e-9 - call_s);
  }

  SpanLog quiet(false);
  ReplayTimes bulk, per_call;
  t0 = now_ns();
  const bool bulk_ok =
      same_points(pts, replay_sweep(app, cfg, loads, quiet, -1, op, rep, bulk));
  log.add("replay.bulk", t0, now_ns(), root, op);
  const int rp = log.open("replay.per_call", root, op);
  const bool per_call_ok = same_points(
      pts, replay_sweep(app, cfg, loads, log, rp, op, rep, per_call));
  log.close(rp);
  log.close(root);

  const double core_s = bulk.analyze + bulk.apply;
  const double sampler_s = bulk.compile + bulk.draw;
  rep.t_graph += parse_s;
  rep.t_core += core_s;
  rep.t_sim += sampler_s + bulk.simulate;
  rep.t_harness += std::max(0.0, call_s - bulk.total());
  rep.t_obs += obs_s;
  rep.overhead_frac.push_back(
      std::max(0.0, (call_s - sampler_s - bulk.simulate) / call_s));
  rep.trace_overhead.push_back((per_call.total() - bulk.total()) /
                               bulk.total());
  return bulk_ok && per_call_ok;
}

void emit_layer_metrics(const LayerReport& rep, Result& r) {
  const double t_total = rep.t_graph + rep.t_core + rep.t_sim +
                         rep.t_harness + rep.t_serve + rep.t_obs;
  const auto share = [&](double t) { return t_total > 0.0 ? t / t_total : 0.0; };
  const auto q = [](const std::vector<double>& v, double p) {
    return quantile(v, p);
  };

  r.metric("engine.simulate.calls", static_cast<double>(rep.simulate_calls),
           "count");
  r.metric("engine.simulate.ns_p50", q(rep.simulate_ns, 0.5), "ns");
  r.metric("engine.simulate.ns_p99", q(rep.simulate_ns, 0.99), "ns");
  r.metric("engine.dispatches_per_run", rep.dispatches_per_run, "count");
  r.metric("engine.ns_per_dispatch",
           rep.dispatches > 0
               ? rep.engine_s * 1e9 / static_cast<double>(rep.dispatches)
               : 0.0,
           "ns");
  r.metric("sampler.draw.ns_p50", q(rep.draw_ns, 0.5), "ns");
  r.metric("sampler.compile.us_p50", q(rep.compile_us, 0.5), "us");
  r.metric("pool.busy_frac", rep.pool_busy_frac, "ratio");
  r.metric("pool.idle_ms", rep.pool_idle_ms, "ms");
  r.metric("pool.chunks", rep.pool_chunks, "count");
  r.metric("dedup.hit_rate", rep.dedup_hit_rate, "ratio");
  r.metric("dedup.distinct", rep.dedup_distinct, "count");
  r.metric("dedup.mb", rep.dedup_mb, "MB");
  r.metric("harness.overhead_frac", median(rep.overhead_frac), "ratio");
  r.metric("harness.bytes_per_run", median(rep.bytes_per_run), "B");
  r.metric("graph.parse.calls", static_cast<double>(rep.parse_us.size()),
           "count");
  r.metric("graph.parse.us_p50", q(rep.parse_us, 0.5), "us");
  r.metric("graph.parse.mb_per_s",
           rep.parse_s > 0.0 ? rep.parse_bytes / rep.parse_s / 1e6 : 0.0,
           "MB/s");
  r.metric("graph.nodes.p50", q(rep.nodes, 0.5), "count");
  r.metric("graph.hash.us_p50", q(rep.hash_us, 0.5), "us");
  r.metric("offline.analyze.calls", static_cast<double>(rep.analyze_calls),
           "count");
  r.metric("offline.analyze.us_p50", q(rep.analyze_us, 0.5), "us");
  r.metric("offline.apply.us_p50", q(rep.apply_us, 0.5), "us");
  r.metric("offline.cache.hit_rate", rep.offline_cache_hit_rate, "ratio");
  r.metric("serve.parse.us_p50", q(rep.serve_parse_us, 0.5), "us");
  r.metric("serve.service.ms_p50", q(rep.service_ms, 0.5), "ms");
  r.metric("serve.service.ms_p99", q(rep.service_ms, 0.99), "ms");
  r.metric("serve.isolated.ms_p50", q(rep.isolated_ms, 0.5), "ms");
  r.metric("serve.socket.ms_p50", q(rep.socket_ms, 0.5), "ms");
  r.metric("serve.coalesced_frac", rep.coalesced_frac, "ratio");
  r.metric("serve.graph_store.hit_rate", rep.graph_store_hit_rate, "ratio");
  r.metric("serve.rejected", rep.rejected, "count");
  r.metric("serve.timeouts", rep.timeouts, "count");
  r.metric("loadgen.lag_ms_p99", rep.lag_ms_p99, "ms");
  r.metric("p99_ms.low", rep.p99_ms_low, "ms");
  r.metric("p99_ms.high", rep.p99_ms_high, "ms");
  r.metric("layer.graph.self_frac", share(rep.t_graph), "ratio");
  r.metric("layer.core.self_frac", share(rep.t_core), "ratio");
  r.metric("layer.sim.self_frac", share(rep.t_sim), "ratio");
  r.metric("layer.harness.self_frac", share(rep.t_harness), "ratio");
  r.metric("layer.serve.self_frac", share(rep.t_serve), "ratio");
  r.metric("layer.obs.self_frac", share(rep.t_obs), "ratio");
  r.metric("trace.overhead_frac", median(rep.trace_overhead), "ratio");
  r.metric("error_frac", rep.error_frac, "ratio");
}

}  // namespace perfbench
