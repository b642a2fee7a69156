// The three batch workloads: fig4a_sweep, discrete_replay and
// random_explore.
//
// A batch workload is a closed loop of requests issued from one thread. A
// request is one sweep_load call: half of the Fig. 4a load axis on the two
// sweep workloads (".low" = loads 0.1-0.5, ".high" = 0.6-1.0, alternating),
// and one parsed-and-swept random graph on random_explore (".low" = the
// smaller half of the size ladder, ".high" = the larger half).

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "apps/atr.h"
#include "apps/random_app.h"
#include "common/rng.h"
#include "core/offline.h"
#include "graph/canonical_hash.h"
#include "graph/text_format.h"
#include "harness/experiment.h"
#include "harness/figures.h"
#include "obs/metrics.h"
#include "replay.h"
#include "workloads.h"

namespace perfbench {

using namespace paserta;

namespace {

/// Monte-Carlo runs per point of one sweep request.
constexpr int kFig4aRuns = 20000;
constexpr int kDiscreteRuns = 50000;
/// Runs per point of a traced (serial) replay.
constexpr int kTraceRuns = 4000;

/// random_explore: graphs in the set and in the pool it is picked from,
/// loads and runs of one exploration.
constexpr int kExploreGraphs = 120;
constexpr int kExplorePool = 180;
constexpr int kExploreLevels = 6;
constexpr int kExploreRuns = 8;
const std::vector<double> kExploreLoads = {0.5, 0.75, 1.0};
constexpr std::array<int, 3> kExploreCpus = {2, 4, 8};
/// Explorations per throughput block.
constexpr int kBlockOps = 48;

/// Expanded-node bands of the size ladder, one per level.
constexpr std::array<std::array<int, 2>, kExploreLevels> kNodeBands = {{
    {100, 230}, {230, 360}, {360, 490}, {490, 620}, {620, 760}, {760, 900}}};

double ms(double s) { return s * 1e3; }

/// SweepPoint::dedup summed over a window's points.
struct DedupTotals {
  std::uint64_t hits = 0, misses = 0, bytes = 0, points = 0;

  void add(const std::vector<SweepPoint>& pts) {
    for (const SweepPoint& p : pts) {
      if (!p.dedup.enabled) continue;
      ++points;
      hits += p.dedup.hits;
      misses += p.dedup.misses;
      bytes += p.dedup.bytes;
    }
  }
};

/// Pool, engine, dedup and offline-cache counters of a traced window.
void read_window_counters(const MetricsRegistry& reg, const DedupTotals& d,
                          double requests, double runs, LayerReport& rep) {
  std::uint64_t busy = 0, idle = 0, chunks = 0, dispatches = 0;
  std::uint64_t cache_hits = 0, cache_misses = 0;
  for (const auto& c : reg.snapshot().counters) {
    if (c.name == "pool.busy_ns") busy = c.value;
    if (c.name == "pool.idle_ns") idle = c.value;
    if (c.name == "pool.chunks_completed") chunks = c.value;
    if (c.name == "offline.cache.hits") cache_hits = c.value;
    if (c.name == "offline.cache.misses") cache_misses = c.value;
    const std::string suffix = ".dispatches";
    if (c.name.rfind("engine.", 0) == 0 && c.name.size() > suffix.size() &&
        c.name.compare(c.name.size() - suffix.size(), suffix.size(),
                       suffix) == 0)
      dispatches += c.value;
  }
  if (busy + idle > 0)
    rep.pool_busy_frac =
        static_cast<double>(busy) / static_cast<double>(busy + idle);
  rep.pool_idle_ms = static_cast<double>(idle) * 1e-6 / requests;
  rep.pool_chunks = static_cast<double>(chunks) / requests;
  rep.dispatches_per_run = static_cast<double>(dispatches) / runs;
  if (cache_hits + cache_misses > 0)
    rep.offline_cache_hit_rate =
        static_cast<double>(cache_hits) /
        static_cast<double>(cache_hits + cache_misses);

  if (d.points > 0) {
    rep.dedup_hit_rate =
        static_cast<double>(d.hits) / static_cast<double>(d.hits + d.misses);
    rep.dedup_distinct =
        static_cast<double>(d.misses) / static_cast<double>(d.points);
    rep.dedup_mb =
        static_cast<double>(d.bytes) / 1e6 / static_cast<double>(d.points);
  }
}

/// Recomputes one sweep point alone at one thread with dedup off and
/// compares its rendering byte for byte with the window's.
bool recompute_matches(const Application& app, ExperimentConfig cfg,
                       const SweepPoint& seen) {
  cfg.threads = 1;
  cfg.dedup = DedupMode::kOff;
  cfg.collect_metrics = false;
  cfg.registry = nullptr;
  const CanonicalAnalysis canon = analyze_canonical(
      app, CanonicalOptions{cfg.cpus,
                            cfg.overheads.worst_case_budget(cfg.table),
                            cfg.heuristic});
  const SweepPoint again =
      run_point(app, cfg, deadline_for_load(canon.worst_makespan(), seen.x),
                seen.x);
  return sweep_json({seen}, app.name) == sweep_json({again}, app.name);
}

/// The end-to-end metrics, times and rates as on the reference host
/// (HostSpeed).
void emit_e2e(Result& r, const HostSpeed& speed, double setup_s,
              double cpu_us_per_op, double ops_per_s,
              const std::vector<double>& lat_low,
              const std::vector<double>& lat_high, double max_rps) {
  const double slow = speed.slowdown();
  r.note("host_slowdown", slow);
  r.note("host_probes", static_cast<double>(speed.samples()));
  r.metric("setup_s", setup_s / slow, "s");
  r.metric("peak_rss_mb", process_peak_rss_mb(), "MB");
  r.metric("cpu_us_per_op", cpu_us_per_op / slow, "us");
  r.metric("ops_per_s", ops_per_s * slow, "1/s");
  r.metric("p50_ms.low", ms(quantile(lat_low, 0.5)) / slow, "ms");
  r.metric("p50_ms.high", ms(quantile(lat_high, 0.5)) / slow, "ms");
  r.metric("max_rps", max_rps * slow, "1/s");
}

// ---- fig4a_sweep / discrete_replay ----------------------------------------

struct SweepSetup {
  Application app;
  ExperimentConfig cfg;
  std::vector<double> loads[2];  // [0] = low half, [1] = high half
};

SweepSetup make_sweep(bool discrete, int runs, int threads) {
  const FigureDef fig = paper_figure("fig4a", runs);
  SweepSetup s;
  s.cfg = fig.config;
  s.cfg.threads = threads;
  if (discrete) {
    apps::AtrConfig atr;
    atr.alpha = 1.0;  // ACET = WCET: OR forks are the only randomness
    s.app = apps::build_atr(atr);
  } else {
    s.app = figure_workload(fig);
  }
  s.loads[0] = sweep_range(0.1, 0.5, 0.1);
  s.loads[1] = sweep_range(0.6, 1.0, 0.1);
  return s;
}

/// The Monte-Carlo seed of request `i` of a run seeded with `seed`.
std::uint64_t request_seed(std::uint64_t seed, std::int64_t i) {
  return mix64(seed * 0x100000001B3ULL + static_cast<std::uint64_t>(i));
}

}  // namespace

Result run_sweep_workload(const Options& o, bool discrete) {
  Result r;
  const int runs = discrete ? kDiscreteRuns : kFig4aRuns;
  const int threads = hardware_threads();

  // Set-up: build the workload and run one warm request pair, which
  // spins up the worker pool and faults in the staging memory. Repeated
  // before and during the window (SetupTimes); the median is reported.
  SetupTimes setup;
  SweepSetup s;
  const auto set_up = [&] {
    s = make_sweep(discrete, runs, threads);
    for (int h = 0; h < 2; ++h) {
      ExperimentConfig cfg = s.cfg;
      cfg.seed = request_seed(o.seed, -1 - h);
      (void)sweep_load(s.app, cfg, s.loads[h]);
    }
  };
  setup.round(set_up, [] {});

  // Requests whose points are kept for the recompute check: one low and
  // one high among the first few, picked by the seed. The others are
  // checked as they complete and dropped, so the window's memory is the
  // program's.
  Rng pick(mix64(o.seed ^ 0xC0FFEE));
  const std::set<std::int64_t> keep = {
      2 * static_cast<std::int64_t>(pick.next_below(4)),
      2 * static_cast<std::int64_t>(pick.next_below(4)) + 1};
  std::map<std::int64_t, std::vector<SweepPoint>> kept;

  // Timed window: requests alternate low and high halves, whole pairs.
  MetricsRegistry reg;
  DedupTotals dedup;
  std::vector<double> lat[2];
  // Throughput and CPU cost come from the median request pair, so a
  // slow stretch of the host shifts them only when it covers most of the
  // window.
  std::vector<double> pair_s, pair_cpu_s;
  HostSpeed speed;
  std::int64_t requests = 0;
  std::uint64_t missed = 0;
  double pair_cpu0 = process_cpu_seconds();
  const std::int64_t w0 = now_ns();
  for (;; ++requests) {
    ExperimentConfig cfg = s.cfg;
    cfg.seed = request_seed(o.seed, requests);
    if (o.trace) {
      cfg.collect_metrics = true;
      cfg.registry = &reg;
    }
    const int h = static_cast<int>(requests % 2);
    const std::int64_t t0 = now_ns();
    std::vector<SweepPoint> pts = sweep_load(s.app, cfg, s.loads[h]);
    lat[h].push_back(seconds_since(t0));
    if (!no_misses(pts)) missed += 5u * static_cast<std::uint64_t>(runs);
    dedup.add(pts);
    if (keep.count(requests) != 0) kept[requests] = std::move(pts);
    if (h == 1) {
      pair_s.push_back(lat[0].back() + lat[1].back());
      const double cpu = process_cpu_seconds();
      pair_cpu_s.push_back(cpu - pair_cpu0);
      if (seconds_since(w0) >= o.seconds) break;
      if (!o.trace) {
        speed.sample();
        setup.interleave(set_up, seconds_since(w0));
      }
      pair_cpu0 = process_cpu_seconds();
    }
  }
  ++requests;
  const double window_s = seconds_since(w0);
  const double ops = static_cast<double>(requests) * 5.0 * runs;
  const double pair_ops = 2 * 5.0 * runs;

  // Output checks: no deadline miss at any load <= 1, and the kept
  // requests' points recomputed alone at one thread with dedup off must
  // render byte-identically.
  r.attempted = static_cast<std::uint64_t>(ops);
  r.failed = missed;
  int mismatches = 0;
  for (const auto& [i, pts] : kept) {
    ExperimentConfig cfg = s.cfg;
    cfg.seed = request_seed(o.seed, i);
    if (!recompute_matches(s.app, cfg, pts[pick.next_below(pts.size())])) {
      ++mismatches;
      r.failed += static_cast<std::uint64_t>(runs);
    }
  }
  r.note("requests", static_cast<double>(requests));
  r.note("runs_per_point", runs);
  r.note("threads", threads);
  r.note("window_s", window_s);
  r.note("recompute_mismatches", mismatches);

  if (!o.trace) {
    r.note("setup_s_each", setup.times());
    emit_e2e(r, speed, median(setup.times()), median(pair_cpu_s) * 1e6 / pair_ops,
             pair_ops / median(pair_s), lat[0], lat[1], 2.0 / median(pair_s));
    r.correct = r.failed == 0;
    return r;
  }

  // Traced run: window counters, then one low and one high request
  // replayed serially at kTraceRuns runs per point.
  LayerReport rep;
  read_window_counters(reg, dedup, static_cast<double>(requests), ops, rep);
  rep.p99_ms_low = ms(quantile(lat[0], 0.99));
  rep.p99_ms_high = ms(quantile(lat[1], 0.99));

  SpanLog log(true);
  ExperimentConfig tcfg = s.cfg;
  tcfg.runs = std::min(runs, kTraceRuns);
  for (int h = 0; h < 2; ++h) {
    tcfg.seed = request_seed(o.seed, h);
    ++r.attempted;
    if (!trace_sweep_op(s.app, tcfg, s.loads[h], 0.0, false, log, h, rep))
      ++r.failed;
  }
  rep.error_frac =
      static_cast<double>(r.failed) / static_cast<double>(r.attempted);
  r.note("trace_file", log.write(o));
  emit_layer_metrics(rep, r);
  r.correct = r.failed == 0;
  return r;
}

// ---- random_explore -------------------------------------------------------

namespace {

struct ExploreGraph {
  std::string text;
  int level = 0;
};

/// The generator settings of ladder level `k`: deeper nesting and larger
/// sections as the level rises, with loops and OR branches throughout.
apps::RandomAppConfig level_config(int k) {
  apps::RandomAppConfig c;
  c.max_depth = 2 + k / 2;                 // 2..4
  c.max_section_tasks = 6 + (6 * k) / 5;   // 6..12
  c.max_segments = 4;
  c.branch_prob = 0.35;
  c.loop_prob = 0.2;
  c.max_loop_iters = 3;
  return c;
}

/// The graph set of a run: a seeded pick of kExploreGraphs graphs, in a
/// seeded order, from a pool of kExplorePool that is the same for every
/// seed. The pool is drawn by rejection sampling, each graph's level
/// drawing programs until one expands into its node band. Drawn from one
/// fixed stream, it costs the same to render for every seed, so set-up
/// time does not depend on the seed. Graph i of the set, like graph i of
/// the pool, is on level i % kExploreLevels.
std::vector<ExploreGraph> make_explore_graphs(std::uint64_t seed) {
  std::vector<ExploreGraph> pool;
  pool.reserve(kExplorePool);
  Rng rng(mix64(0xE8F1A3ULL));
  for (int i = 0; i < kExplorePool; ++i) {
    const int level = i % kExploreLevels;
    const apps::RandomAppConfig cfg = level_config(level);
    const auto& band = kNodeBands[static_cast<std::size_t>(level)];
    for (;;) {
      const Program prog = apps::random_program(rng, cfg);
      const std::string name = "explore" + std::to_string(i);
      const Application app = build_application(name, prog);
      const auto n = static_cast<int>(app.graph.size());
      if (n < band[0] || n >= band[1]) continue;
      pool.push_back({workload_to_string(name, prog), level});
      break;
    }
  }
  // Each level's pool indices, shuffled by the seed.
  Rng pick(mix64(seed ^ 0xE8F1A3ULL));
  std::vector<std::vector<int>> order(kExploreLevels);
  for (int i = 0; i < kExplorePool; ++i) order[i % kExploreLevels].push_back(i);
  for (std::vector<int>& o : order)
    for (std::size_t k = o.size(); k > 1; --k)
      std::swap(o[k - 1], o[pick.next_below(k)]);
  std::vector<ExploreGraph> graphs;
  graphs.reserve(kExploreGraphs);
  for (int i = 0; i < kExploreGraphs; ++i)
    graphs.push_back(pool[static_cast<std::size_t>(
        order[static_cast<std::size_t>(i % kExploreLevels)]
             [static_cast<std::size_t>(i / kExploreLevels)])]);
  return graphs;
}

ExperimentConfig explore_config(std::int64_t i, std::uint64_t seed,
                                int threads) {
  ExperimentConfig cfg;
  cfg.cpus = kExploreCpus[static_cast<std::size_t>(
      (i + i / kExploreGraphs) % static_cast<std::int64_t>(kExploreCpus.size()))];
  cfg.runs = kExploreRuns;
  cfg.threads = threads;
  cfg.seed = request_seed(seed, i);
  return cfg;
}

}  // namespace

std::vector<std::string> explore_graph_texts(std::uint64_t seed) {
  std::vector<std::string> texts;
  for (ExploreGraph& g : make_explore_graphs(seed))
    texts.push_back(std::move(g.text));
  return texts;
}

Result run_random_explore(const Options& o) {
  Result r;
  const int threads = hardware_threads();

  // Set-up: render the graph set, then explore the first few graphs once
  // to spin up the worker pool. Repeated before and during the window
  // (SetupTimes); the median is reported.
  SetupTimes setup;
  std::vector<ExploreGraph> graphs;
  const auto set_up = [&] {
    graphs = make_explore_graphs(o.seed);
    for (int i = 0; i < kExploreLevels; ++i) {
      const Application app =
          load_application_string(graphs[static_cast<std::size_t>(i)].text);
      (void)sweep_load(app, explore_config(-1 - i, o.seed, threads),
                       kExploreLoads);
    }
  };
  setup.round(set_up, [] {});

  // Explorations kept for the recompute check, picked by the seed among
  // the first 64; the others are checked as they complete and dropped.
  Rng pick(mix64(o.seed ^ 0xBADC0DE));
  std::set<std::int64_t> keep;
  while (keep.size() < 4)
    keep.insert(static_cast<std::int64_t>(pick.next_below(64)));
  std::map<std::int64_t, std::vector<SweepPoint>> kept;

  // Throughput and CPU cost come from the median block of kBlockOps
  // explorations, so a slow stretch of the host shifts them only when it
  // covers most of the window.
  MetricsRegistry reg;
  DedupTotals dedup;
  std::vector<double> lat[2];
  std::vector<double> block_s, block_cpu_s;
  HostSpeed speed;
  std::int64_t explored = 0;
  std::uint64_t sim_runs = 0;
  const std::int64_t w0 = now_ns();
  std::int64_t block_t0 = w0;
  double block_cpu0 = process_cpu_seconds();
  for (; seconds_since(w0) < o.seconds; ++explored) {
    const ExploreGraph& g =
        graphs[static_cast<std::size_t>(explored % kExploreGraphs)];
    ExperimentConfig cfg = explore_config(explored, o.seed, threads);
    if (o.trace) {
      cfg.collect_metrics = true;
      cfg.registry = &reg;
    }
    const std::int64_t t0 = now_ns();
    const Application app = load_application_string(g.text);
    std::vector<SweepPoint> pts = sweep_load(app, cfg, kExploreLoads);
    lat[g.level < kExploreLevels / 2 ? 0 : 1].push_back(seconds_since(t0));
    sim_runs += static_cast<std::uint64_t>(cfg.runs) * kExploreLoads.size();
    if (!no_misses(pts)) ++r.failed;
    dedup.add(pts);
    if (keep.count(explored) != 0) kept[explored] = std::move(pts);
    if ((explored + 1) % kBlockOps == 0) {
      const std::int64_t t = now_ns();
      const double cpu = process_cpu_seconds();
      block_s.push_back(static_cast<double>(t - block_t0) * 1e-9);
      block_cpu_s.push_back(cpu - block_cpu0);
      if (!o.trace) {
        speed.sample();
        setup.interleave(set_up, seconds_since(w0));
      }
      block_t0 = now_ns();
      block_cpu0 = process_cpu_seconds();
    }
  }
  const double window_s = seconds_since(w0);
  const auto ops = static_cast<double>(explored);

  // Output checks: the D >= W guarantee on every explored graph (above),
  // and the kept explorations recomputed at one thread with dedup off.
  r.attempted = static_cast<std::uint64_t>(explored);
  int mismatches = 0;
  for (const auto& [i, pts] : kept) {
    const Application app = load_application_string(
        graphs[static_cast<std::size_t>(i % kExploreGraphs)].text);
    ExperimentConfig cfg = explore_config(i, o.seed, 1);
    cfg.dedup = DedupMode::kOff;
    if (sweep_json(sweep_load(app, cfg, kExploreLoads), app.name) !=
        sweep_json(pts, app.name)) {
      ++mismatches;
      ++r.failed;
    }
  }
  r.note("graphs_explored", ops);
  r.note("window_s", window_s);
  r.note("recompute_mismatches", mismatches);

  if (!o.trace) {
    // A window too short for one block counts as one partial block.
    if (block_s.empty()) {
      block_s.push_back(window_s / ops * kBlockOps);
      block_cpu_s.push_back((process_cpu_seconds() - block_cpu0) / ops *
                            kBlockOps);
    }
    const double rate = kBlockOps / median(block_s);
    r.note("setup_s_each", setup.times());
    emit_e2e(r, speed, median(setup.times()), median(block_cpu_s) * 1e6 / kBlockOps,
             rate, lat[0], lat[1], rate);
    r.correct = r.failed == 0;
    return r;
  }

  LayerReport rep;
  read_window_counters(reg, dedup, ops, static_cast<double>(sim_runs), rep);
  rep.p99_ms_low = ms(quantile(lat[0], 0.99));
  rep.p99_ms_high = ms(quantile(lat[1], 0.99));

  // Traced ops: one graph per ladder level, parsed and hashed under spans,
  // then its exploration replayed serially.
  SpanLog log(true);
  for (int level = 0; level < kExploreLevels; ++level) {
    const std::string& text = graphs[static_cast<std::size_t>(level)].text;
    const std::int64_t t0 = now_ns();
    const Application app = load_application_string(text);
    const std::int64_t t1 = now_ns();
    (void)graph_content_hash(app.graph);
    const std::int64_t t2 = now_ns();
    log.add("graph.parse", t0, t1, -1, level);
    log.add("graph.hash", t1, t2, -1, level);
    const double parse_s = static_cast<double>(t1 - t0) * 1e-9;
    rep.parse_us.push_back(parse_s * 1e6);
    rep.parse_bytes += static_cast<double>(text.size());
    rep.parse_s += parse_s;
    rep.hash_us.push_back(static_cast<double>(t2 - t1) * 1e-3);
    rep.nodes.push_back(static_cast<double>(app.graph.size()));
    ++r.attempted;
    if (!trace_sweep_op(app, explore_config(level, o.seed, 1), kExploreLoads,
                        parse_s, false, log, level, rep))
      ++r.failed;
  }
  rep.error_frac =
      static_cast<double>(r.failed) / static_cast<double>(r.attempted);
  r.note("trace_file", log.write(o));
  emit_layer_metrics(rep, r);
  r.correct = r.failed == 0;
  return r;
}

}  // namespace perfbench
