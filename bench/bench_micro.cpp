// Micro-benchmarks (google-benchmark): throughput of the offline analysis,
// the LTF list scheduler and the online simulator — the cost a runtime
// would actually pay per power-management point.
#include <benchmark/benchmark.h>

#include "apps/atr.h"
#include "apps/random_app.h"
#include "apps/synthetic.h"
#include "core/list_sched.h"
#include "core/offline.h"
#include "graph/text_format.h"
#include "sim/batch_engine.h"
#include "sim/engine.h"
#include "sim/sampler.h"

namespace paserta {
namespace {

Application big_random_app(std::uint64_t seed) {
  apps::RandomAppConfig cfg;
  cfg.max_segments = 6;
  cfg.max_section_tasks = 10;
  Rng rng(seed);
  return apps::random_application(rng, cfg, "big");
}

void BM_LtfSchedule(benchmark::State& state) {
  AndOrGraph g;
  std::vector<NodeId> members;
  const auto n = static_cast<int>(state.range(0));
  Rng rng(1);
  for (int i = 0; i < n; ++i)
    members.push_back(g.add_task("t" + std::to_string(i),
                                 SimTime::from_ms(1 + rng.next_below(9)),
                                 SimTime::from_ms(1)));
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j)
      if (rng.next_double() < 0.1) g.add_edge(members[i], members[j]);
  const auto dur = [&g](NodeId id) { return g.node(id).wcet; };
  ListSchedScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ltf_schedule(scratch, g, members, 4, dur));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_LtfSchedule)->Arg(16)->Arg(64)->Arg(256);

void BM_OfflineAnalysis(benchmark::State& state) {
  const Application app = apps::build_atr();
  OfflineOptions o;
  o.cpus = 2;
  o.deadline = SimTime::from_ms(200);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyze_offline(app, o));
  }
}
BENCHMARK(BM_OfflineAnalysis);

void BM_SimulateScheme(benchmark::State& state) {
  const Application app = apps::build_synthetic();
  const PowerModel pm(LevelTable::transmeta_tm5400());
  Overheads ovh;
  OfflineOptions o;
  o.cpus = 2;
  o.deadline = SimTime::from_ms(120);
  o.overhead_budget = ovh.worst_case_budget(pm.table());
  const OfflineResult off = analyze_offline(app, o);
  const Scheme scheme = static_cast<Scheme>(state.range(0));
  Rng rng(5);
  const RunScenario sc = draw_scenario(app.graph, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulate(app, off, pm, ovh, scheme, sc));
  }
}
BENCHMARK(BM_SimulateScheme)
    ->Arg(static_cast<int>(Scheme::NPM))
    ->Arg(static_cast<int>(Scheme::GSS))
    ->Arg(static_cast<int>(Scheme::AS));

// Same simulation through the reusable-workspace overload with trace
// recording off — the configuration the Monte-Carlo harness runs in. The
// delta against BM_SimulateScheme is the per-run allocation + trace cost.
void BM_SimulateWorkspace(benchmark::State& state) {
  const Application app = apps::build_synthetic();
  const PowerModel pm(LevelTable::transmeta_tm5400());
  Overheads ovh;
  OfflineOptions o;
  o.cpus = 2;
  o.deadline = SimTime::from_ms(120);
  o.overhead_budget = ovh.worst_case_budget(pm.table());
  const OfflineResult off = analyze_offline(app, o);
  auto policy = make_policy(static_cast<Scheme>(state.range(0)));
  policy->reset(off, pm);
  Rng rng(5);
  const RunScenario sc = draw_scenario(app.graph, rng);
  SimWorkspace ws;
  SimOptions opt;
  opt.record_trace = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulate(app, off, pm, ovh, *policy, sc, ws, opt));
  }
}
BENCHMARK(BM_SimulateWorkspace)
    ->Arg(static_cast<int>(Scheme::NPM))
    ->Arg(static_cast<int>(Scheme::GSS))
    ->Arg(static_cast<int>(Scheme::AS));

void BM_DrawScenario(benchmark::State& state) {
  const Application app = big_random_app(3);
  Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(draw_scenario(app.graph, rng));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(app.graph.size()));
}
BENCHMARK(BM_DrawScenario);

void BM_SamplerDraw(benchmark::State& state) {
  const Application app = big_random_app(3);
  const ScenarioSampler sampler(app.graph);
  Rng rng(9);
  RunScenario sc;
  for (auto _ : state) {
    sampler.draw_into(rng, sc);
    benchmark::DoNotOptimize(sc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(app.graph.size()));
}
BENCHMARK(BM_SamplerDraw);

// The batched engine's dispatch loop (sim/batch_engine.h) on a wide random
// graph: one simulate_batch call of `lanes` pre-drawn scenarios per
// iteration, items = simulated runs. Lanes = 1 prices the batched loop's
// fixed overhead against BM_SimulateWorkspace; larger lane counts show how
// much of the per-run fixed cost (policy reset, validation, table
// derivation) the batch amortizes away.
void BM_BatchDispatch(benchmark::State& state) {
  const Application app = big_random_app(3);
  const PowerModel pm(LevelTable::transmeta_tm5400());
  Overheads ovh;
  OfflineOptions o;
  o.cpus = 2;
  o.overhead_budget = ovh.worst_case_budget(pm.table());
  o.deadline = SimTime{2 * canonical_worst_makespan(app, o.cpus,
                                                    o.overhead_budget,
                                                    o.heuristic).ps};
  const OfflineResult off = analyze_offline(app, o);
  const auto lanes = static_cast<std::size_t>(state.range(0));
  const ScenarioSampler sampler(app.graph);
  ScenarioBatch batch;
  batch.ensure(lanes, app.graph.size());
  Rng rng(9);
  for (std::size_t l = 0; l < lanes; ++l) sampler.draw_into(rng, batch, l);
  BatchWorkspace ws;
  std::vector<SimResult> results(lanes);
  for (auto _ : state) {
    simulate_batch(app, off, pm, ovh, Scheme::GSS, PolicyOptions{}, batch,
                   lanes, ws, results.data());
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(lanes));
}
BENCHMARK(BM_BatchDispatch)->Arg(1)->Arg(8)->Arg(32);

void BM_GraphValidate(benchmark::State& state) {
  const Application app = big_random_app(4);
  for (auto _ : state) {
    app.graph.validate();
  }
}
BENCHMARK(BM_GraphValidate);

// The cold path every new graph pays once, on one ~500-node program at
// random_explore's ladder settings (depth 3, sections of up to 9 tasks,
// loops and OR branches): loading its workload text (tokenize, parse,
// unroll, flatten, validate), the canonical analysis (LTF schedules of
// every section at WCET and ACET, EOs, remaining-time profiles) and one
// deadline's LST shift.
std::string ladder_text() {
  apps::RandomAppConfig cfg;
  cfg.max_depth = 3;
  cfg.max_section_tasks = 9;
  cfg.max_segments = 4;
  cfg.branch_prob = 0.35;
  cfg.loop_prob = 0.2;
  cfg.max_loop_iters = 3;
  Rng rng(17);
  for (;;) {
    const Program prog = apps::random_program(rng, cfg);
    const std::size_t n = build_application("ladder", prog).graph.size();
    if (n >= 450 && n < 550) return workload_to_string("ladder", prog);
  }
}

void BM_LoadWorkloadText(benchmark::State& state) {
  const std::string text = ladder_text();
  for (auto _ : state) {
    benchmark::DoNotOptimize(load_application_string(text));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_LoadWorkloadText);

void BM_AnalyzeCanonical(benchmark::State& state) {
  const Application app = load_application_string(ladder_text());
  CanonicalOptions opt;
  opt.cpus = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyze_canonical(app, opt));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(app.graph.size()));
}
BENCHMARK(BM_AnalyzeCanonical)->Arg(2)->Arg(8);

void BM_ApplyDeadline(benchmark::State& state) {
  const Application app = load_application_string(ladder_text());
  const CanonicalAnalysis canon = analyze_canonical(app, CanonicalOptions{});
  const SimTime deadline{2 * canon.worst_makespan().ps};
  for (auto _ : state) {
    benchmark::DoNotOptimize(apply_deadline(canon, deadline));
  }
}
BENCHMARK(BM_ApplyDeadline);

}  // namespace
}  // namespace paserta
