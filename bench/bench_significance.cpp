// Head-to-head scheme comparison with paired statistics: is AS's advantage
// over GSS (and over SS1) statistically real at the paper's run counts?
// Uses per-run energy differences on identical scenarios (paired design)
// and a one-sample t-test against zero.
#include "apps/atr.h"
#include "bench_util.h"
#include "common/significance.h"
#include "core/offline.h"
#include "sim/engine.h"
#include "sim/sampler.h"

using namespace paserta;

int main(int argc, char** argv) {
  const int runs = benchutil::runs_from_args(argc, argv, 1000);
  const Application app = apps::build_atr();
  // One sampler for all loads/tables: the graph never changes, and
  // draw() is stream-compatible with the per-run draw_scenario walk.
  const ScenarioSampler sampler(app.graph);

  for (const LevelTable& table :
       {LevelTable::transmeta_tm5400(), LevelTable::intel_xscale()}) {
    const PowerModel pm(table);
    Overheads ovh;
    ovh.speed_change_time = SimTime::from_us(5.0);

    std::cout << "# Paired per-run energy differences (normalized to NPM), "
              << "ATR, 2 CPUs, " << table.name() << ", runs=" << runs
              << "\n";
    Table t({"load", "pair", "mean_diff", "ci95", "t", "p", "verdict"});
    for (double load : {0.3, 0.5, 0.7, 0.9}) {
      OfflineOptions o;
      o.cpus = 2;
      o.overhead_budget = ovh.worst_case_budget(table);
      o.deadline = deadline_at_load(
          canonical_worst_makespan(app, 2, o.overhead_budget), load);
      const OfflineResult off = analyze_offline(app, o);

      RunningStat as_vs_gss, as_vs_ss1;
      for (int r = 0; r < runs; ++r) {
        Rng rng(Rng::stream_seed(1234, static_cast<std::uint64_t>(r)));
        const RunScenario sc = sampler.draw(rng);
        const double npm =
            simulate(app, off, pm, ovh, Scheme::NPM, sc).total_energy();
        const double gss =
            simulate(app, off, pm, ovh, Scheme::GSS, sc).total_energy() / npm;
        const double ss1 =
            simulate(app, off, pm, ovh, Scheme::SS1, sc).total_energy() / npm;
        const double as =
            simulate(app, off, pm, ovh, Scheme::AS, sc).total_energy() / npm;
        as_vs_gss.add(as - gss);
        as_vs_ss1.add(as - ss1);
      }
      for (const auto& [name, stat] :
           {std::pair<const char*, const RunningStat*>{"AS-GSS", &as_vs_gss},
            {"AS-SS1", &as_vs_ss1}}) {
        const TTestResult tt = one_sample_t_test(*stat);
        t.add_row({Table::num(load, 2), name, Table::num(tt.mean_diff, 5),
                   Table::num(tt.ci95_halfwidth, 5), Table::num(tt.t, 2),
                   Table::num(tt.p_value, 6),
                   tt.significant()
                       ? (tt.mean_diff < 0 ? "AS significantly better"
                                           : "AS significantly worse")
                       : "no significant difference"});
      }
    }
    t.write_csv(std::cout);
    std::cout << "\n";
  }
  return 0;
}
