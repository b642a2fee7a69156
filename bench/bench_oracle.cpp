// Oracle-gap study (paper §3.3's clairvoyant intuition, quantified):
// how far each scheme sits above the clairvoyant single-speed optimum,
// per load, on both processor models. A gap of 1.0 means oracle-equal.
#include "apps/synthetic.h"
#include "bench_util.h"
#include "common/stats.h"
#include "core/oracle.h"
#include "sim/sampler.h"
#include "core/offline.h"

using namespace paserta;

int main(int argc, char** argv) {
  const int runs = benchutil::runs_from_args(argc, argv, 300);
  const Application app = apps::build_synthetic();
  // One sampler for the whole grid (stream-compatible with draw_scenario).
  const ScenarioSampler sampler(app.graph);
  const std::vector<double> loads = {0.2, 0.4, 0.6, 0.8};
  const Scheme schemes[] = {Scheme::SPM, Scheme::GSS, Scheme::SS1,
                            Scheme::SS2, Scheme::AS};

  for (const LevelTable& table :
       {LevelTable::transmeta_tm5400(), LevelTable::intel_xscale()}) {
    const PowerModel pm(table);
    Overheads ovh;
    ovh.speed_change_time = SimTime::from_us(5.0);

    std::cout << "# Oracle gap (scheme energy / clairvoyant single-speed "
                 "energy), synthetic, 2 CPUs, " << table.name() << ", runs="
              << runs << "\n";
    Table t({"load", "SPM", "GSS", "SS1", "SS2", "AS"});
    for (double load : loads) {
      OfflineOptions o;
      o.cpus = 2;
      o.overhead_budget = ovh.worst_case_budget(table);
      o.deadline = deadline_at_load(
          canonical_worst_makespan(app, 2, o.overhead_budget), load);
      const OfflineResult off = analyze_offline(app, o);

      Rng master(991);
      std::vector<RunningStat> gap(std::size(schemes));
      for (int r = 0; r < runs; ++r) {
        Rng rng = master.fork();
        const RunScenario sc = sampler.draw(rng);
        const OracleResult oracle = clairvoyant_oracle(app, off, pm, ovh, sc);
        for (std::size_t s = 0; s < std::size(schemes); ++s) {
          const SimResult res = simulate(app, off, pm, ovh, schemes[s], sc);
          gap[s].add(res.total_energy() / oracle.energy);
        }
      }
      std::vector<std::string> row{Table::num(load, 2)};
      for (auto& g : gap) row.push_back(Table::num(g.mean()));
      t.add_row(std::move(row));
    }
    t.write_csv(std::cout);
    std::cout << "\n";
  }
  return 0;
}
