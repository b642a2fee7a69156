// ATR pipeline example: the paper's motivating workload end-to-end.
//
//   $ ./atr_pipeline [frames]
//
// Processes a stream of frames through the automated-target-recognition
// application on a 2-CPU XScale platform under GSS, printing a per-frame
// energy/deadline report and a final summary comparing all schemes —
// the view a system integrator would want before picking a scheme.
#include <cstdlib>
#include <iostream>

#include "apps/atr.h"
#include "common/stats.h"
#include "core/offline.h"
#include "sim/engine.h"

using namespace paserta;

int main(int argc, char** argv) {
  const int frames = argc > 1 ? std::max(1, std::atoi(argv[1])) : 20;

  apps::AtrConfig atr_cfg;  // 4 ROIs max, alpha = 0.9 (measured)
  const Application app = apps::build_atr(atr_cfg);
  const PowerModel pm(LevelTable::intel_xscale());
  Overheads ovh;

  OfflineOptions opt;
  opt.cpus = 2;
  opt.overhead_budget = ovh.worst_case_budget(pm.table());
  const SimTime w = canonical_worst_makespan(app, opt.cpus,
                                             opt.overhead_budget);
  opt.deadline = deadline_at_load(w, 0.6);
  const OfflineResult off = analyze_offline(app, opt);

  std::cout << "ATR: " << app.graph.task_count() << " tasks, worst case "
            << to_string(w) << ", frame deadline " << to_string(off.deadline())
            << " (load 0.6), 2x Intel XScale\n\n";

  // Per-frame log under GSS.
  Rng rng(1);
  std::cout << "frame  rois  finish      energy_mJ  switches\n";
  std::vector<RunScenario> scenarios;
  for (int f = 0; f < frames; ++f) {
    const RunScenario sc = draw_scenario(app.graph, rng);
    scenarios.push_back(sc);
    const SimResult r = simulate(app, off, pm, ovh, Scheme::GSS, sc);
    int rois = -1;
    for (const TaskRecord& rec : r.trace)
      if (rec.chosen_alt >= 0) rois = rec.chosen_alt + 1;
    std::printf("%4d   %3d   %-10s  %8.3f   %u%s\n", f, rois,
                to_string(r.finish_time).c_str(), r.total_energy() * 1e3,
                r.speed_changes, r.deadline_met ? "" : "  DEADLINE MISS");
  }

  // Scheme comparison over the same frames.
  std::cout << "\nscheme  mean_norm_energy  mean_switches  misses\n";
  std::vector<double> npm(scenarios.size());
  for (std::size_t f = 0; f < scenarios.size(); ++f)
    npm[f] = simulate(app, off, pm, ovh, Scheme::NPM, scenarios[f])
                 .total_energy();
  for (Scheme s : {Scheme::SPM, Scheme::GSS, Scheme::SS1, Scheme::SS2,
                   Scheme::AS}) {
    RunningStat norm, sw;
    int misses = 0;
    for (std::size_t f = 0; f < scenarios.size(); ++f) {
      const SimResult r = simulate(app, off, pm, ovh, s, scenarios[f]);
      norm.add(r.total_energy() / npm[f]);
      sw.add(static_cast<double>(r.speed_changes));
      if (!r.deadline_met) ++misses;
    }
    std::printf("%-7s %10.4f        %8.2f       %d\n", to_string(s),
                norm.mean(), sw.mean(), misses);
  }
  return 0;
}
