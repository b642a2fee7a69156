// Ablation: voltage-transition overhead (paper §5 discusses 25-150 us for
// real hardware of the era and assumes 5 us). Sweeps the switch cost and
// shows how the dynamic schemes' savings erode — and why speculation
// (fewer switches) wins at high overhead.
#include "apps/synthetic.h"
#include "bench_util.h"

using namespace paserta;

int main(int argc, char** argv) {
  const int runs = benchutil::runs_from_args(argc, argv, 500);
  const Application syn = apps::build_synthetic();
  constexpr double kLoad = 0.7;

  for (const LevelTable& table :
       {LevelTable::transmeta_tm5400(), LevelTable::intel_xscale()}) {
    std::vector<SweepPoint> points;
    for (double ovh_us : {0.0, 1.0, 5.0, 25.0, 100.0, 500.0}) {
      auto cfg = benchutil::paper_config(table, 2, runs);
      cfg.overheads.speed_change_time = SimTime::from_us(ovh_us);
      const SimTime deadline = deadline_at_load(
          canonical_worst_makespan(syn, cfg.cpus,
                                   cfg.overheads.worst_case_budget(cfg.table)),
          kLoad);
      points.push_back(run_point(syn, cfg, deadline, ovh_us));
    }
    benchutil::emit("Ablation.overhead." + table.name(),
                    "Energy vs speed-change overhead (us), synthetic, "
                    "2 CPUs, load=0.7",
                    points, "overhead_us");
  }
  return 0;
}
