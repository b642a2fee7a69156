// Ablation: the minimum-speed ratio f_min/f_max (the paper's §6 planned
// experiment). A higher f_min prevents greedy from burning all slack on
// early tasks, which is exactly why GSS stays competitive with the
// speculative schemes.
#include "apps/synthetic.h"
#include "bench_util.h"

using namespace paserta;

int main(int argc, char** argv) {
  const int runs = benchutil::runs_from_args(argc, argv, 500);
  const Application syn = apps::build_synthetic();
  constexpr double kLoad = 0.5;
  constexpr Freq kFmax = 1000 * kMHz;

  std::vector<SweepPoint> points;
  for (double ratio : {0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9}) {
    const auto fmin = static_cast<Freq>(ratio * static_cast<double>(kFmax));
    const LevelTable table = LevelTable::synthetic(
        "ratio" + std::to_string(ratio), 16, fmin, kFmax,
        0.8 + ratio * 1.0, 1.8);
    auto cfg = benchutil::paper_config(table, 2, runs);
    const SimTime deadline = deadline_at_load(
        canonical_worst_makespan(syn, cfg.cpus,
                                 cfg.overheads.worst_case_budget(cfg.table)),
        kLoad);
    points.push_back(run_point(syn, cfg, deadline, ratio));
  }
  benchutil::emit("Ablation.minspeed",
                  "Energy vs f_min/f_max ratio, synthetic, 2 CPUs, "
                  "load=0.5, 16 levels",
                  points, "fmin_ratio");
  return 0;
}
