// Ablation: number of discrete speed levels between f_min and f_max (the
// paper's §6 planned experiment; Chandrakasan et al. showed a few levels
// suffice). Fewer levels also reduce greedy's switch count — the paper's
// second explanation for GSS's surprising competitiveness.
#include "apps/synthetic.h"
#include "bench_util.h"

using namespace paserta;

int main(int argc, char** argv) {
  const int runs = benchutil::runs_from_args(argc, argv, 500);
  const Application syn = apps::build_synthetic();
  constexpr double kLoad = 0.5;

  std::vector<SweepPoint> points;
  for (std::size_t n_levels : {2u, 3u, 5u, 9u, 17u, 33u, 200u}) {
    const LevelTable table =
        LevelTable::synthetic("n" + std::to_string(n_levels), n_levels,
                              200 * kMHz, 1000 * kMHz, 0.9, 1.8);
    auto cfg = benchutil::paper_config(table, 2, runs);
    const SimTime deadline = deadline_at_load(
        canonical_worst_makespan(syn, cfg.cpus,
                                 cfg.overheads.worst_case_budget(cfg.table)),
        kLoad);
    points.push_back(
        run_point(syn, cfg, deadline, static_cast<double>(n_levels)));
  }
  benchutil::emit("Ablation.levels",
                  "Energy vs number of speed levels, synthetic, 2 CPUs, "
                  "load=0.5, 200MHz..1GHz",
                  points, "n_levels");
  return 0;
}
