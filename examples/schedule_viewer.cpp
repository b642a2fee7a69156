// Schedule viewer: load a workload from a text file, run it under two
// schemes and render their Gantt charts side by side.
//
//   $ ./schedule_viewer [workload_file] [load] [cpus]
//
// Defaults to the bundled video-analytics pipeline at load 0.5 on 2 CPUs.
// Shows the workload-as-data pathway (graph/text_format.h), the Gantt
// renderer and the trace analytics in one place.
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "core/offline.h"
#include "core/oracle.h"
#include "graph/text_format.h"
#include "sim/gantt.h"
#include "sim/trace_stats.h"

using namespace paserta;

int main(int argc, char** argv) {
  const std::string path =
      argc > 1 ? argv[1] : "examples/workloads/videopipe.workload";
  const double load = argc > 2 ? std::atof(argv[2]) : 0.5;
  const int cpus = argc > 3 ? std::max(1, std::atoi(argv[3])) : 2;

  std::ifstream in(path);
  if (!in) {
    std::cerr << "cannot open workload file '" << path
              << "' (run from the repository root, or pass a path)\n";
    return 1;
  }
  const Application app = load_application(in);
  std::cout << "Loaded '" << app.name << "': " << app.graph.task_count()
            << " tasks, " << app.or_fork_count() << " OR fork(s)\n";

  const PowerModel pm(LevelTable::intel_xscale());
  Overheads ovh;
  OfflineOptions opt;
  opt.cpus = cpus;
  opt.overhead_budget = ovh.worst_case_budget(pm.table());
  const SimTime w = canonical_worst_makespan(app, cpus, opt.overhead_budget);
  opt.deadline = deadline_at_load(w, load);
  const OfflineResult off = analyze_offline(app, opt);
  std::cout << "W = " << to_string(w) << ", deadline = "
            << to_string(off.deadline()) << " (load " << load << "), "
            << cpus << "x Intel XScale\n\n";

  Rng rng(2002);
  const RunScenario sc = draw_scenario(app.graph, rng);

  for (Scheme scheme : {Scheme::GSS, Scheme::SS1}) {
    const SimResult r = simulate(app, off, pm, ovh, scheme, sc);
    const TraceStats st = analyze_trace(app, off, pm, r);
    std::cout << "=== " << to_string(scheme) << " ===  energy "
              << r.total_energy() * 1e3 << " mJ, " << r.speed_changes
              << " switch(es), utilization "
              << static_cast<int>(st.utilization * 100) << "%, dominant level "
              << st.dominant_level().freq / kMHz << " MHz\n";
    render_gantt(std::cout, app, off, pm, r);
    std::cout << "\n";
  }

  const OracleResult oracle = clairvoyant_oracle(app, off, pm, ovh, sc);
  std::cout << "clairvoyant single-speed optimum for this frame: "
            << pm.table().level(oracle.level).freq / kMHz << " MHz, "
            << oracle.energy * 1e3 << " mJ\n";
  return 0;
}
