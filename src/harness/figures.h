// Registry of the paper's figures and of every study in EXPERIMENTS.md as
// executable experiment definitions.
//
// Each figure of the evaluation section is a (workload, platform, sweep)
// triple. Each study (the level tables, the three figure pairs, the
// ablations and extensions) is an id and one function that writes its
// CSV blocks; `paserta_cli reproduce <id>|all` prints them. Keeping both
// in the library makes the exact configurations unit-testable and
// reusable, and every one of them starts from paper_config.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "harness/experiment.h"

namespace paserta {

/// The paper's platform: `cpus` processors on `table`, `runs` Monte-Carlo
/// runs per point, seed 20020818 (ICPP 2002), 300-cycle speed computation
/// and 5 us speed changes.
ExperimentConfig paper_config(const LevelTable& table, int cpus, int runs);

struct FigureDef {
  std::string id;        // "fig4a", "fig5b", ...
  std::string caption;
  std::string x_name;    // "load" or "alpha"
  ExperimentConfig config;
  std::vector<double> xs;      // sweep values
  double fixed_load = 0.0;     // for alpha sweeps

  bool is_alpha_sweep() const { return x_name == "alpha"; }
};

/// All figures of the paper's §5, in order: fig4a, fig4b, fig5a, fig5b,
/// fig6a, fig6b. `runs` defaults to the paper's 1000 per point.
std::vector<FigureDef> paper_figures(int runs = 1000);

/// Looks up one figure by id; throws paserta::Error if unknown.
FigureDef paper_figure(const std::string& id, int runs = 1000);

/// Builds the figure's workload (ATR for fig4/fig5, the synthetic Figure-3
/// application for fig6).
Application figure_workload(const FigureDef& figure);

/// Runs the figure end-to-end and returns its sweep points.
std::vector<SweepPoint> run_figure(const FigureDef& figure);

/// The built-in workload `name`: "@atr", "@synthetic" or "@mpeg". Throws
/// paserta::Error naming the choices for any other name.
Application builtin_workload(const std::string& name);

struct StudyDef {
  std::string id;     // "tables", "fig4", "overhead", ...
  std::string title;  // one line
  /// Runs per point when none are given; 0 for tables, which simulates
  /// nothing and ignores the count.
  int default_runs = 0;
  /// Writes the study's "# "-headed CSV blocks at `runs` runs per point.
  void (*write)(std::ostream& os, int runs) = nullptr;
};

/// Every study, in EXPERIMENTS.md order (the ids of DESIGN.md §5).
const std::vector<StudyDef>& paper_studies();

/// Looks up one study by id; throws paserta::Error if unknown.
const StudyDef& study(const std::string& id);

}  // namespace paserta
