// Tests for the figure and study registry: the exact experiment
// configurations the paper's figures use, small-scale end-to-end smoke
// runs asserting the qualitative shapes EXPERIMENTS.md reports, and every
// study of EXPERIMENTS.md running from the registry.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <utility>

#include "common/error.h"
#include "harness/figures.h"

namespace paserta {
namespace {

TEST(Figures, RegistryComplete) {
  const auto figs = paper_figures();
  ASSERT_EQ(figs.size(), 6u);
  EXPECT_EQ(figs[0].id, "fig4a");
  EXPECT_EQ(figs[5].id, "fig6b");
  for (const auto& f : figs) {
    EXPECT_EQ(f.config.runs, 1000);  // the paper's count
    EXPECT_EQ(f.config.overheads.speed_change_time, SimTime::from_us(5));
    EXPECT_EQ(f.config.overheads.speed_compute_cycles, 300u);
    EXPECT_EQ(f.xs.size(), 19u);  // 0.1..1.0 step 0.05
  }
}

TEST(Figures, LookupById) {
  const FigureDef f = paper_figure("fig5b", 10);
  EXPECT_EQ(f.config.cpus, 6);
  EXPECT_EQ(f.config.table.name(), "IntelXScale");
  EXPECT_EQ(f.config.runs, 10);
  EXPECT_FALSE(f.is_alpha_sweep());
  EXPECT_THROW(paper_figure("fig9z"), Error);
}

TEST(Figures, AlphaFiguresUseSyntheticAtLoad09) {
  const FigureDef f = paper_figure("fig6a");
  EXPECT_TRUE(f.is_alpha_sweep());
  EXPECT_DOUBLE_EQ(f.fixed_load, 0.9);
  EXPECT_EQ(figure_workload(f).name, "synthetic_fig3");
  EXPECT_EQ(figure_workload(paper_figure("fig4a")).name, "atr");
}

TEST(Figures, Fig4aShapeSmoke) {
  // Scaled-down fig4a: the two headline shapes must already show at 60
  // runs — (1) energy dips then rises with load; (2) zero misses.
  FigureDef f = paper_figure("fig4a", 60);
  f.xs = {0.1, 0.4, 1.0};
  const auto points = run_figure(f);
  ASSERT_EQ(points.size(), 3u);
  const double at01 = points[0].of(Scheme::GSS).norm_energy.mean();
  const double at04 = points[1].of(Scheme::GSS).norm_energy.mean();
  const double at10 = points[2].of(Scheme::GSS).norm_energy.mean();
  EXPECT_GT(at01, at04);  // the counter-intuitive dip
  EXPECT_LT(at04, at10);  // and the rise
  for (const auto& p : points)
    for (const auto& st : p.stats) EXPECT_EQ(st.deadline_misses, 0u);
}

TEST(Figures, Fig6bSpmEqualsNpmSmoke) {
  // The paper's §5.2 remark: on XScale at load 0.9, SPM degenerates to
  // NPM (900 MHz desire rounds up to f_max), normalized energy exactly 1.
  FigureDef f = paper_figure("fig6b", 20);
  f.xs = {0.5};
  const auto points = run_figure(f);
  EXPECT_NEAR(points[0].of(Scheme::SPM).norm_energy.mean(), 1.0, 1e-9);
  // While the dynamic schemes save substantially.
  EXPECT_LT(points[0].of(Scheme::GSS).norm_energy.mean(), 0.8);
}

TEST(Figures, Fig5SavesLessThanFig4) {
  // 6 CPUs save less than 2 at like load (limited parallelism, forced
  // idleness) — the paper's processor-count claim.
  FigureDef f4 = paper_figure("fig4a", 40);
  FigureDef f5 = paper_figure("fig5a", 40);
  f4.xs = f5.xs = {0.6};
  const double e2 = run_figure(f4)[0].of(Scheme::GSS).norm_energy.mean();
  const double e6 = run_figure(f5)[0].of(Scheme::GSS).norm_energy.mean();
  EXPECT_LT(e2, e6);
}

TEST(Studies, RegistryHoldsTheSixteenStudiesWithTheirRunCounts) {
  // DESIGN.md §5's study ids, in EXPERIMENTS.md order, with the run count
  // each uses when none is given (0: simulates nothing).
  const std::vector<std::pair<std::string, int>> expected = {
      {"tables", 0},        {"fig4", 1000},      {"fig5", 1000},
      {"fig6", 1000},       {"procs", 500},      {"layered", 400},
      {"overhead", 500},    {"minspeed", 500},   {"levels", 500},
      {"oracle", 300},      {"independent", 500}, {"significance", 1000},
      {"idle", 500},        {"heuristic", 500},  {"rounding", 500},
      {"loopmode", 500}};
  std::vector<std::pair<std::string, int>> got;
  std::set<std::string> ids;
  for (const StudyDef& s : paper_studies()) {
    got.emplace_back(s.id, s.default_runs);
    ids.insert(s.id);
    EXPECT_FALSE(s.title.empty()) << s.id;
    EXPECT_EQ(&study(s.id), &s);
  }
  EXPECT_EQ(got, expected);
  EXPECT_EQ(ids.size(), got.size());  // unique
  EXPECT_THROW(study("nope"), Error);
  EXPECT_THROW(study("all"), Error);  // the CLI's word, not a study
}

TEST(Studies, EveryStudyWritesHeadedCsvAtEightRuns) {
  for (const StudyDef& s : paper_studies()) {
    SCOPED_TRACE(s.id);
    std::ostringstream os;
    s.write(os, 8);
    const std::string out = os.str();
    ASSERT_FALSE(out.empty());
    EXPECT_EQ(out.rfind("# ", 0), 0u);
  }
}

TEST(Studies, FigureStudiesPrintBothPanelsAtTheGivenRunCount) {
  std::ostringstream os;
  study("fig6").write(os, 8);
  const std::string out = os.str();
  EXPECT_EQ(out.rfind("# Fig.6a: ", 0), 0u);
  EXPECT_NE(out.find("\n# Fig.6b: "), std::string::npos);
  EXPECT_NE(out.find(", runs=8\n"), std::string::npos);
}

TEST(Studies, PaperConfigIsThePaperPlatform) {
  const ExperimentConfig cfg =
      paper_config(LevelTable::intel_xscale(), 6, 42);
  EXPECT_EQ(cfg.cpus, 6);
  EXPECT_EQ(cfg.runs, 42);
  EXPECT_EQ(cfg.table.name(), "IntelXScale");
  EXPECT_EQ(cfg.seed, 20020818u);
  EXPECT_EQ(cfg.overheads.speed_compute_cycles, 300u);
  EXPECT_EQ(cfg.overheads.speed_change_time, SimTime::from_us(5));
}

TEST(Studies, BuiltinWorkloadsByName) {
  EXPECT_EQ(builtin_workload("@atr").name, "atr");
  EXPECT_EQ(builtin_workload("@synthetic").name, "synthetic_fig3");
  EXPECT_FALSE(builtin_workload("@mpeg").name.empty());
  try {
    builtin_workload("@nope");
    FAIL() << "unknown built-in accepted";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(),
                 "unknown built-in workload @nope (use @atr, @synthetic or "
                 "@mpeg)");
  }
}

}  // namespace
}  // namespace paserta
