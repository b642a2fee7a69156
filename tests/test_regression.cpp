// Golden-baseline regression tests: pinned numeric behaviour of the
// schedulers on fixed configurations. Regenerate after *intentional*
// behaviour changes with:
//   PASERTA_UPDATE_BASELINES=1 ./build/tests/test_regression
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "apps/atr.h"
#include "apps/synthetic.h"
#include "common/error.h"
#include "regression.h"

namespace paserta {
namespace {

std::filesystem::path baseline_dir() {
#ifdef PASERTA_SOURCE_DIR
  return std::filesystem::path(PASERTA_SOURCE_DIR) / "tests" / "baselines";
#else
  return "tests/baselines";
#endif
}

bool update_mode() { return std::getenv("PASERTA_UPDATE_BASELINES"); }

void run_case(const std::string& name, const Application& app,
              const ExperimentConfig& cfg, const std::vector<double>& loads) {
  const auto points = sweep_load(app, cfg, loads);
  const auto path = baseline_dir() / (name + ".csv");
  if (update_mode()) {
    std::filesystem::create_directories(baseline_dir());
    std::ofstream out(path);
    write_baseline(out, points);
    GTEST_SKIP() << "baseline " << path << " regenerated";
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing baseline " << path
                         << " (regenerate with PASERTA_UPDATE_BASELINES=1)";
  const BaselineDiff diff = check_baseline(in, points);
  EXPECT_TRUE(diff.ok) << (diff.mismatches.empty() ? ""
                                                   : diff.mismatches[0]);
  for (const auto& m : diff.mismatches) ADD_FAILURE() << m;
}

ExperimentConfig small_config(const LevelTable& table, int cpus) {
  ExperimentConfig cfg;
  cfg.cpus = cpus;
  cfg.table = table;
  cfg.runs = 60;
  cfg.seed = 20020818;
  return cfg;
}

TEST(Regression, AtrTransmeta2Cpu) {
  run_case("atr_transmeta_2cpu", apps::build_atr(),
           small_config(LevelTable::transmeta_tm5400(), 2),
           {0.25, 0.5, 0.75, 1.0});
}

TEST(Regression, AtrXscale6Cpu) {
  run_case("atr_xscale_6cpu", apps::build_atr(),
           small_config(LevelTable::intel_xscale(), 6), {0.4, 0.8});
}

TEST(Regression, SyntheticXscale2Cpu) {
  run_case("synthetic_xscale_2cpu", apps::build_synthetic(),
           small_config(LevelTable::intel_xscale(), 2), {0.3, 0.6, 0.9});
}

// ---------------------------------------------------------- module itself

TEST(BaselineMachinery, RoundTripPasses) {
  ExperimentConfig cfg = small_config(LevelTable::intel_xscale(), 2);
  cfg.runs = 5;
  const auto points = sweep_load(apps::build_synthetic(), cfg, {0.5});
  std::ostringstream oss;
  write_baseline(oss, points);
  std::istringstream iss(oss.str());
  const BaselineDiff diff = check_baseline(iss, points);
  EXPECT_TRUE(diff.ok) << (diff.mismatches.empty() ? ""
                                                   : diff.mismatches[0]);
}

TEST(BaselineMachinery, DetectsDrift) {
  ExperimentConfig cfg = small_config(LevelTable::intel_xscale(), 2);
  cfg.runs = 5;
  const auto points = sweep_load(apps::build_synthetic(), cfg, {0.5});
  std::ostringstream oss;
  write_baseline(oss, points);

  // Different seed -> different numbers -> the baseline must complain.
  cfg.seed = 99;
  const auto drifted = sweep_load(apps::build_synthetic(), cfg, {0.5});
  std::istringstream iss(oss.str());
  const BaselineDiff diff = check_baseline(iss, drifted);
  EXPECT_FALSE(diff.ok);
  EXPECT_FALSE(diff.mismatches.empty());
}

TEST(BaselineMachinery, ToleranceAllowsSmallDeviation) {
  ExperimentConfig cfg = small_config(LevelTable::intel_xscale(), 2);
  cfg.runs = 10;
  const auto a = sweep_load(apps::build_synthetic(), cfg, {0.5});
  cfg.runs = 11;  // slightly different sample
  const auto b = sweep_load(apps::build_synthetic(), cfg, {0.5});
  std::ostringstream oss;
  write_baseline(oss, a);
  std::istringstream strict(oss.str());
  EXPECT_FALSE(check_baseline(strict, b).ok);
  std::istringstream loose(oss.str());
  EXPECT_TRUE(check_baseline(loose, b, 0.25).ok);
}

TEST(BaselineMachinery, RejectsGarbage) {
  std::istringstream iss("not,a,baseline\n");
  EXPECT_THROW(check_baseline(iss, {}), Error);
}

TEST(BaselineMachinery, ReportsMissingAndExtraKeys) {
  ExperimentConfig cfg = small_config(LevelTable::intel_xscale(), 2);
  cfg.runs = 3;
  const auto one = sweep_load(apps::build_synthetic(), cfg, {0.5});
  const auto two = sweep_load(apps::build_synthetic(), cfg, {0.5, 0.8});
  std::ostringstream oss;
  write_baseline(oss, two);
  std::istringstream iss(oss.str());
  const BaselineDiff diff = check_baseline(iss, one);
  EXPECT_FALSE(diff.ok);  // baseline has points the fresh run lacks
}

}  // namespace
}  // namespace paserta
