// Tests for the Welch t-test machinery against known reference values.
#include <gtest/gtest.h>

#include <cmath>
#include <initializer_list>
#include <limits>

#include "common/error.h"
#include "common/rng.h"
#include "common/significance.h"

namespace paserta {
namespace {

// ----------------------------------------------- incomplete beta function

TEST(IncompleteBeta, KnownValues) {
  // I_x(1,1) = x (uniform CDF).
  EXPECT_NEAR(regularized_incomplete_beta(1, 1, 0.3), 0.3, 1e-12);
  // I_x(2,2) = 3x^2 - 2x^3.
  EXPECT_NEAR(regularized_incomplete_beta(2, 2, 0.4),
              3 * 0.16 - 2 * 0.064, 1e-12);
  // Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a).
  const double v = regularized_incomplete_beta(2.5, 4.0, 0.35);
  EXPECT_NEAR(v, 1.0 - regularized_incomplete_beta(4.0, 2.5, 0.65), 1e-12);
  // Endpoints.
  EXPECT_EQ(regularized_incomplete_beta(3, 2, 0.0), 0.0);
  EXPECT_EQ(regularized_incomplete_beta(3, 2, 1.0), 1.0);
}

TEST(IncompleteBeta, DomainChecked) {
  EXPECT_THROW(regularized_incomplete_beta(0, 1, 0.5), Error);
  EXPECT_THROW(regularized_incomplete_beta(1, 1, 1.5), Error);
}

// ----------------------------------------------------- Student-t p-values

TEST(StudentT, ReferenceQuantiles) {
  // Two-sided p at the textbook critical values.
  // t = 2.776, df = 4 -> p = 0.05.
  EXPECT_NEAR(student_t_two_sided_p(2.776, 4), 0.05, 2e-4);
  // t = 1.96, df -> large ~ normal -> p = 0.05.
  EXPECT_NEAR(student_t_two_sided_p(1.96, 10000), 0.05, 5e-4);
  // t = 0 -> p = 1.
  EXPECT_DOUBLE_EQ(student_t_two_sided_p(0.0, 7), 1.0);
  // Symmetric in t.
  EXPECT_DOUBLE_EQ(student_t_two_sided_p(1.5, 9),
                   student_t_two_sided_p(-1.5, 9));
  // Infinite t -> p = 0.
  EXPECT_EQ(student_t_two_sided_p(
                std::numeric_limits<double>::infinity(), 5),
            0.0);
}

// ------------------------------------------------------------ Welch test

RunningStat sample(Rng& rng, int n, double mean, double sd) {
  RunningStat st;
  for (int i = 0; i < n; ++i) st.add(rng.next_normal(mean, sd));
  return st;
}

TEST(Welch, DetectsClearDifference) {
  Rng rng(1);
  const RunningStat a = sample(rng, 200, 0.50, 0.05);
  const RunningStat b = sample(rng, 200, 0.55, 0.05);
  const TTestResult r = welch_t_test(a, b);
  EXPECT_LT(r.p_value, 1e-6);
  EXPECT_TRUE(r.significant());
  EXPECT_NEAR(r.mean_diff, -0.05, 0.02);
  EXPECT_LT(r.t, 0.0);
}

TEST(Welch, NoFalsePositiveOnEqualMeans) {
  // Same distribution: across repetitions, p < 0.05 should be rare.
  Rng rng(2);
  int rejections = 0;
  const int trials = 200;
  for (int k = 0; k < trials; ++k) {
    const RunningStat a = sample(rng, 50, 1.0, 0.2);
    const RunningStat b = sample(rng, 50, 1.0, 0.2);
    if (welch_t_test(a, b).significant()) ++rejections;
  }
  // Expected ~5 % rejections; allow generous slack.
  EXPECT_LT(rejections, trials / 8);
}

TEST(Welch, PValueIsRoughlyUniformUnderNull) {
  Rng rng(3);
  RunningStat pvals;
  for (int k = 0; k < 300; ++k) {
    const RunningStat a = sample(rng, 40, 2.0, 0.3);
    const RunningStat b = sample(rng, 40, 2.0, 0.3);
    pvals.add(welch_t_test(a, b).p_value);
  }
  EXPECT_NEAR(pvals.mean(), 0.5, 0.07);
}

TEST(Welch, UnequalVariancesHandled) {
  Rng rng(4);
  const RunningStat a = sample(rng, 30, 1.0, 0.01);
  const RunningStat b = sample(rng, 300, 1.0, 1.0);
  const TTestResult r = welch_t_test(a, b);
  // Welch df is dominated by the noisier sample, far below the pooled df.
  EXPECT_LT(r.df, 340.0);
  EXPECT_GT(r.df, 10.0);
  EXPECT_FALSE(r.significant());
}

TEST(Welch, DegenerateZeroVariance) {
  RunningStat a, b, c;
  for (int i = 0; i < 5; ++i) {
    a.add(1.0);
    b.add(1.0);
    c.add(2.0);
  }
  EXPECT_DOUBLE_EQ(welch_t_test(a, b).p_value, 1.0);
  EXPECT_DOUBLE_EQ(welch_t_test(a, c).p_value, 0.0);
}

TEST(Welch, RequiresTwoObservations) {
  RunningStat a, b;
  a.add(1.0);
  b.add(1.0);
  b.add(2.0);
  EXPECT_THROW(welch_t_test(a, b), Error);
}

// ------------------------------------------------------ one-sample t-test

RunningStat sample_of(std::initializer_list<double> xs) {
  RunningStat s;
  for (double x : xs) s.add(x);
  return s;
}

TEST(OneSampleT, OneDegreeOfFreedomIsCauchy) {
  // {1, 3}: mean 2, s^2 = 2, se = 1, so t = 2 on 1 df, whose two-sided
  // tail is the Cauchy one, 1 - (2/pi) atan 2.
  const TTestResult r = one_sample_t_test(sample_of({1, 3}));
  EXPECT_DOUBLE_EQ(r.mean_diff, 2.0);
  EXPECT_NEAR(r.t, 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(r.df, 1.0);
  EXPECT_NEAR(r.p_value, 1.0 - 2.0 / std::acos(-1.0) * std::atan(2.0),
              1e-10);
  EXPECT_NEAR(r.p_value, 0.2951672353, 1e-10);
  EXPECT_NEAR(r.ci95_halfwidth, 1.96, 1e-12);  // 1.96 standard errors
  EXPECT_FALSE(r.significant());
}

TEST(OneSampleT, TwoDegreesOfFreedomClosedForm) {
  // {1, 2, 3}: mean 2, s^2 = 1, se = 1/sqrt 3, so t = 2 sqrt 3 on 2 df,
  // where P(|T| >= t) = 1 - t / sqrt(2 + t^2) = 1 - sqrt(6/7).
  const TTestResult r = one_sample_t_test(sample_of({1, 2, 3}));
  EXPECT_NEAR(r.t, 2.0 * std::sqrt(3.0), 1e-12);
  EXPECT_DOUBLE_EQ(r.df, 2.0);
  EXPECT_NEAR(r.p_value, 1.0 - std::sqrt(6.0 / 7.0), 1e-10);
  EXPECT_NEAR(r.p_value, 0.0741799002, 1e-10);
  EXPECT_NEAR(r.ci95_halfwidth, 1.96 / std::sqrt(3.0), 1e-12);
  EXPECT_NEAR(r.ci95_halfwidth, 1.1316065276, 1e-10);
}

TEST(OneSampleT, MeanAtMu0GivesTZeroAndPOne) {
  const TTestResult r = one_sample_t_test(sample_of({1, 2, 3}), 2.0);
  EXPECT_DOUBLE_EQ(r.mean_diff, 0.0);
  EXPECT_DOUBLE_EQ(r.t, 0.0);
  EXPECT_DOUBLE_EQ(r.p_value, 1.0);
}

TEST(OneSampleT, ZeroVarianceIsExactlyDecided) {
  const RunningStat constant = sample_of({2, 2, 2});
  const TTestResult at = one_sample_t_test(constant, 2.0);
  EXPECT_DOUBLE_EQ(at.t, 0.0);
  EXPECT_DOUBLE_EQ(at.p_value, 1.0);
  const TTestResult off = one_sample_t_test(constant, 1.0);
  EXPECT_EQ(off.t, std::numeric_limits<double>::infinity());
  EXPECT_DOUBLE_EQ(off.p_value, 0.0);
  EXPECT_TRUE(off.significant());
}

TEST(OneSampleT, RequiresTwoObservations) {
  EXPECT_THROW(one_sample_t_test(sample_of({1})), Error);
}

}  // namespace
}  // namespace paserta
