// Tests for the two-phase offline analysis: apply_deadline on a
// CanonicalAnalysis must reproduce analyze_offline bit-for-bit (on AND/OR
// graphs with nested forks), and run_point given a resolved analysis must
// only shift it, running no round-1 work.
#include <gtest/gtest.h>

#include "common/error.h"
#include "core/offline.h"
#include "harness/experiment.h"
#include "harness/json.h"

namespace paserta {
namespace {

SimTime ms(double v) { return SimTime::from_ms(v); }
TaskSpec t(const char* n, double w, double a) {
  return TaskSpec{n, ms(w), ms(a)};
}

/// An application with a branch nested inside a branch alternative, AND
/// parallelism around both, and a loop (which expands into further nested
/// OR structure) — the shape that exercises every recursive walk of the
/// analyzer.
Application nested_fork_app() {
  Program inner_a;
  inner_a.task("ia", ms(3), ms(1));
  Program inner_b;
  inner_b.chain({t("ib1", 2, 1), t("ib2", 5, 2)});

  Program alt1;
  alt1.task("pre1", ms(2), ms(1));
  alt1.branch("inner", {{0.3, std::move(inner_a)}, {0.7, std::move(inner_b)}});
  Program alt2;
  alt2.parallel({t("p1", 4, 2), t("p2", 6, 3), t("p3", 2, 1)});

  Program body;
  body.task("lb", ms(3), ms(2));

  Program p;
  p.parallel({t("s1", 4, 2), t("s2", 3, 1)});
  p.branch("outer", {{0.4, std::move(alt1)}, {0.6, std::move(alt2)}});
  p.loop("lp", std::move(body), {0.5, 0.3, 0.2});
  p.task("tail", ms(2), ms(1));
  return build_application("nested", p);
}

CanonicalOptions copts(int cpus, SimTime budget = SimTime::zero()) {
  CanonicalOptions o;
  o.cpus = cpus;
  o.overhead_budget = budget;
  return o;
}

void expect_offline_identical(const Application& app, const OfflineResult& a,
                              const OfflineResult& b) {
  EXPECT_EQ(a.cpus(), b.cpus());
  EXPECT_EQ(a.deadline(), b.deadline());
  EXPECT_EQ(a.overhead_budget(), b.overhead_budget());
  EXPECT_EQ(a.worst_makespan(), b.worst_makespan());
  EXPECT_EQ(a.average_makespan(), b.average_makespan());
  EXPECT_EQ(a.feasible(), b.feasible());
  EXPECT_EQ(a.max_eo(), b.max_eo());
  for (NodeId id : app.graph.all_nodes()) {
    SCOPED_TRACE(testing::Message() << "node " << id.value);
    EXPECT_EQ(a.eo(id), b.eo(id));
    EXPECT_EQ(a.lst(id), b.lst(id));
    EXPECT_EQ(a.eet(id), b.eet(id));
    EXPECT_EQ(a.inflated_wcet(id), b.inflated_wcet(id));
    EXPECT_EQ(a.rem_w_after(id), b.rem_w_after(id));
    EXPECT_EQ(a.rem_a_after(id), b.rem_a_after(id));
    ASSERT_EQ(a.has_fork_profile(id), b.has_fork_profile(id));
    if (a.has_fork_profile(id)) {
      const OrForkProfile& pa = a.fork_profile(id);
      const OrForkProfile& pb = b.fork_profile(id);
      ASSERT_EQ(pa.rem_w_alt.size(), pb.rem_w_alt.size());
      ASSERT_EQ(pa.rem_a_alt.size(), pb.rem_a_alt.size());
      for (std::size_t i = 0; i < pa.rem_w_alt.size(); ++i) {
        EXPECT_EQ(pa.rem_w_alt[i], pb.rem_w_alt[i]);
        EXPECT_EQ(pa.rem_a_alt[i], pb.rem_a_alt[i]);
      }
    }
  }
}

TEST(CanonicalAnalysis, ShiftedEqualsFreshOnNestedForks) {
  const Application app = nested_fork_app();
  for (int cpus : {1, 2, 3}) {
    const CanonicalAnalysis canon =
        analyze_canonical(app, copts(cpus, SimTime::from_us(50)));
    for (double deadline_ms : {40.0, 60.0, 123.4}) {
      SCOPED_TRACE(testing::Message()
                   << "cpus=" << cpus << " deadline=" << deadline_ms);
      OfflineOptions opt;
      opt.cpus = cpus;
      opt.deadline = ms(deadline_ms);
      opt.overhead_budget = SimTime::from_us(50);
      const OfflineResult fresh = analyze_offline(app, opt);
      const OfflineResult shifted = apply_deadline(canon, ms(deadline_ms));
      expect_offline_identical(app, fresh, shifted);
    }
  }
}

// run_point given the point's canonical analysis only shifts it: no round
// 1 runs, and the point equals one that analyzed from scratch. An analysis
// of other options is refused.
TEST(CanonicalAnalysis, RunPointShiftsAResolvedAnalysis) {
  const Application app = nested_fork_app();
  ExperimentConfig cfg;
  cfg.runs = 16;
  const CanonicalAnalysis canon =
      analyze_canonical(app, canonical_options(cfg));
  const SimTime deadline{canon.worst_makespan().ps * 2};

  const std::uint64_t before = canonical_analysis_count();
  const SweepPoint shifted = run_point(app, cfg, deadline, 0.5, &canon);
  EXPECT_EQ(canonical_analysis_count() - before, 0u);
  const SweepPoint fresh = run_point(app, cfg, deadline, 0.5);
  EXPECT_EQ(sweep_to_json({shifted}, {}), sweep_to_json({fresh}, {}));

  ExperimentConfig other = cfg;
  other.cpus = 3;
  EXPECT_THROW((void)run_point(app, other, deadline, 0.5, &canon), Error);
}

TEST(CanonicalAnalysis, AccessorsMatchOfflineResult) {
  const Application app = nested_fork_app();
  const CanonicalAnalysis canon = analyze_canonical(app, copts(2));
  ASSERT_TRUE(canon.valid());
  EXPECT_EQ(canon.cpus(), 2);
  EXPECT_EQ(&canon.application(), &app);
  EXPECT_EQ(canon.heuristic(), ListHeuristic::LongestTaskFirst);

  const OfflineResult off = apply_deadline(canon, ms(100));
  EXPECT_EQ(off.worst_makespan(), canon.worst_makespan());
  EXPECT_EQ(off.average_makespan(), canon.average_makespan());
  EXPECT_EQ(canon.worst_makespan(),
            canonical_worst_makespan(app, 2, SimTime::zero()));
}

TEST(CanonicalAnalysis, ApplyDeadlineValidatesInput) {
  const Application app = nested_fork_app();
  const CanonicalAnalysis canon = analyze_canonical(app, copts(2));
  EXPECT_THROW(apply_deadline(canon, SimTime::zero()), Error);
  EXPECT_THROW(apply_deadline(CanonicalAnalysis{}, ms(10)), Error);
}

}  // namespace
}  // namespace paserta
