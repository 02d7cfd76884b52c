// Each benchmark correctness check must fire on a wrong input.

#include <gtest/gtest.h>

#include "analysis/figures.h"
#include "checks.h"
#include "common/statistics.h"
#include "paper_mc.h"
#include "runner/executor.h"
#include "runner/thread_pool.h"

namespace perfbench {
namespace {

TEST(CheckDetected, AllVictimsInLogPass) {
  const std::map<std::uint32_t, double> log = {{3, 120.0}, {9, 840.0}};
  const CheckCount c = check_detected({3, 9}, log);
  EXPECT_EQ(c.attempted, 2);
  EXPECT_EQ(c.failed, 0);
}

TEST(CheckDetected, VictimRemovedFromLogFails) {
  std::map<std::uint32_t, double> log = {{3, 120.0}, {9, 840.0}};
  log.erase(9);
  const CheckCount c = check_detected({3, 9}, log);
  EXPECT_EQ(c.attempted, 2);
  EXPECT_EQ(c.failed, 1);
  EXPECT_EQ(detected_latencies({3, 9}, log), std::vector<double>{120.0});
}

TEST(AnalyticAgrees, ValueInsideIntervalPasses) {
  EXPECT_TRUE(analytic_agrees(500, 1000, 0.5, Bound::kTwoSided));
  EXPECT_TRUE(analytic_agrees(500, 1000, 0.5, Bound::kUpper));
}

TEST(AnalyticAgrees, ScaledAnalyticValueFails) {
  EXPECT_FALSE(analytic_agrees(500, 1000, 0.5 * 1.2, Bound::kTwoSided));
  EXPECT_FALSE(analytic_agrees(500, 1000, 0.5 / 1.2, Bound::kTwoSided));
}

TEST(AnalyticAgrees, UpperBoundFailsOnlyWhenEstimateExceedsIt) {
  // An estimate well below an upper bound is fine; one above it is not.
  EXPECT_TRUE(analytic_agrees(100, 1000, 0.5, Bound::kUpper));
  EXPECT_FALSE(analytic_agrees(500, 1000, 0.4, Bound::kUpper));
}

TEST(AnalyticAgrees, PlainIntervalMatchesWilson99) {
  for (const std::int64_t hits : {0, 1, 7, 40, 500}) {
    const cfds::ProportionInterval ci = cfds::wilson_ci99(hits, 1000);
    EXPECT_TRUE(analytic_agrees(hits, 1000, ci.lo + 1e-9, Bound::kTwoSided));
    EXPECT_TRUE(analytic_agrees(hits, 1000, ci.hi - 1e-9, Bound::kTwoSided));
    EXPECT_FALSE(analytic_agrees(hits, 1000, ci.hi + 1e-6, Bound::kTwoSided));
  }
}

TEST(AnalyticAgrees, FamilyWidensTheInterval) {
  // 1 of 60 against 0.0018 is outside the single 99% interval but inside
  // the family-wise one of an 18-point grid.
  EXPECT_FALSE(analytic_agrees(1, 60, 0.0018, Bound::kTwoSided));
  EXPECT_TRUE(analytic_agrees(1, 60, 0.0018, Bound::kTwoSided, 18));
  // A value scaled far off still fails the family-wise check.
  EXPECT_FALSE(analytic_agrees(20, 60, 0.05, Bound::kUpper, 18));
}

TEST(AnalyticAgrees, SmallerAlphaWidensTheInterval) {
  // 130 of 1000 against 0.1 is 2.8 standard errors off: outside the 99%
  // interval, inside the one of a 1e-5 false-alarm rate (4.4 standard errors).
  EXPECT_FALSE(analytic_agrees(130, 1000, 0.1, Bound::kTwoSided));
  EXPECT_TRUE(analytic_agrees(130, 1000, 0.1, Bound::kTwoSided, 1, 1e-5));
  EXPECT_FALSE(analytic_agrees(130, 1000, 0.05, Bound::kTwoSided, 1, 1e-5));
}

TEST(AnalyticAgrees, ZeroSuccessesAdmitTinyValues) {
  EXPECT_TRUE(analytic_agrees(0, 60, 1e-30, Bound::kTwoSided));
  EXPECT_TRUE(analytic_agrees(0, 60, 1e-30, Bound::kTwoSided, 18));
}

// The paper_mc workload's own grid, trials and shard seeds: the estimates
// it computes agree with the closed forms, and the check rejects every point
// once the closed form is halved and every two-sided point once it is
// doubled. A run of the workload computes exactly these estimates.
TEST(PaperGrid, WorkloadEstimatesPassAndScaledAnalyticFails) {
  cfds::runner::ThreadPool pool(2);
  for (const std::uint64_t seed : {1ull, 2ull}) {
    std::vector<cfds::ProportionEstimator> estimates;
    for (const auto& spec : paper_specs(seed)) {
      estimates.push_back(cfds::runner::run_experiment(spec, pool).front().estimator);
    }
    const std::size_t points = paper_points().size();
    EXPECT_TRUE(paper_disagreements(estimates).empty()) << "seed " << seed;
    EXPECT_EQ(paper_disagreements(estimates, 0.5).size(), points) << "seed " << seed;
    std::vector<std::size_t> two_sided;
    for (std::size_t i = 0; i < points; ++i) {
      if (paper_points()[i].bound == Bound::kTwoSided) two_sided.push_back(i);
    }
    EXPECT_EQ(paper_disagreements(estimates, 2.0), two_sided) << "seed " << seed;
  }
}

TEST(PaperGrid, EveryPointExpectsEnoughEvents) {
  for (const PaperPoint& point : paper_points()) {
    EXPECT_GE(point.analytic(point.p, point.n) * double(point.trials), 200.0)
        << point.figure << " N=" << point.n << " p=" << point.p;
  }
}

cfds::check::ExploreResult clean(std::uint64_t unique) {
  cfds::check::ExploreResult r;
  r.runs = 100;
  r.unique_states = unique;
  return r;
}

TEST(ExplorationOk, ReferenceCountPasses) {
  EXPECT_TRUE(exploration_ok(clean(17'996), 17'996));
}

TEST(ExplorationOk, ReferenceOffByOneFails) {
  EXPECT_FALSE(exploration_ok(clean(17'996), 17'997));
  EXPECT_FALSE(exploration_ok(clean(17'996), 17'995));
}

TEST(ExplorationOk, BudgetOrViolationFails) {
  auto exhausted = clean(17'996);
  exhausted.budget_exhausted = true;
  EXPECT_FALSE(exploration_ok(exhausted, 17'996));
  auto violated = clean(17'996);
  violated.counterexample = cfds::check::Counterexample{};
  EXPECT_FALSE(exploration_ok(violated, 17'996));
}

}  // namespace
}  // namespace perfbench
