// The paper_mc workload's grid: the full-stack Figure 5/6/7 estimators at
// points of the paper's loss range where they can be sampled (the points
// the repository's own spot checks in bench/bench_fig{5,6,7}_* use, N = 20
// and p in {0.4, 0.5}, plus N = 15 for Figure 6), each with a trial budget
// under which the analytic value is expected to be hit 200 times or more.
// The analytic check then has the power, at its false-alarm rate of
// kAnalyticAlpha, to reject a closed form that is off by a factor of two; at
// N = 50..100 a budget a run can afford sees zero events at most points and
// passes any value.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "checks.h"
#include "common/statistics.h"
#include "runner/experiment.h"

namespace perfbench {

/// Family-wise false-alarm rate of the analytic check over the grid, per
/// run: a sound estimator is flagged in about one run in 10^5. The
/// benchmark runs hundreds of times; at 1% it flagged 2 of 121 seeds.
inline constexpr double kAnalyticAlpha = 1e-5;

struct PaperPoint {
  cfds::runner::EstimatorKind kind;
  const char* figure;  ///< span name of the figure, e.g. "sim.fig5"
  Bound bound;
  double (*analytic)(double p, int n);
  int n;
  double p;
  long trials;
};

/// The grid, in the order paper_specs() and the estimates follow.
[[nodiscard]] const std::vector<PaperPoint>& paper_points();

/// One spec per point of paper_points(), shard seeds derived from `seed`.
[[nodiscard]] std::vector<cfds::runner::ExperimentSpec> paper_specs(
    std::uint64_t seed);

/// Indices of the points whose analytic value, multiplied by `scale`,
/// disagrees with the estimate (one per point, in grid order) at a
/// family-wise false-alarm rate of kAnalyticAlpha over the whole grid.
[[nodiscard]] std::vector<std::size_t> paper_disagreements(
    const std::vector<cfds::ProportionEstimator>& estimates, double scale = 1.0);

}  // namespace perfbench
