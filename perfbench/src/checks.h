// Correctness checks of the benchmark's workloads. Each one counts failed
// operations against operations attempted, from plain data the workload
// collected, so the benchmark's own tests can feed each a wrong input and
// watch it fire.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "check/explorer.h"

namespace perfbench {

struct CheckCount {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
};

/// Crash victims against the first-detection log (victim -> detection
/// latency in ms): a victim missing from the log is a failed operation.
[[nodiscard]] CheckCount check_detected(
    const std::vector<std::uint32_t>& victims,
    const std::map<std::uint32_t, double>& first_detect_ms);

/// Latencies of the victims that were detected, in victim order.
[[nodiscard]] std::vector<double> detected_latencies(
    const std::vector<std::uint32_t>& victims,
    const std::map<std::uint32_t, double>& first_detect_ms);

/// How an analytic value constrains a Monte-Carlo estimate.
enum class Bound {
  kTwoSided,  ///< the value must lie inside the 99% Wilson interval
  kUpper,     ///< an upper bound: it must not lie below the interval
};

/// True when `analytic` agrees with `successes` out of `trials`: it lies in
/// (or, for an upper bound, not below) the estimate's Wilson interval at a
/// family-wise confidence of 1 - `alpha` over `family` simultaneous checks
/// (Bonferroni; family = 1 and alpha = 0.01 is the plain 99% interval). A
/// grid of many points checked at 99% each would flag a sound estimator on
/// about one run in ten.
[[nodiscard]] bool analytic_agrees(std::int64_t successes, std::int64_t trials,
                                   double analytic, Bound bound, int family = 1,
                                   double alpha = 0.01);

/// An exhaustive exploration passes when it found no violation, finished
/// within its budget, and reached exactly the pinned number of states.
[[nodiscard]] bool exploration_ok(const cfds::check::ExploreResult& result,
                                  std::uint64_t reference_unique_states);

}  // namespace perfbench
