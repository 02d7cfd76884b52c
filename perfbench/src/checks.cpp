#include "checks.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

CheckCount check_detected(const std::vector<std::uint32_t>& victims,
                          const std::map<std::uint32_t, double>& first_detect_ms) {
  CheckCount count;
  for (const std::uint32_t victim : victims) {
    ++count.attempted;
    if (first_detect_ms.find(victim) == first_detect_ms.end()) ++count.failed;
  }
  return count;
}

std::vector<double> detected_latencies(
    const std::vector<std::uint32_t>& victims,
    const std::map<std::uint32_t, double>& first_detect_ms) {
  std::vector<double> out;
  out.reserve(victims.size());
  for (const std::uint32_t victim : victims) {
    const auto it = first_detect_ms.find(victim);
    if (it != first_detect_ms.end()) out.push_back(it->second);
  }
  return out;
}

namespace {

/// Two-sided standard normal quantile: z with P(|Z| > z) = alpha.
double normal_quantile(double alpha) {
  double lo = 0.0, hi = 40.0;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    (std::erfc(mid / std::sqrt(2.0)) > alpha ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

}  // namespace

bool analytic_agrees(std::int64_t successes, std::int64_t trials,
                     double analytic, Bound bound, int family, double alpha) {
  if (trials <= 0 || family < 1 || !(alpha > 0.0 && alpha < 1.0)) return false;
  const double z = normal_quantile(alpha / double(family));
  const double n = double(trials);
  const double p = double(successes) / n;
  const double z2 = z * z;
  const double center = (p + z2 / (2.0 * n)) / (1.0 + z2 / n);
  const double half =
      z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / (1.0 + z2 / n);
  // Exact at the ends: rounding must not lift the bound off 0 (or 1) and
  // reject an analytic value of 1e-30 against zero successes.
  const double lo = successes == 0 ? 0.0 : std::max(0.0, center - half);
  const double hi = successes == trials ? 1.0 : std::min(1.0, center + half);
  if (bound == Bound::kUpper) return analytic >= lo;
  return analytic >= lo && analytic <= hi;
}

bool exploration_ok(const cfds::check::ExploreResult& result,
                    std::uint64_t reference_unique_states) {
  return !result.counterexample.has_value() && !result.budget_exhausted &&
         result.unique_states == reference_unique_states;
}

}  // namespace perfbench
