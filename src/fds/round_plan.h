// The Section 4.2 execution schedule, written once.
//
// Every backend runs an FDS execution from this table: FdsService (one
// sweep event per step, or one event per agent and step when clocks are
// phased), service::ServiceAgent (one endpoint's timers), and
// check::CheckWorld (one barrier crossing per Thop). Offsets count Thop
// from the execution's start T; same-instant steps run in table order.
//
//   T          begin    close out the previous execution, reset evidence
//   T          R-1      every alive node sends its heartbeat
//   T + Thop   R-2      members and the CH exchange digests
//   T + 2Thop  R-3      the CH runs the detection rule and broadcasts the
//                       health-status update
//   T + 3Thop  deputy   the highest-ranked DCH applies the CH-failure rule
//   T + 4Thop  complete members missing the update request forwarding

#pragma once

#include <array>
#include <cstdint>

#include "common/ids.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "transport/transport.h"

namespace cfds {

enum class RoundStep : std::uint8_t {
  kBegin,
  kHeartbeat,
  kDigest,
  kUpdate,
  kDeputy,
  kCompleteness,
};

struct PlannedStep {
  RoundStep step;
  std::uint32_t hops;  ///< offset from the execution start, in Thop
};

inline constexpr std::array<PlannedStep, 6> kRoundPlan{{
    {RoundStep::kBegin, 0},
    {RoundStep::kHeartbeat, 0},
    {RoundStep::kDigest, 1},
    {RoundStep::kUpdate, 2},
    {RoundStep::kDeputy, 3},
    {RoundStep::kCompleteness, 4},
}};

/// Thop-spaced instants one execution spans: one per offset, plus the one
/// after the last step where its requests' forwards resolve.
inline constexpr std::uint32_t kPlanCrossings = kRoundPlan.back().hops + 2;

/// The table lists the steps in RoundStep order.
[[nodiscard]] constexpr std::uint32_t step_hops(RoundStep step) {
  return kRoundPlan[std::size_t(step)].hops;
}

/// A node's start offset for one execution: a constant NID-derived clock
/// bias, uniform in [0, bound), plus `drift`, its clock drift that epoch
/// (fault::clock_drift, never negative). Zero bound and drift keep every
/// node on the shared schedule.
[[nodiscard]] inline SimTime round_offset(NodeId node, SimTime bound,
                                          SimTime drift) {
  if (bound.as_micros() <= 0) return drift;
  std::uint64_t state = node.value();
  return drift + SimTime::micros(std::int64_t(
                     splitmix64(state) % std::uint64_t(bound.as_micros())));
}

/// Schedules one execution starting at `start`: `run(step)` fires at
/// start + hops * t_hop for every planned step, in table order.
template <typename Run>
void schedule_execution(TimerService& timers, SimTime start, SimTime t_hop,
                        const Run& run) {
  for (const PlannedStep& s : kRoundPlan) {
    timers.schedule_at(start + std::int64_t(s.hops) * t_hop,
                       [run, step = s.step] { run(step); });
  }
}

}  // namespace cfds
