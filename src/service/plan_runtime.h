// FaultPlan execution against a live endpoint.
//
// The simulated FaultInjector has the channel's global vantage point; in
// service mode there is no such place, so EVERY endpoint loads the same
// plan and applies it locally:
//
//   crash/recover  acted on only by the target endpoint: power the
//                  transport down/up around Node::crash()/recover(), so a
//                  crashed process stays silent (and deaf) without exiting
//   freeze         every endpoint mutes the target in its own DropFilter —
//                  receivers drop the target's frames, the target drops
//                  everything inbound; the net effect equals the simulated
//                  channel-level mute
//   link_down      every endpoint blocks the pair; only the two endpoints
//                  of the link ever match the (sender, receiver) check
//   jam            every endpoint installs the same disk over the same
//                  directory positions
//   clock_drift    the target endpoint offsets its own epoch schedule
//                  (ServiceAgent consults skew() when scheduling rounds)
//   loss           no-op: channel-wide loss bursts are a simulated-channel
//                  property; over a live network the medium supplies its
//                  own loss, and DropFilter verdicts stay deterministic
//
// All events are scheduled on the endpoint's TimerService, anchored at the
// fault phase's start — the same plan JSONL that drives a simulated chaos
// trial drives a live soak.

#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/sim_time.h"
#include "fault/fault_plan.h"
#include "net/node.h"
#include "transport/drop_filter.h"
#include "transport/transport.h"

namespace cfds::service {

class PlanRuntime {
 public:
  /// `node` is this endpoint's node, `transport` the REAL transport (not
  /// the filtered wrapper: powering the filter wrapper would also power the
  /// inner one, but crash semantics belong to the raw endpoint), `filter`
  /// the DropFilter the endpoint's FilteredTransport consults.
  PlanRuntime(Node& node, Transport& transport, DropFilter& filter,
              TimerService& timers)
      : node_(node), transport_(transport), filter_(filter), timers_(timers) {}

  PlanRuntime(const PlanRuntime&) = delete;
  PlanRuntime& operator=(const PlanRuntime&) = delete;

  /// Schedules every event of `plan`, anchored at absolute time `anchor`
  /// (the start of the first post-warmup epoch). `base_epoch` anchors
  /// clock-drift epoch windows. Call at most once; the runtime must
  /// outlive the scheduled events.
  void install(const fault::FaultPlan& plan, SimTime anchor,
               std::uint64_t base_epoch);

  /// This endpoint's clock-drift offset for `epoch` (fault::clock_drift:
  /// zero outside every drift window, never negative).
  [[nodiscard]] SimTime skew(std::uint64_t epoch) const;

 private:
  void freeze(std::uint32_t node, bool on);
  void block_link(std::uint32_t a, std::uint32_t b, bool on);

  Node& node_;
  Transport& transport_;
  DropFilter& filter_;
  TimerService& timers_;
  bool installed_ = false;
  std::uint64_t base_epoch_ = 0;

  // Overlap-safe window bookkeeping, as in fault::FaultInjector.
  std::map<std::uint32_t, int> freeze_depth_;
  std::map<std::uint64_t, int> link_depth_;
  std::vector<fault::FaultEvent> drifts_;
};

}  // namespace cfds::service
