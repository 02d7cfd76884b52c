#include "service/plan_runtime.h"

#include <algorithm>
#include <memory>

#include "common/expect.h"
#include "common/geometry.h"

namespace cfds::service {

void PlanRuntime::freeze(std::uint32_t node, bool on) {
  if (on) {
    if (freeze_depth_[node]++ == 0) filter_.set_muted(NodeId{node}, true);
  } else {
    if (--freeze_depth_[node] == 0) filter_.set_muted(NodeId{node}, false);
  }
}

void PlanRuntime::block_link(std::uint32_t a, std::uint32_t b, bool on) {
  const std::uint64_t key = DropFilter::link_key(NodeId{a}, NodeId{b});
  if (on) {
    if (link_depth_[key]++ == 0) {
      filter_.set_link_blocked(NodeId{a}, NodeId{b}, true);
    }
  } else {
    if (--link_depth_[key] == 0) {
      filter_.set_link_blocked(NodeId{a}, NodeId{b}, false);
    }
  }
}

void PlanRuntime::install(const fault::FaultPlan& plan, SimTime anchor,
                          std::uint64_t base_epoch) {
  CFDS_EXPECT(!installed_, "install() may be called once per runtime");
  installed_ = true;
  base_epoch_ = base_epoch;
  const std::uint32_t self = node_.id().value();

  for (const fault::FaultEvent& e : plan.events) {
    const SimTime at = anchor + SimTime::micros(e.at_us);
    const SimTime until = at + SimTime::micros(e.duration_us);
    switch (e.kind) {
      case fault::FaultKind::kCrash:
        if (e.node != self) break;  // every endpoint crashes only itself
        timers_.schedule_at(at, [this] {
          transport_.set_powered(false);
          node_.crash();
        });
        break;
      case fault::FaultKind::kRecover:
        if (e.node != self) break;
        timers_.schedule_at(at, [this] {
          node_.recover();
          transport_.set_powered(true);
        });
        break;
      case fault::FaultKind::kFreeze:
        timers_.schedule_at(at, [this, n = e.node] { freeze(n, true); });
        timers_.schedule_at(until, [this, n = e.node] { freeze(n, false); });
        break;
      case fault::FaultKind::kLinkDown:
        timers_.schedule_at(at, [this, a = e.node, b = e.peer] {
          block_link(a, b, true);
        });
        timers_.schedule_at(until, [this, a = e.node, b = e.peer] {
          block_link(a, b, false);
        });
        break;
      case fault::FaultKind::kJam: {
        const Disk area{{e.x, e.y}, e.radius};
        auto token = std::make_shared<int>(-1);
        timers_.schedule_at(at, [this, area, token] {
          *token = filter_.add_jam_region(area);
        });
        timers_.schedule_at(until, [this, token] {
          if (*token >= 0) filter_.remove_jam_region(*token);
        });
        break;
      }
      case fault::FaultKind::kClockDrift:
        if (e.node == self) drifts_.push_back(e);
        break;
      case fault::FaultKind::kLoss:
        // Channel-wide loss bursts are a simulated-channel property (the
        // Channel's loss override). A live endpoint has no probabilistic
        // drop stage — DropFilter verdicts are deterministic per frame, and
        // seeding per-receiver RNGs here would reintroduce the divergence
        // the service determinism story forbids — so over a real network
        // the medium itself supplies the loss and the event is a no-op.
        break;
    }
  }
}

SimTime PlanRuntime::skew(std::uint64_t epoch) const {
  return fault::clock_drift(drifts_, node_.id().value(), base_epoch_, epoch);
}

}  // namespace cfds::service
