#include "fault/injector.h"

#include <algorithm>
#include <memory>

#include "common/expect.h"

namespace cfds::fault {

namespace {

[[nodiscard]] std::uint64_t link_key(std::uint32_t a, std::uint32_t b) {
  const std::uint64_t lo = std::min(a, b);
  const std::uint64_t hi = std::max(a, b);
  return (hi << 32) | lo;
}

}  // namespace

FaultInjector::FaultInjector(Scenario& scenario)
    : scenario_(scenario),
      anchor_(scenario.next_epoch_time()),
      base_epoch_(scenario.epochs_run()) {}

void FaultInjector::freeze(std::uint32_t node, bool on) {
  const NodeId id{node};
  if (!scenario_.network().has_node(id)) return;
  if (on) {
    if (freeze_depth_[node]++ == 0) {
      scenario_.network().channel().set_muted(id, true);
    }
  } else {
    if (--freeze_depth_[node] == 0) {
      scenario_.network().channel().set_muted(id, false);
    }
  }
}

void FaultInjector::block_link(std::uint32_t a, std::uint32_t b, bool on) {
  const NodeId na{a}, nb{b};
  if (!scenario_.network().has_node(na) || !scenario_.network().has_node(nb)) {
    return;
  }
  const std::uint64_t key = link_key(a, b);
  if (on) {
    if (link_depth_[key]++ == 0) {
      scenario_.network().channel().set_link_blocked(na, nb, true);
    }
  } else {
    if (--link_depth_[key] == 0) {
      scenario_.network().channel().set_link_blocked(na, nb, false);
    }
  }
}

void FaultInjector::install(const FaultPlan& plan) {
  CFDS_EXPECT(!installed_, "install() may be called once per injector");
  installed_ = true;
  Simulator& sim = scenario_.network().simulator();

  for (const FaultEvent& e : plan.events) {
    const SimTime at = anchor_ + SimTime::micros(e.at_us);
    const SimTime until = at + SimTime::micros(e.duration_us);
    switch (e.kind) {
      case FaultKind::kCrash:
        sim.schedule_at(at, [this, n = e.node] {
          const NodeId id{n};
          if (scenario_.network().has_node(id)) scenario_.network().crash(id);
        });
        break;
      case FaultKind::kRecover:
        sim.schedule_at(at, [this, n = e.node] {
          const NodeId id{n};
          if (scenario_.network().has_node(id)) {
            scenario_.network().recover(id);
          }
        });
        break;
      case FaultKind::kFreeze:
        sim.schedule_at(at, [this, n = e.node] { freeze(n, true); });
        sim.schedule_at(until, [this, n = e.node] { freeze(n, false); });
        break;
      case FaultKind::kLinkDown:
        sim.schedule_at(at, [this, a = e.node, b = e.peer] {
          block_link(a, b, true);
        });
        sim.schedule_at(until, [this, a = e.node, b = e.peer] {
          block_link(a, b, false);
        });
        break;
      case FaultKind::kJam: {
        // The removal closure needs the token handed out at activation
        // time; a shared holder ties each window's two events together.
        const Disk area{{e.x, e.y}, e.radius};
        auto token = std::make_shared<int>(-1);
        sim.schedule_at(at, [this, area, token] {
          *token = scenario_.network().channel().add_jam_region(area);
          active_jams_.push_back(*token);
        });
        sim.schedule_at(until, [this, token] {
          if (*token < 0) return;
          scenario_.network().channel().remove_jam_region(*token);
          active_jams_.erase(
              std::remove(active_jams_.begin(), active_jams_.end(), *token),
              active_jams_.end());
        });
        break;
      }
      case FaultKind::kClockDrift:
        drifts_.push_back(e);
        break;
      case FaultKind::kLoss:
        sim.schedule_at(at, [this, p = e.x] {
          ++loss_depth_;
          scenario_.network().channel().set_loss_override(p);
        });
        sim.schedule_at(until, [this] {
          if (--loss_depth_ == 0) {
            scenario_.network().channel().clear_loss_override();
          }
        });
        break;
    }
  }

  if (!drifts_.empty()) {
    scenario_.fds().set_skew_provider([this](NodeId id, std::uint64_t epoch) {
      return clock_drift(drifts_, id.value(), base_epoch_, epoch);
    });
  }
}

void FaultInjector::clear_channel_faults() {
  Channel& channel = scenario_.network().channel();
  for (const auto& [node, depth] : freeze_depth_) {
    if (depth > 0) channel.set_muted(NodeId{node}, false);
  }
  freeze_depth_.clear();
  for (const auto& [key, depth] : link_depth_) {
    if (depth > 0) {
      channel.set_link_blocked(NodeId{std::uint32_t(key & 0xFFFFFFFF)},
                               NodeId{std::uint32_t(key >> 32)}, false);
    }
  }
  link_depth_.clear();
  for (int token : active_jams_) channel.remove_jam_region(token);
  active_jams_.clear();
  if (loss_depth_ > 0) {
    channel.clear_loss_override();
    loss_depth_ = 0;
  }
}

}  // namespace cfds::fault
