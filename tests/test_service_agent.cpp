// Unit tests for service::ServiceAgent: a 16-endpoint deployment over one
// LoopbackNet and one SimTimerService, driven in one thread on a virtual
// clock (the set-up of perfbench's service workload), so every round time
// is exact.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "event/simulator.h"
#include "fault/fault_plan.h"
#include "service/agent.h"
#include "service/config.h"
#include "transport/loopback.h"
#include "transport/sim_transport.h"

namespace cfds::service {
namespace {

constexpr std::uint32_t kNodes = 16;
constexpr std::uint64_t kEpochs = 6;
const SimTime kStart = SimTime::millis(300);

ServiceConfig clean_config() {
  ServiceConfig config;
  config.node_count = kNodes;
  config.epochs = kEpochs;
  return config;
}

std::vector<NodeId> all_ids() {
  std::vector<NodeId> ids;
  for (std::uint32_t i = 0; i < kNodes; ++i) ids.push_back(NodeId{i});
  return ids;
}

struct Deployment {
  Deployment(const ServiceConfig& config, const fault::FaultPlan* plan)
      : net(all_ids()), timers(sim) {
    for (NodeId id : all_ids()) {
      transports.push_back(std::make_unique<LoopbackTransport>(net, id));
      agents.push_back(std::make_unique<ServiceAgent>(
          config, id, *transports.back(), timers));
      agents.back()->hooks().on_detection =
          [this](NodeId, std::uint64_t, const std::vector<NodeId>&, bool) {
            ++verdicts;
          };
      agents.back()->start(kStart, plan);
    }
  }

  /// Runs every endpoint to done(), recording when each one sends a
  /// heartbeat: R-1 runs at the instant its execution begins, so
  /// begins[i][k] is when endpoint i began epoch k.
  void run() {
    begins.assign(kNodes, {});
    SimTime next;
    auto all_done = [this] {
      for (const auto& a : agents) {
        if (!a->done()) return false;
      }
      return true;
    };
    while (!all_done() && sim.next_event_time(&next)) {
      sim.run_until(next);
      for (std::size_t got = 1; got != 0;) {
        got = 0;
        for (auto& t : transports) got += t->drain(next);
      }
      for (std::uint32_t i = 0; i < kNodes; ++i) {
        FdsAgent& fds = agents[i]->fds();
        while (fds.heartbeats_sent() > begins[i].size()) {
          EXPECT_EQ(fds.current_epoch(), begins[i].size()) << "node " << i;
          begins[i].push_back(next);
        }
      }
    }
  }

  Simulator sim;
  LoopbackNet net;
  SimTimerService timers;
  std::vector<std::unique_ptr<LoopbackTransport>> transports;
  std::vector<std::unique_ptr<ServiceAgent>> agents;
  std::uint64_t verdicts = 0;
  std::vector<std::vector<SimTime>> begins;
};

TEST(ServiceAgent, CleanDeploymentRunsThePlanFromAPerEndpointPhase) {
  const ServiceConfig config = clean_config();
  Deployment d(config, nullptr);
  d.run();
  EXPECT_EQ(d.verdicts, 0u);
  const std::int64_t phase_bound_us = config.t_hop.as_micros() / 4;
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    const AgentStatus s = d.agents[i]->status();
    EXPECT_TRUE(s.affiliated) << "node " << i;
    EXPECT_TRUE(s.failed.empty()) << "node " << i;
    for (std::uint32_t count : s.reverts) EXPECT_EQ(count, 0u) << "node " << i;

    ASSERT_EQ(d.begins[i].size(), kEpochs) << "node " << i;
    const SimTime phase = d.begins[i][0] - kStart;
    EXPECT_GE(phase.as_micros(), 0) << "node " << i;
    EXPECT_LT(phase.as_micros(), phase_bound_us) << "node " << i;
    for (std::uint64_t k = 0; k < kEpochs; ++k) {
      EXPECT_EQ(d.begins[i][k], kStart + std::int64_t(k) * config.phi + phase)
          << "node " << i << " epoch " << k;
    }
  }
}

TEST(ServiceAgent, NegativeClockDriftIsClampedToTheUnshiftedSchedule) {
  // Node 3's two ramps sum below zero in every epoch they cover; node 4's
  // single ramp is positive. Windows count from the warmup boundary.
  const ServiceConfig config = clean_config();
  auto drift = [](std::uint32_t node, std::uint64_t from, std::uint64_t to,
                  std::int64_t per_epoch_us) {
    fault::FaultEvent e;
    e.kind = fault::FaultKind::kClockDrift;
    e.node = node;
    e.start_epoch = from;
    e.end_epoch = to;
    e.per_epoch_us = per_epoch_us;
    return e;
  };
  fault::FaultPlan plan;
  plan.events = {drift(3, 0, 3, -20000), drift(3, 1, 3, 5000),
                 drift(4, 1, 3, 7000)};
  const std::uint64_t base = config.warmup_epochs;
  for (std::uint64_t k = 0; k < kEpochs; ++k) {
    EXPECT_EQ(fault::clock_drift(plan.events, 3, base, k), SimTime::zero())
        << "epoch " << k;
  }
  EXPECT_EQ(fault::clock_drift(plan.events, 4, base, base + 1),
            SimTime::micros(7000));
  EXPECT_EQ(fault::clock_drift(plan.events, 4, base, base + 2),
            SimTime::micros(14000));
  EXPECT_EQ(fault::clock_drift(plan.events, 4, base, base + 3),
            SimTime::zero());

  Deployment clean(config, nullptr);
  clean.run();
  Deployment drifted(config, &plan);
  drifted.run();
  EXPECT_EQ(drifted.verdicts, 0u);
  ASSERT_EQ(drifted.begins[3].size(), kEpochs);
  EXPECT_EQ(drifted.begins[3], clean.begins[3]);
  ASSERT_EQ(drifted.begins[4].size(), kEpochs);
  for (std::uint64_t k = 0; k < kEpochs; ++k) {
    EXPECT_EQ(drifted.begins[4][k],
              clean.begins[4][k] +
                  fault::clock_drift(plan.events, 4, base, k))
        << "epoch " << k;
  }
}

}  // namespace
}  // namespace cfds::service
