// service: the daemon path without real-time pacing. kNodes ServiceAgents
// over LoopbackTransport endpoints (wire codec, loopback queues, directory
// affiliation), all on one virtual clock: a SimTimerService over one
// Simulator, driven in one thread. After each run_until(next event time)
// every endpoint's queue is drained (repeatedly, until frames sent while
// draining have been delivered too). Each deployment runs under a seeded
// FaultPlan::random crash plan, with the crash mix tools/soak_harness
// uses for this size, and per-frame receive loss; the live invariants are
// checked when it has settled.
//
// Not one of the benchmark's workloads: on this tree service mode never
// declares a clusterhead that crashes between its R-1 heartbeat and its R-3
// update (its members give up on the cluster before its deputy may act), so
// most seeds fail the check below. It runs untraced only, as a reproducer
// of that defect (perfbench/BASELINE.md, finding 1).
//
// One repetition runs kPlans deployments, each with its own plan derived
// from the run's seed, so detection latency is pooled over about 220
// victims. Every repetition computes the same outcome. The run reports the
// median rate over every deployment run: a repetition lasts ~6 s and two
// repetitions of one run read up to 30% apart on a shared host, so the
// median of two or three repetition rates did not repeat between runs.

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "checks.h"
#include "event/simulator.h"
#include "fault/fault_plan.h"
#include "service/agent.h"
#include "service/config.h"
#include "service/directory.h"
#include "service/status.h"
#include "transport/loopback.h"
#include "transport/sim_transport.h"

namespace perfbench {
namespace {

using namespace cfds;
using cfds::service::AgentStatus;
using cfds::service::ServiceConfig;

constexpr std::uint32_t kNodes = 128;
constexpr std::uint64_t kEpochs = 100;
constexpr std::uint64_t kWarmup = 2;
constexpr std::uint64_t kQuiesce = 6;
constexpr int kPlans = 8;
constexpr int kSetupSamplesBefore = 4;

ServiceConfig service_config(std::uint64_t seed) {
  ServiceConfig config;
  config.node_count = kNodes;
  config.epochs = kEpochs;
  config.warmup_epochs = kWarmup;
  config.seed = seed;
  config.loss_p = 0.05;
  return config;
}

/// tools/soak_harness's "crash" mix: 3 crashes and 1 clock drift per 16
/// endpoints (plus one of each), all inside the fault horizon.
fault::FaultPlan make_plan(const ServiceConfig& config) {
  fault::ChaosProfile profile;
  profile.node_count = config.node_count;
  const Vec2 far = service::directory_position(
      NodeId{config.node_count - 1}, config.node_count);
  profile.width = far.x + service::kGridPitch;
  profile.height = far.y + service::kGridPitch;
  profile.range = 4 * service::kGridPitch;
  profile.epoch_interval = config.phi;
  profile.fault_epochs = config.epochs - kWarmup - kQuiesce;
  const int scale = int(config.node_count / 16) + 1;
  profile.crashes = 3 * scale;
  profile.freezes = 0;
  profile.link_downs = 0;
  profile.jams = 0;
  profile.clock_drifts = scale;
  return fault::FaultPlan::random(config.seed, profile);
}

struct Deployment {
  explicit Deployment(const std::vector<NodeId>& ids) : net(ids), timers(sim) {}
  Simulator sim;
  LoopbackNet net;
  SimTimerService timers;
  std::vector<std::unique_ptr<LoopbackTransport>> transports;
  std::vector<std::unique_ptr<service::ServiceAgent>> agents;
};

/// Agents built and started: the set-up a deployment pays before its first
/// epoch.
std::unique_ptr<Deployment> build(const ServiceConfig& config,
                                  const fault::FaultPlan& plan) {
  std::vector<NodeId> ids;
  for (std::uint32_t i = 0; i < kNodes; ++i) ids.push_back(NodeId{i});
  auto d = std::make_unique<Deployment>(ids);
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    d->transports.push_back(std::make_unique<LoopbackTransport>(d->net, ids[i]));
    d->agents.push_back(std::make_unique<service::ServiceAgent>(
        config, ids[i], *d->transports.back(), d->timers));
    d->agents.back()->start(SimTime::millis(300), &plan);
  }
  return d;
}

struct Outcome {
  double run_s = 0.0;
  std::vector<AgentStatus> statuses;
};

/// Builds and runs one deployment.
Outcome run_deployment(const ServiceConfig& config, const fault::FaultPlan& plan) {
  const std::unique_ptr<Deployment> d = build(config, plan);
  Outcome out;
  const auto t_run = Clock::now();
  auto all_done = [&d] {
    return std::all_of(d->agents.begin(), d->agents.end(),
                       [](const auto& a) { return a->done(); });
  };
  SimTime next;
  while (!all_done() && d->sim.next_event_time(&next)) {
    d->sim.run_until(next);
    // Frames sent while draining are delivered at the same instant: drain
    // until a whole pass dispatches nothing.
    for (std::size_t got = 1; got != 0;) {
      got = 0;
      for (auto& transport : d->transports) got += transport->drain(next);
    }
  }
  out.run_s = seconds_since(t_run);
  for (auto& agent : d->agents) out.statuses.push_back(agent->status());
  return out;
}

/// First detection of each planned victim by any endpoint, in ms.
std::map<std::uint32_t, double> merge_detections(
    const std::vector<AgentStatus>& statuses) {
  std::map<std::uint32_t, double> best;
  for (const AgentStatus& s : statuses) {
    const std::size_t n = std::min(s.detect_node.size(), s.detect_ms.size());
    for (std::size_t i = 0; i < n; ++i) {
      const auto [it, inserted] =
          best.emplace(s.detect_node[i], double(s.detect_ms[i]));
      if (!inserted) it->second = std::min(it->second, double(s.detect_ms[i]));
    }
  }
  return best;
}

/// Victims that must be detected: planned crashes that stay down for at
/// least two heartbeat intervals, so at least one whole execution runs
/// without them (a node back sooner may rejoin before any execution could
/// notice it left).
std::vector<std::uint32_t> must_detect(const fault::FaultPlan& plan,
                                       const ServiceConfig& config) {
  std::map<std::uint32_t, std::int64_t> crash_at, recover_at;
  for (const fault::FaultEvent& e : plan.events) {
    if (e.kind == fault::FaultKind::kCrash) crash_at.emplace(e.node, e.at_us);
    if (e.kind == fault::FaultKind::kRecover) recover_at.emplace(e.node, e.at_us);
  }
  std::vector<std::uint32_t> victims;
  for (const auto& [node, at] : crash_at) {
    const auto rec = recover_at.find(node);
    if (rec == recover_at.end() ||
        rec->second - at >= 2 * config.phi.as_micros()) {
      victims.push_back(node);
    }
  }
  return victims;
}

std::vector<std::uint32_t> all_victims(const fault::FaultPlan& plan) {
  std::vector<std::uint32_t> victims;
  for (const fault::FaultEvent& e : plan.events) {
    if (e.kind == fault::FaultKind::kCrash) victims.push_back(e.node);
  }
  return victims;
}

}  // namespace

Report run_service(const Options& opt, Tracer&) {
  Report report;
  std::vector<ServiceConfig> configs;
  std::vector<fault::FaultPlan> plans;
  for (int k = 0; k < kPlans; ++k) {
    configs.push_back(service_config(opt.seed * kPlans + std::uint64_t(k)));
    plans.push_back(make_plan(configs.back()));
  }

  // A set-up sample builds and starts every plan's deployment once: the
  // cost of start() depends on the plan it installs. Samples are taken
  // before the first repetition and after each deployment run, so that
  // their median covers the same stretch of the run as the rates.
  std::vector<double> setups;
  auto sample_setup = [&] {
    double build_s = 0.0;
    for (int k = 0; k < kPlans; ++k) {
      trim_heap();
      const auto t = Clock::now();
      const std::unique_ptr<Deployment> d =
          build(configs[std::size_t(k)], plans[std::size_t(k)]);
      build_s += seconds_since(t);  // teardown is not set-up
    }
    setups.push_back(build_s / kPlans);
  };
  for (int i = 0; i < kSetupSamplesBefore; ++i) sample_setup();

  std::vector<double> rates;  // one per deployment run
  std::vector<std::vector<AgentStatus>> first_statuses;
  const auto start = Clock::now();
  do {
    const bool first_rep = first_statuses.empty();
    for (int k = 0; k < kPlans; ++k) {
      Outcome outcome =
          run_deployment(configs[std::size_t(k)], plans[std::size_t(k)]);
      rates.push_back(double(kNodes) * double(kEpochs) / outcome.run_s);
      if (first_rep) first_statuses.push_back(std::move(outcome.statuses));
      sample_setup();
    }
  } while (seconds_since(start) < opt.seconds);

  std::vector<double> latencies;
  for (int k = 0; k < kPlans; ++k) {
    const auto& statuses = first_statuses[std::size_t(k)];
    const std::map<std::uint32_t, double> detected = merge_detections(statuses);
    const std::vector<std::uint32_t> victims =
        must_detect(plans[std::size_t(k)], configs[std::size_t(k)]);
    const CheckCount check = check_detected(victims, detected);
    for (const std::uint32_t v : victims) {
      if (detected.count(v) != 0) continue;
      report.note += (report.note.empty() ? "never declared:" : ",") +
                     std::string(" plan ") + std::to_string(k) + " node " +
                     std::to_string(v);
    }
    const bool invariants_hold = service::check_live_invariants(statuses).empty();
    report.attempted += check.attempted + 1;  // + the invariant check
    report.failed += check.failed + (invariants_hold ? 0 : 1);
    for (const double ms : detected_latencies(all_victims(plans[std::size_t(k)]), detected)) {
      latencies.push_back(ms);
    }
  }
  report.work_per_s = median(rates);
  report.setup_s = median(setups);
  report.setups = setups;
  report.detect_ms_p50 = median(latencies);
  report.detect_ms_p90 = quantile(latencies, 0.9);
  report.peak_bytes_per_node = double(peak_rss_bytes()) / double(kNodes);
  report.rep_rates = rates;
  return report;
}

}  // namespace perfbench
