// field: the large-world simulation user. 10^4 nodes at the paper's density
// (500 nodes per 700 x 450 m, R = 100 m), 10% Bernoulli loss, and a seeded
// fail-stop crash schedule, assembled from the same public calls
// Scenario::setup makes and driven one epoch at a time with
// FdsService::schedule_epoch plus Simulator::run_until.
//
// An episode builds a fresh world from its inputs (positions and crash
// schedule, both generated from a seed), runs one fault-free warm-up epoch
// (not measured), then a fixed measured window: one churn epoch with ten
// crashes and one fault-free tail epoch in which they are declared and
// flooded. The per-epoch cost grows under churn, so the statistic is over
// whole windows: a repetition runs one episode on each of kWorlds worlds and
// scores their node-epochs over their summed window time; the run reports
// the median over its repetitions (usually one: a repetition outlasts the
// run's measuring time).

#include <algorithm>
#include <cmath>
#include <iterator>
#include <memory>
#include <vector>

#include "bench.h"
#include "checks.h"
#include "cluster/directory.h"
#include "cluster/membership.h"
#include "common/rng.h"
#include "event/simulator.h"
#include "fds/agent.h"
#include "intercluster/forwarder.h"
#include "net/network.h"
#include "net/topology.h"
#include "radio/payload.h"
#include "sim/metrics.h"

namespace perfbench {
namespace {

using namespace cfds;

constexpr std::size_t kNodes = 10'000;
constexpr double kLoss = 0.1;
constexpr std::uint64_t kWarmupEpochs = 1;
/// The measured window: one churn epoch, then one fault-free tail epoch.
constexpr std::uint64_t kWindowEpochs = 2;
/// Worlds per repetition, each from its own seed derived from the run's. A
/// world's cost depends on which nodes crash and where, and this
/// memory-bound workload runs fast or slow for tens of seconds at a time on
/// a shared host; five worlds (~25 s of windows) average over both.
constexpr std::uint64_t kWorlds = 5;
constexpr int kExtraSetupSamples = 2;
const SimTime kPhi = SimTime::seconds(2);

struct Crash {
  std::uint32_t node = 0;
  SimTime at;
};

/// The run's inputs, generated once from the seed.
struct Inputs {
  std::vector<Vec2> positions;
  std::vector<Crash> crashes;
};

SimTime epoch_start(std::uint64_t epoch) {
  return kPhi * std::int64_t(epoch + 1);
}

/// Victims per churn epoch by role: about the population's mix (4% CHs, 7%
/// deputies, 8% gateways, 20% backup gateways, 61% ordinary members), fixed
/// so that every seed crashes the same kinds of node — a CH crash costs a
/// takeover and far more forwarding than a member crash.
constexpr std::pair<Role, int> kVictimRoles[] = {
    {Role::kClusterhead, 1},    {Role::kDeputy, 1},
    {Role::kGateway, 1},        {Role::kBackupGateway, 2},
    {Role::kOrdinaryMember, 5},
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  const double scale = std::sqrt(double(kNodes) / 500.0);
  Rng rng(seed ^ 0xF1E1D);
  in.positions = uniform_rect(kNodes, 700.0 * scale, 450.0 * scale, rng);

  // Victims in distinct clusters: a member crashing in the same execution
  // as its CH is declared only by the deputy's successor one execution
  // later, after the measured window.
  const ClusterDirectory directory =
      ClusterDirectory::build(in.positions, ChannelConfig{}.range);
  std::vector<std::uint32_t> order(kNodes);
  for (std::uint32_t i = 0; i < kNodes; ++i) order[i] = i;
  for (std::size_t i = kNodes - 1; i > 0; --i) {
    std::swap(order[i], order[rng.below(i + 1)]);
  }
  std::vector<std::uint32_t> victims;
  std::vector<ClusterId> used;
  for (const auto& [role, count] : kVictimRoles) {
    int taken = 0;
    for (std::size_t i = 0; i < order.size() && taken < count; ++i) {
      const NodeId node{order[i]};
      const ClusterView* cluster = directory.cluster_of(node);
      // A node no other node can hear (a singleton cluster: its CH has no
      // deputy) has no monitor, so its crash cannot be declared.
      if (cluster == nullptr || cluster->deputies.empty() ||
          cluster->role_of(node) != role ||
          std::find(used.begin(), used.end(), cluster->id) != used.end()) {
        continue;
      }
      used.push_back(cluster->id);
      victims.push_back(node.value());
      ++taken;
    }
  }
  // Crash instants at the midpoints of equal strata of the churn epoch,
  // jittered by up to a tenth of a stratum, in seeded victim order:
  // detection latency depends on the crash phase relative to the round
  // schedule, and an even spread keeps the latency median from riding on a
  // few phase draws.
  for (std::size_t i = victims.size() - 1; i > 0; --i) {
    std::swap(victims[i], victims[rng.below(i + 1)]);
  }
  const SimTime start = epoch_start(kWarmupEpochs);
  for (std::size_t j = 0; j < victims.size(); ++j) {
    const double frac =
        (double(j) + 0.5 + rng.uniform(-0.05, 0.05)) / double(victims.size());
    in.crashes.push_back(
        {victims[j],
         start + SimTime::micros(std::int64_t(frac * double(kPhi.as_micros())))});
  }
  return in;
}

struct World {
  std::unique_ptr<Network> network;
  std::vector<std::unique_ptr<MembershipView>> owned_views;
  std::vector<MembershipView*> views;
  std::unique_ptr<FdsService> fds;
  MetricsCollector metrics;
  std::unique_ptr<ForwarderService> forwarder;
};

/// Scenario::setup's centralized path, one public call per layer, each
/// under its own span with the RSS it added.
std::unique_ptr<World> build_world(const Inputs& in, std::uint64_t seed,
                                   Tracer& tracer,
                                   std::map<std::string, double>* layer) {
  auto world = std::make_unique<World>();
  std::uint64_t rss = layer != nullptr ? rss_bytes() : 0;
  auto ledger = [&](const char* key) {
    if (layer == nullptr) return;
    const std::uint64_t now = rss_bytes();
    (*layer)[key] = (double(now) - double(rss)) / double(kNodes);
    rss = now;
  };
  {
    ScopedSpan span(tracer, "net.add_nodes");
    NetworkConfig config;
    config.seed = seed;
    world->network =
        std::make_unique<Network>(config, std::make_unique<BernoulliLoss>(kLoss));
    world->network->add_nodes(in.positions);
  }
  ledger("net.bytes_per_node");
  {
    ScopedSpan span(tracer, "cluster.directory");
    const auto directory = ClusterDirectory::build(
        in.positions, world->network->channel().config().range);
    world->owned_views.reserve(kNodes);
    world->views.reserve(kNodes);
    for (std::size_t i = 0; i < kNodes; ++i) {
      world->owned_views.push_back(
          std::make_unique<MembershipView>(NodeId{std::uint32_t(i)}));
      world->views.push_back(world->owned_views.back().get());
    }
    directory.install(*world->network, world->views);
  }
  ledger("cluster.bytes_per_node");
  {
    ScopedSpan span(tracer, "fds.service_build");
    FdsConfig config;
    config.heartbeat_interval = kPhi;
    world->fds = std::make_unique<FdsService>(*world->network, world->views,
                                              config);
    world->metrics.attach(*world->fds, *world->network);
  }
  ledger("fds.bytes_per_node");
  {
    ScopedSpan span(tracer, "intercluster.build");
    world->forwarder = std::make_unique<ForwarderService>(
        *world->network, *world->fds, world->views, ForwarderConfig{});
  }
  ledger("intercluster.bytes_per_node");
  return world;
}

struct RadioTotals {
  std::uint64_t sent = 0;
  std::uint64_t bytes = 0;
  std::uint64_t received = 0;
};

RadioTotals radio_totals(Network& network) {
  RadioTotals t;
  for (const Node* node : network.nodes()) {
    const RadioCounters& c = node->radio().counters();
    t.sent += c.frames_sent;
    t.bytes += c.bytes_sent;
    t.received += c.frames_received;
  }
  return t;
}

std::uint64_t intercluster_frames(const ForwarderStats& s) {
  return s.reports_forwarded + s.gw_retries + s.bgw_assists +
         s.ch_retransmissions + s.explicit_acks;
}

/// Spans of one traced epoch, cut at the Section 4.2 round offsets
/// T+Thop .. T+5Thop and at the epoch's end T+phi.
constexpr const char* kSlices[] = {"fds.r1",     "fds.r2",
                                   "fds.r3",     "fds.deputy",
                                   "fds.completeness", "intercluster.tail"};

/// Runs one epoch; traced, each slice of kSlices is a span.
void run_epoch(World& world, std::uint64_t epoch, Tracer& tracer,
               std::size_t* burst_pending) {
  Simulator& sim = world.network->simulator();
  const SimTime t = epoch_start(epoch);
  world.fds->schedule_epoch(epoch, t);
  if (!tracer.on()) {
    sim.run_until(t + kPhi);
    return;
  }
  const SimTime hop = world.network->channel().config().t_hop;
  ScopedSpan span(tracer, "field.epoch");
  for (std::int64_t k = 0; k < 6; ++k) {
    ScopedSpan slice(tracer, kSlices[k]);
    if (k == 0) {
      sim.run_until(t);  // the R-1 sweep: every heartbeat is in flight
      *burst_pending = std::max(*burst_pending, sim.pending_events());
    }
    sim.run_until(k < 5 ? t + hop * (k + 1) : t + kPhi);
  }
}

struct Episode {
  double setup_s = 0.0;
  double window_s = 0.0;
  std::map<std::uint32_t, double> first_detect_ms;
};

/// Builds and runs one world. With `layer` set (traced runs, first world
/// only) its per-layer metrics are recorded.
Episode run_episode(const Inputs& in, std::uint64_t seed, Tracer& tracer,
                    std::map<std::string, double>* layer) {
  Episode ep;
  trim_heap();
  const auto t_setup = Clock::now();
  std::unique_ptr<World> world = build_world(in, seed, tracer, layer);
  ep.setup_s = seconds_since(t_setup);

  Network& network = *world->network;
  Simulator& sim = network.simulator();
  for (const Crash& c : in.crashes) {
    network.schedule_crash(NodeId{c.node}, c.at);
  }
  std::size_t burst = 0;
  for (std::uint64_t e = 0; e < kWarmupEpochs; ++e) {
    run_epoch(*world, e, tracer, &burst);
  }

  const bool traced = layer != nullptr;
  std::vector<double> slice_ms0;  // the warm-up epoch's share of each slice
  for (const char* name : kSlices) slice_ms0.push_back(tracer.total_ms(name));
  const std::uint64_t events0 = sim.events_executed();
  const RadioTotals radio0 = traced ? radio_totals(network) : RadioTotals{};
  const std::uint64_t ic0 = intercluster_frames(world->forwarder->stats());
  const std::size_t false0 = world->metrics.false_detections();
  const std::uint64_t rss0 = rss_bytes();
  const bool hwm = traced && reset_hwm();
  burst = 0;

  const auto t_window = Clock::now();
  const std::uint64_t end = kWarmupEpochs + kWindowEpochs;
  {
    ScopedSpan span(tracer, "field.window");
    for (std::uint64_t e = kWarmupEpochs; e < end; ++e) {
      run_epoch(*world, e, tracer, &burst);
    }
  }
  ep.window_s = seconds_since(t_window);

  for (const Crash& c : in.crashes) {
    if (const auto d = world->metrics.first_detection(NodeId{c.node})) {
      ep.first_detect_ms[c.node] = double((d->when - c.at).as_micros()) / 1e3;
    }
  }

  if (traced) {
    const double node_epochs = double(kNodes) * double(kWindowEpochs);
    const RadioTotals radio1 = radio_totals(network);
    auto& L = *layer;
    L["event.burst_pending"] = double(burst);
    if (hwm) {
      L["event.burst_bytes_per_node"] =
          (double(peak_rss_bytes()) - double(rss0)) / double(kNodes);
    }
    L["event.events_per_node_epoch"] =
        double(sim.events_executed() - events0) / node_epochs;
    L["radio.frames_per_node_epoch"] = double(radio1.sent - radio0.sent) / node_epochs;
    L["radio.bytes_per_node_epoch"] = double(radio1.bytes - radio0.bytes) / node_epochs;
    L["radio.rx_per_frame"] = double(radio1.received - radio0.received) /
                              double(std::max<std::uint64_t>(1, radio1.sent - radio0.sent));
    L["fds.false_detections_per_mnode_epoch"] =
        double(world->metrics.false_detections() - false0) / node_epochs * 1e6;
    L["intercluster.frames_per_crash"] =
        double(intercluster_frames(world->forwarder->stats()) - ic0) /
        double(in.crashes.size());
    double coverage = 0.0;
    for (const Crash& c : in.crashes) {
      coverage += knowledge_coverage(*world->fds, network, NodeId{c.node});
    }
    L["intercluster.coverage"] = coverage / double(in.crashes.size());
    for (std::size_t i = 0; i < std::size(kSlices); ++i) {
      L[std::string(kSlices[i]) + "_ms"] =
          (tracer.total_ms(kSlices[i]) - slice_ms0[i]) / double(kWindowEpochs);
    }
  }
  return ep;
}

// --- handler-free probes of the field's event and radio layers --------------

struct NullPayload final : Payload {
  NullPayload() : Payload(PayloadKind::kTest) {}
  [[nodiscard]] std::string_view kind() const override { return "null"; }
  [[nodiscard]] std::size_t size_bytes() const override { return 32; }
};

/// Every node of a handler-free copy of the field graph broadcasts once via
/// Radio::send; returns wall ns per delivery.
double radio_ns_per_delivery(const Inputs& in, std::uint64_t seed,
                             std::vector<std::uint32_t>* fanout) {
  NetworkConfig config;
  config.seed = seed;
  Network network(config, std::make_unique<BernoulliLoss>(kLoss));
  network.add_nodes(in.positions);
  fanout->clear();
  for (const Node* node : network.nodes()) {
    fanout->push_back(
        std::uint32_t(network.channel().neighbors_of(node->id()).size()));
  }
  const auto payload = std::make_shared<NullPayload>();
  const auto start = Clock::now();
  for (Node* node : network.nodes()) node->radio().send(payload);
  network.simulator().run_until(network.channel().config().t_hop);
  const double s = seconds_since(start);
  return s * 1e9 / double(std::max<std::uint64_t>(
                       1, network.channel().stats().deliveries));
}

void noop_batch(void*, std::uint32_t) {}

/// The field's R-1 burst shape (one batch per node, one event per in-range
/// neighbour, delays uniform in [0.1, 0.9] Thop) replayed with no-op
/// callbacks; returns wall ns per event.
double event_ns_per_event(const std::vector<std::uint32_t>& fanout,
                          std::uint64_t seed) {
  Simulator sim;
  Rng rng(seed ^ 0xE7E47);
  const SimTime hop = SimTime::millis(100);
  std::uint64_t events = 0;
  const auto start = Clock::now();
  for (const std::uint32_t k : fanout) {
    if (k == 0) continue;  // an empty batch would hold its slot forever
    const auto batch = sim.begin_batch(&noop_batch, nullptr);
    for (std::uint32_t i = 0; i < k; ++i) {
      const auto delay = SimTime::micros(
          std::int64_t(rng.uniform(0.1, 0.9) * double(hop.as_micros())));
      sim.add_batch_event(batch, delay, i);
    }
    events += k;
  }
  sim.run_until(hop);
  return seconds_since(start) * 1e9 / double(std::max<std::uint64_t>(1, events));
}

}  // namespace

Report run_field(const Options& opt, Tracer& tracer) {
  Report report;
  // A single repetition (seconds == 0: the traced run and its untraced
  // twin) uses the first world only.
  const std::uint64_t world_count = opt.seconds > 0.0 ? kWorlds : 1;
  std::vector<Inputs> worlds;
  for (std::uint64_t w = 0; w < world_count; ++w) {
    worlds.push_back(make_inputs(opt.seed * kWorlds + w));
  }
  std::vector<double> rates, setups;
  // Set-up is short next to an episode, so it is also sampled on its own.
  for (int i = 0; !tracer.on() && i < kExtraSetupSamples; ++i) {
    trim_heap();
    const auto t = Clock::now();
    const std::unique_ptr<World> world =
        build_world(worlds[0], opt.seed, tracer, nullptr);
    setups.push_back(seconds_since(t));  // teardown is not set-up
  }
  // Detection log of the first repetition, keyed world * kNodes + node.
  std::vector<std::uint32_t> victims;
  std::map<std::uint32_t, double> first_detect;
  const auto start = Clock::now();
  do {
    double window_s = 0.0;
    for (std::uint64_t w = 0; w < world_count; ++w) {
      const bool first = rates.empty();
      const Episode ep =
          run_episode(worlds[w], opt.seed * kWorlds + w, tracer,
                      tracer.on() && first && w == 0 ? &report.layer : nullptr);
      setups.push_back(ep.setup_s);
      window_s += ep.window_s;
      if (!first) continue;
      const auto key = std::uint32_t(w * kNodes);
      for (const Crash& c : worlds[w].crashes) victims.push_back(key + c.node);
      for (const auto& [node, ms] : ep.first_detect_ms) first_detect[key + node] = ms;
    }
    rates.push_back(double(world_count * kNodes * kWindowEpochs) / window_s);
  } while (!tracer.on() && seconds_since(start) < opt.seconds);

  const CheckCount check = check_detected(victims, first_detect);
  const std::vector<double> latencies = detected_latencies(victims, first_detect);
  report.attempted = check.attempted;
  report.failed = check.failed;
  report.work_per_s = median(rates);
  report.setup_s = median(setups);
  report.setups = setups;
  report.detect_ms_p50 = median(latencies);
  report.detect_ms_p90 = quantile(latencies, 0.9);
  report.peak_bytes_per_node = double(peak_rss_bytes()) / double(kNodes);
  report.rep_rates = rates;

  if (tracer.on()) {
    auto& L = report.layer;
    for (const char* name : {"net.add_nodes", "cluster.directory",
                             "fds.service_build", "intercluster.build"}) {
      L[std::string(name) + "_ms"] =
          tracer.total_ms(name) / double(std::max<std::size_t>(1, tracer.count(name)));
    }
    L["fds.detect_ms_p90"] = report.detect_ms_p90;
    std::vector<std::uint32_t> fanout;
    L["radio.ns_per_delivery"] = radio_ns_per_delivery(worlds[0], opt.seed, &fanout);
    L["event.ns_per_event"] = event_ns_per_event(fanout, opt.seed);
  }
  return report;
}

}  // namespace perfbench
