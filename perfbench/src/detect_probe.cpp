#include "detect_probe.h"

#include <cmath>
#include <memory>

#include "cluster/directory.h"
#include "cluster/membership.h"
#include "common/rng.h"
#include "fds/agent.h"
#include "net/network.h"
#include "sim/metrics.h"

namespace perfbench {

using namespace cfds;

void probe_detection(const ClusterShape& shape, int trials, std::uint64_t seed,
                     DetectProbe* out) {
  constexpr std::uint64_t kEpochs = 4;
  Rng rng(seed ^ 0xDE7EC7);
  for (int t = 0; t < trials; ++t) {
    NetworkConfig config;
    config.channel.t_hop = shape.t_hop;
    config.seed = rng();
    Network network(config, std::make_unique<BernoulliLoss>(shape.p));
    // CH at the centre, members uniform in its disk.
    const double range = config.channel.range;
    network.add_node(Vec2{0.0, 0.0});
    for (int i = 1; i < shape.n; ++i) {
      const double rad = range * std::sqrt(rng.uniform());
      const double theta = rng.uniform(0.0, 2.0 * M_PI);
      network.add_node(Vec2{rad * std::cos(theta), rad * std::sin(theta)});
    }
    std::vector<std::unique_ptr<MembershipView>> owned;
    std::vector<MembershipView*> views;
    for (int i = 0; i < shape.n; ++i) {
      owned.push_back(std::make_unique<MembershipView>(NodeId{std::uint32_t(i)}));
      views.push_back(owned.back().get());
    }
    DirectoryConfig dir_config;
    dir_config.num_deputies = shape.deputies;
    ClusterDirectory::single_cluster(std::size_t(shape.n), dir_config)
        .install(network, views);
    FdsConfig fds_config;
    fds_config.heartbeat_interval = shape.phi;
    FdsService fds(network, views, fds_config);
    MetricsCollector metrics;
    metrics.attach(fds, network);

    // Crash during epoch 1, at the midpoint of this trial's stratum of the
    // interval, jittered by up to a tenth of a stratum.
    const NodeId victim{std::uint32_t(rng.below(std::uint64_t(shape.n)))};
    const double frac =
        (double(t) + 0.5 + rng.uniform(-0.05, 0.05)) / double(trials);
    const SimTime crash_at =
        shape.phi + SimTime::micros(std::int64_t(frac * double(shape.phi.as_micros())));
    network.schedule_crash(victim, crash_at);
    (void)fds.run_epochs(kEpochs, SimTime::zero());

    const auto key = std::uint32_t(out->victims.size());
    out->victims.push_back(key);
    if (const auto d = metrics.first_detection(victim)) {
      out->first_detect_ms[key] = double((d->when - crash_at).as_micros()) / 1e3;
    }
  }
}

}  // namespace perfbench
