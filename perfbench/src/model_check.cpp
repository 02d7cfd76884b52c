// model_check: the verification user. check::explore run to exhaustion on
// one pinned configuration, repeated. Each exploration builds a fresh world
// per schedule, so world construction and fingerprinting dominate. The
// first exploration of a run is a warm-up and is not measured. Set-up is
// the options-to-first-world step, a few microseconds, so each set-up
// sample times worlds back to back (see kSetupSampleS).

#include <optional>
#include <vector>

#include "bench.h"
#include "check/explorer.h"
#include "check/world.h"
#include "checks.h"
#include "detect_probe.h"

namespace perfbench {
namespace {

using namespace cfds;
using namespace cfds::check;

/// Unique states of the pinned configuration on the reference tree. A
/// change that alters the state space must move this on purpose.
constexpr std::uint64_t kReferenceUniqueStates = 17'996;

CheckOptions pinned_options() {
  CheckOptions opts;
  opts.nodes = 3;
  opts.epochs = 3;
  opts.max_crashes = 1;
  opts.max_recoveries = 1;
  opts.max_drops = 2;
  return opts;
}

/// Takes branch 0 at every choice point and never prunes.
class FirstBranchSink final : public ChoiceSink {
 public:
  std::uint32_t choose(std::uint32_t, ChoiceKind, std::uint64_t,
                       std::uint64_t) override {
    return 0;
  }
  bool note_state(std::uint64_t) override { return true; }
};

/// Options to first world; returns seconds. The world is destroyed after
/// the clock stops.
double time_first_world() {
  FirstBranchSink sink;
  std::optional<CheckWorld> world;
  const auto start = Clock::now();
  const CheckOptions opts = pinned_options();
  world.emplace(opts, sink);
  return seconds_since(start);
}

/// Set-up samples taken before the warm-up exploration; one more follows
/// each measured one, so that their median covers the same stretch of the
/// run as the rates.
constexpr int kSetupSamplesBefore = 3;
constexpr int kSetupSamplesPerRep = 1;

}  // namespace

Report run_model_check(const Options& opt, Tracer& tracer) {
  Report report;
  const CheckOptions opts = pinned_options();
  const ExploreLimits limits;

  std::vector<double> setups;
  auto sample_setups = [&](int count) {
    for (int i = 0; i < count; ++i) {
      setups.push_back(setup_sample(&time_first_world));
    }
  };
  sample_setups(kSetupSamplesBefore);

  ExploreResult last;
  std::int64_t attempted = 0, failed = 0;
  auto explore_checked = [&] {
    last = explore(opts, limits);
    ++attempted;
    if (!exploration_ok(last, kReferenceUniqueStates)) ++failed;
  };
  explore_checked();  // warm-up, checked but not timed

  std::vector<double> rates, us_per_run;
  const auto start = Clock::now();
  do {
    const auto t = Clock::now();
    {
      ScopedSpan span(tracer, "check.explore");
      explore_checked();
    }
    const double s = seconds_since(t);
    rates.push_back(double(last.unique_states) / s);
    us_per_run.push_back(s * 1e6 / double(std::max<std::uint64_t>(1, last.runs)));
    if (!tracer.on()) sample_setups(kSetupSamplesPerRep);
  } while (!tracer.on() && seconds_since(start) < opt.seconds);

  // Detection latency of one seeded crash per trial in a cluster of the
  // pinned shape (three nodes: the CH and two ranked deputies).
  DetectProbe probe;
  ClusterShape shape;
  shape.n = int(opts.nodes);
  shape.deputies = opts.deputies;
  shape.p = 0.1;
  shape.t_hop = opts.t_hop;
  probe_detection(shape, 120, opt.seed, &probe);
  const CheckCount detect = check_detected(probe.victims, probe.first_detect_ms);
  const std::vector<double> latencies =
      detected_latencies(probe.victims, probe.first_detect_ms);

  report.attempted = attempted;
  report.failed = failed;
  report.note = "detection probe: " + std::to_string(detect.failed) + " of " +
                std::to_string(detect.attempted) + " crashes never declared";
  report.work_per_s = median(rates);
  report.setup_s = median(setups);
  report.setups = setups;
  report.detect_ms_p50 = median(latencies);
  report.detect_ms_p90 = quantile(latencies, 0.9);
  report.peak_bytes_per_node = double(peak_rss_bytes()) / double(opts.nodes);
  report.rep_rates = rates;

  if (tracer.on()) {
    auto& L = report.layer;
    L["check.runs"] = double(last.runs);
    L["check.pruned_runs"] = double(last.pruned_runs);
    L["check.unique_states"] = double(last.unique_states);
    L["check.states_per_run"] =
        double(last.unique_states) / double(std::max<std::uint64_t>(1, last.runs));
    L["check.us_per_run"] = median(us_per_run);
    std::vector<double> world_us;
    for (int i = 0; i < 50; ++i) {
      ScopedSpan span(tracer, "check.world_run");
      const auto t = Clock::now();
      FirstBranchSink sink;
      CheckWorld world(opts, sink);
      (void)world.run();
      world_us.push_back(seconds_since(t) * 1e6);
    }
    L["check.world_run_us"] = median(world_us);
  }
  return report;
}

}  // namespace perfbench
