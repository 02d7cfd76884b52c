// Crash-detection latency in one cluster, for the workloads whose main loop
// injects no crashes (paper_mc, model_check). Each trial builds the cluster
// the workload studies, crashes one seeded node at a seeded instant
// (stratified over one heartbeat interval) and runs the FDS until a decider
// declares it or a fixed number of executions have passed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "common/sim_time.h"

namespace perfbench {

struct ClusterShape {
  int n = 50;                 ///< population including the CH
  double p = 0.1;             ///< Bernoulli loss
  std::size_t deputies = 1;   ///< ranked DCHs
  cfds::SimTime t_hop = cfds::SimTime::millis(100);
  cfds::SimTime phi = cfds::SimTime::millis(800);
};

struct DetectProbe {
  std::vector<std::uint32_t> victims;            ///< one key per trial
  std::map<std::uint32_t, double> first_detect_ms;  ///< trial -> latency
};

/// Appends `trials` crash trials on `shape` to `out`; trial keys continue
/// from out->victims.size().
void probe_detection(const ClusterShape& shape, int trials, std::uint64_t seed,
                     DetectProbe* out);

}  // namespace perfbench
