// Steady-state FDS epochs must be allocation-free: the megascale path
// (bench_megascale) runs millions of epochs-worth of events in one process,
// and any per-epoch heap churn both dominates the profile and fragments the
// heap long before 10^6 nodes. This binary proves the property the code
// comments promise — warm flat containers, pooled send payloads, slab-backed
// events and transmissions — by counting every ::operator new across two
// full executions of a 10^4-node world and demanding zero.
//
// Scope: the simulator's hard-boundary path under the default config (no
// epoch-skew tolerance, no adaptive accrual, no checkpoints, no forwarder,
// no hooks), a clean channel, and no failures — exactly the state an idle
// deployed world sits in. The skew path's prune_evidence keeps a local
// scratch vector and is exercised by service-mode tests instead.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "cluster/directory.h"
#include "cluster/membership.h"
#include "fds/agent.h"
#include "net/network.h"
#include "net/topology.h"

// Global allocation counter (same pattern as test_simulator.cpp): the
// counter only ticks between begin/end so setup and teardown are unaffected.
namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};
}  // namespace

// The counting operator new allocates with std::malloc, so the matching
// operator delete releases with std::free. GCC's caller-side heuristic only
// sees "delete expression ends in free()" and flags every inlined delete
// site; the pairing is correct by construction.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

#ifdef CFDS_ALLOC_TRACE
#include <execinfo.h>
namespace {
constexpr int kMaxTraces = 20000;
void* g_traces[kMaxTraces][8];
int g_trace_sizes[kMaxTraces];
std::size_t g_trace_bytes[kMaxTraces];
std::atomic<int> g_trace_count{0};
}  // namespace
#endif

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
#ifdef CFDS_ALLOC_TRACE
    g_counting.store(false, std::memory_order_relaxed);
    const int slot = g_trace_count.fetch_add(1, std::memory_order_relaxed);
    if (slot < kMaxTraces) {
      g_trace_sizes[slot] = backtrace(g_traces[slot], 8);
      g_trace_bytes[slot] = size;
    }
    g_counting.store(true, std::memory_order_relaxed);
#endif
  }
  void* ptr = std::malloc(size == 0 ? 1 : size);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }

namespace cfds {
namespace {

TEST(SteadyStateAlloc, EpochsAtTenThousandNodesAreAllocationFree) {
  constexpr std::size_t kNodes = 10'000;
  // ~50 nodes per transmission disk, the paper's density regime
  // (500 nodes <-> 700 x 450 at range 100).
  const double width = 700.0 * 4.4721;
  const double height = 450.0 * 4.4721;

  NetworkConfig net_config;
  net_config.seed = 7;
  Network network(net_config, std::make_unique<BernoulliLoss>(0.0));
  Rng placement = network.fork_rng();
  const auto positions = uniform_rect(kNodes, width, height, placement);
  network.add_nodes(positions);

  const auto directory =
      ClusterDirectory::build(positions, net_config.channel.range);
  std::vector<std::unique_ptr<MembershipView>> owned_views;
  std::vector<MembershipView*> views;
  for (std::size_t i = 0; i < kNodes; ++i) {
    owned_views.push_back(
        std::make_unique<MembershipView>(NodeId{std::uint32_t(i)}));
    views.push_back(owned_views.back().get());
  }
  directory.install(network, views);

  FdsConfig config;  // defaults: the simulator hard-boundary path
  config.heartbeat_interval = SimTime::seconds(2);
  FdsService fds(network, views, config);

  // Pre-size the event queue above the round burst's peak (~4.3e5 pending
  // deliveries at this n), as the megascale bench does. Without it the
  // calendar's blocks and the timer slab grow to the largest burst the
  // warm-up happens to meet, so a measured epoch whose burst peaks a little
  // higher than every warm-up epoch's would allocate.
  network.simulator().reserve(std::size_t{1} << 19);

  const SimTime phi = config.heartbeat_interval;
  std::uint64_t epoch = 0;
  SimTime next = phi;
  auto run_epochs = [&](std::uint64_t count) {
    for (std::uint64_t k = 0; k < count; ++k) {
      fds.schedule_epoch(epoch++, next);
      next += phi;
    }
    network.simulator().run_until(next);
  };

  // Warm-up: capacity growth everywhere (event slab, calendar queue,
  // transmission slab, evidence tables, payload pools) and the first-epoch
  // subscription round (every node starts unmarked, so epoch 0 carries
  // admissions and membership snapshots). Several epochs, not one: pooled
  // buffers pair with different demand each epoch (transmissions with
  // senders, digest slots with digest sizes), so the capacity population
  // takes a few epochs to cover the worst per-epoch pairing.
  run_epochs(6);

  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  run_epochs(2);
  g_counting.store(false, std::memory_order_relaxed);

#ifdef CFDS_ALLOC_TRACE
  {
    // Aggregate by (frame2, frame3) call-site pair; print each unique site
    // once with its hit count, total bytes, and one full stack.
    const int n = std::min(kMaxTraces, g_trace_count.load());
    std::vector<int> order;
    for (int t = 0; t < n; ++t) {
      bool fresh = true;
      for (int u : order) {
        if (g_traces[t][2] == g_traces[u][2] &&
            g_traces[t][3] == g_traces[u][3]) {
          fresh = false;
          break;
        }
      }
      if (fresh) order.push_back(t);
    }
    for (int u : order) {
      int hits = 0;
      std::size_t bytes = 0;
      for (int t = 0; t < n; ++t) {
        if (g_traces[t][2] == g_traces[u][2] &&
            g_traces[t][3] == g_traces[u][3]) {
          hits++;
          bytes += g_trace_bytes[t];
        }
      }
      char** syms = backtrace_symbols(g_traces[u], g_trace_sizes[u]);
      std::printf("=== site: %d hits, %zu bytes ===\n", hits, bytes);
      std::printf("  sizes:");
      for (int t = 0; t < n; ++t) {
        if (g_traces[t][2] == g_traces[u][2] &&
            g_traces[t][3] == g_traces[u][3]) {
          std::printf(" %zu", g_trace_bytes[t]);
        }
      }
      std::printf("\n");
      for (int f = 2; f < g_trace_sizes[u]; ++f)
        std::printf("  %s\n", syms[f]);
      std::free(syms);
    }
  }
#endif
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), 0u)
      << "steady-state epochs must reuse warm buffers (see the pooled-send "
         "and slot-table comments in fds/agent.h and fds/detector.h)";

  // The property must not come from a degenerate world: the clusters formed
  // and every agent stayed in the sweep.
  EXPECT_GT(directory.clusters().size(), 100u);
  EXPECT_EQ(fds.active_agents(), kNodes);
}

}  // namespace
}  // namespace cfds
