// Steady-state allocation test for the fleet layer, in the style of
// sim_alloc_test: once lanes, join tables, event slots and queue rings are
// warm, a fleet epoch must not touch the heap. Two runs that differ only in
// the length of their loaded measurement window must allocate equally often.
// Every cross-machine RPC is four network messages (request, leaf request,
// leaf response, response), so a single heap hit per message shows up here
// thousands of times.
#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "src/fleet/cluster.h"
#include "src/scenario/scenario.h"

namespace {

std::atomic<uint64_t> g_allocs{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace gs {
namespace fleet {
namespace {

// simbench fleet_rpc's shape at 8 machines: per_cpu_fifo agents, 2-way
// fan-out, least_loaded below its shed threshold, invariant scans on. The
// warm-up runs at three times the measured load, so buffers that grow with
// the traffic (send buffers, ready lists, queue rings) reach their size
// before counting starts; the measured load then runs to the end of the
// measurement window.
std::string FleetSpec(int measure_ms) {
  const std::string ms = std::to_string(measure_ms);
  return R"json({
  "name": "fleet_alloc",
  "seed": 11,
  "warmup_ms": 5, "measure_ms": )json" +
         ms + R"json(, "drain_ms": 5,
  "topology": {"preset": "custom", "sockets": 1, "cores_per_socket": 2, "smt": 2, "cores_per_ccx": 2},
  "policy": {"kind": "per_cpu_fifo"},
  "enclave": {"cpu_first": 1},
  "workload": {
    "kind": "request_service", "num_workers": 24,
    "service": {"model": "exponential", "mean_us": 50},
    "phases": [{"duration_ms": 5, "qps": 150000},
               {"duration_ms": )json" +
         ms + R"json(, "qps": 50000}]
  },
  "fleet": {
    "machines": 8, "sessions": 1024, "rpc_fanout": 2,
    "balancer": {"policy": "least_loaded", "shed_outstanding": 48},
    "network": {"latency_us": 50, "bandwidth_gbps": 10,
                "request_bytes": 1500, "response_bytes": 4096}
  }
})json";
}

struct CountedRun {
  uint64_t allocs = 0;
  int64_t epochs = 0;
  scenario::ScenarioResult result;
};

// Builds, runs and destroys one fleet at --jobs=1, counting every heap
// allocation in between.
CountedRun RunCounted(int measure_ms) {
  std::string error;
  std::optional<scenario::ScenarioSpec> spec =
      scenario::ScenarioSpec::Parse(FleetSpec(measure_ms), &error);
  if (!spec.has_value()) {
    ADD_FAILURE() << error;
    return {};
  }
  EXPECT_TRUE(spec->invariants.enabled);
  CountedRun run;
  const uint64_t before = g_allocs.load(std::memory_order_relaxed);
  {
    Cluster cluster(*spec, nullptr, /*jobs=*/1);
    run.result = cluster.Run();
    run.epochs = cluster.epochs();
  }
  run.allocs = g_allocs.load(std::memory_order_relaxed) - before;
  return run;
}

TEST(FleetAllocTest, SteadyStateEpochsAreAllocationFree) {
  // Epochs are 50 us. The longer run adds 15 ms (300 epochs) of measurement
  // under load and nothing else, so every allocation it makes beyond the
  // shorter run's is an allocation of a warm epoch.
  constexpr int kShortMeasureMs = 20;
  constexpr int kLongMeasureMs = 35;
  RunCounted(kShortMeasureMs);  // one-time process state (statics, registries)
  const CountedRun short_run = RunCounted(kShortMeasureMs);
  const CountedRun long_run = RunCounted(kLongMeasureMs);
  ASSERT_GE(long_run.epochs - short_run.epochs, 300);
  for (const CountedRun* run : {&short_run, &long_run}) {
    EXPECT_EQ(run->result.exact.at("invariants_ok"), 1);
  }
  // 50 kqps for 15 ms is about 750 more requests, 3000 more messages.
  EXPECT_GT(long_run.result.exact.at("net_messages") -
                short_run.result.exact.at("net_messages"),
            2500);
  EXPECT_EQ(long_run.allocs, short_run.allocs)
      << "fleet epochs (network lanes, RPC joins, machine loops, invariant "
         "scans) must not allocate once warm";
}

}  // namespace
}  // namespace fleet
}  // namespace gs
