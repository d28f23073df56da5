// Deterministic replay: identical seeds must reproduce identical executions.
//
// The whole simulation — including every injected fault — is a deterministic
// function of (topology, workload, seed). The rolling trace digest folds
// every recorded event (switches, messages, commits, drops, faults) into one
// value at Record time, so two runs agree on the digest iff they agree on
// the full event history. This is the contract that makes chaos failures
// reproducible from just a seed.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "src/agent/agent_process.h"
#include "src/policies/centralized_fifo.h"
#include "src/policies/per_cpu_fifo.h"
#include "src/sim/fault_injector.h"
#include "src/sim/simulation.h"
#include "tests/test_util.h"

namespace gs {
namespace {

std::unique_ptr<Policy> MakePolicy(int kind) {
  switch (kind) {
    case 0:
      return std::make_unique<PerCpuFifoPolicy>();
    default:
      return std::make_unique<CentralizedFifoPolicy>();
  }
}

// One full chaotic run: probabilistic faults (late/lost IPIs, ESTALE,
// overflow pressure) sampled from `seed`, plus a scheduled transient agent
// stall. Returns {digest, events recorded}.
std::pair<uint64_t, uint64_t> RunScenario(int policy_kind, uint64_t seed) {
  Workers workers;
  SimulationContext machine({.topology = Topology::Make("replay", 1, 4, 1, 4)});
  machine.kernel().trace().Enable();

  FaultInjector::Config faults;
  faults.ipi_delay_probability = 0.2;
  faults.ipi_drop_probability = 0.1;
  faults.estale_probability = 0.15;
  faults.msg_drop_probability = 0.02;
  FaultInjector injector(&machine.loop(), &machine.kernel().trace(), seed, faults);
  machine.kernel().set_fault_injector(&injector);

  Enclave::Config config;
  config.watchdog_timeout = Milliseconds(60);
  auto enclave = machine.CreateEnclave(CpuMask::AllUpTo(4), config);
  AgentProcess process(&machine.kernel(), machine.ghost_class(), enclave.get(),
                       MakePolicy(policy_kind));
  process.Start();

  std::vector<Task*> tasks;
  for (int i = 0; i < 8; ++i) {
    Task* task = machine.kernel().CreateTask("w" + std::to_string(i));
    enclave->AddTask(task);
    workers.Bursty(machine.kernel(), task, Microseconds(150), Microseconds(50), 60);
  }

  // A transient stall (shorter than the watchdog bound) is part of the
  // scripted fault history.
  injector.At(Milliseconds(10), FaultKind::kAgentStall,
              [&process] { process.SetStalled(true); });
  machine.loop().ScheduleAt(Milliseconds(14), [&process] { process.SetStalled(false); });

  machine.RunFor(Milliseconds(50));
  EXPECT_FALSE(enclave->destroyed());
  return {machine.kernel().trace().digest(), machine.kernel().trace().recorded()};
}

TEST(ReplayTest, SameSeedReproducesIdenticalDigest) {
  const uint64_t seeds[] = {1, 12345, 0xdeadbeef};
  for (int policy = 0; policy < 2; ++policy) {
    for (uint64_t seed : seeds) {
      const auto first = RunScenario(policy, seed);
      const auto second = RunScenario(policy, seed);
      EXPECT_GT(first.second, 1000u) << "scenario should record a rich trace";
      EXPECT_EQ(first.first, second.first)
          << "policy " << policy << " seed " << seed << " diverged: "
          << first.second << " vs " << second.second << " events";
      EXPECT_EQ(first.second, second.second);
    }
  }
}

TEST(ReplayTest, DifferentSeedsDiverge) {
  for (int policy = 0; policy < 2; ++policy) {
    std::set<uint64_t> digests;
    for (uint64_t seed : {7u, 8u, 9u}) {
      digests.insert(RunScenario(policy, seed).first);
    }
    EXPECT_EQ(digests.size(), 3u) << "fault sampling must depend on the seed";
  }
}

}  // namespace
}  // namespace gs
