// Tests for the §3.3 hot handoff: "Whenever a non-ghOSt thread needs to run
// on the global agent's CPU, the global agent performs a 'hot handoff' to an
// inactive agent on another CPU."
#include <gtest/gtest.h>

#include "src/agent/agent_process.h"
#include "src/policies/centralized_fifo.h"
#include "src/sim/simulation.h"
#include "tests/test_util.h"

namespace gs {
namespace {

Task* GhostWorker(Workers& workers, SimulationContext& m, Enclave& enclave,
                  const std::string& name, Duration burst, int repeats) {
  Task* t = m.kernel().CreateTask(name);
  enclave.AddTask(t);
  workers.Bursty(m.kernel(), t, burst, Microseconds(50), repeats);
  return t;
}

TEST(HotHandoffTest, PinnedCfsThreadEvictsGlobalAgent) {
  Workers workers;
  SimulationContext m({.topology = Topology::Make("t", 1, 4, 1, 4)});
  auto enclave = m.CreateEnclave(CpuMask::AllUpTo(4));
  CentralizedFifoPolicy::Options options;
  options.global_cpu = 0;
  auto policy = std::make_unique<CentralizedFifoPolicy>(options);
  CentralizedFifoPolicy* policy_ptr = policy.get();
  AgentProcess process(&m.kernel(), m.ghost_class(), enclave.get(), std::move(policy));
  process.Start();

  // Keep the agent busy with ghOSt work so it is actually spinning.
  Task* worker = GhostWorker(workers, m, *enclave, "w", Microseconds(100), 300);
  m.RunFor(Milliseconds(2));
  ASSERT_EQ(policy_ptr->global_cpu(), 0);

  // A kernel daemon pinned to CPU 0 (the paper's per-CPU worker-thread
  // example) needs the agent's CPU.
  Task* daemon = m.kernel().CreateTask("kworker");
  m.kernel().SetAffinity(daemon, CpuMask::Single(0));
  Time daemon_done = -1;
  m.kernel().StartBurst(daemon, Milliseconds(1), [&](Task* t) {
    daemon_done = m.now();
    m.kernel().Exit(t);
  });
  const Time woke = m.now();
  m.kernel().Wake(daemon);
  m.RunFor(Milliseconds(10));

  // The agent handed its CPU over and kept scheduling from a new home.
  EXPECT_GE(daemon_done, 0) << "pinned CFS daemon must run";
  EXPECT_LT(daemon_done - woke, Milliseconds(3)) << "handoff must be prompt";
  EXPECT_GT(policy_ptr->hot_handoffs(), 0u);
  EXPECT_NE(policy_ptr->global_cpu(), 0);
  // ghOSt work keeps flowing across the handoff (300 x ~150us ~ 45 ms).
  m.RunFor(Milliseconds(80));
  EXPECT_EQ(worker->state(), TaskState::kDead);
  EXPECT_EQ(worker->total_runtime(), Microseconds(100) * 300);
}

TEST(HotHandoffTest, NoIdleCpuMeansNoHandoff) {
  // Single-CPU enclave: nowhere to hand off to; the agent keeps scheduling
  // and the pinned CFS thread waits, as on a fully busy machine.
  SimulationContext m({.topology = Topology::Make("t", 1, 2, 1, 2)});
  auto enclave = m.CreateEnclave(CpuMask::Single(0));
  CentralizedFifoPolicy::Options options;
  options.global_cpu = 0;
  auto policy = std::make_unique<CentralizedFifoPolicy>(options);
  CentralizedFifoPolicy* policy_ptr = policy.get();
  AgentProcess process(&m.kernel(), m.ghost_class(), enclave.get(), std::move(policy));
  process.Start();
  Task* daemon = m.kernel().CreateTask("kworker");
  m.kernel().SetAffinity(daemon, CpuMask::Single(0));
  m.kernel().StartBurst(daemon, Microseconds(100), [&m](Task* t) { m.kernel().Exit(t); });
  m.kernel().Wake(daemon);
  m.RunFor(Milliseconds(5));
  EXPECT_EQ(policy_ptr->hot_handoffs(), 0u);
  EXPECT_EQ(policy_ptr->global_cpu(), 0);
}

TEST(HotHandoffTest, AgentUpgradeResetsWatchdogClock) {
  // Regression for the watchdog-vs-upgrade race: a thread's runnable wait is
  // measured from runnable_since(), which an agent handoff does not reset. A
  // freshly registered agent inherits threads that may have been runnable
  // through the whole upgrade window; without restarting the measurement the
  // watchdog destroys the enclave before the new agent had any chance.
  SimulationContext m({.topology = Topology::Make("t", 1, 2, 1, 2)});
  Enclave::Config config;
  config.watchdog_timeout = Milliseconds(5);
  config.watchdog_period = Milliseconds(1);
  auto enclave = m.CreateEnclave(CpuMask::AllUpTo(2), config);

  // A runnable ghOSt thread with no agent: the watchdog clock is ticking.
  Task* w = m.kernel().CreateTask("w");
  enclave->AddTask(w);
  m.kernel().StartBurst(w, Microseconds(10),
                        [&m](Task* t) { m.kernel().Exit(t); });
  m.kernel().Wake(w);
  m.RunFor(Milliseconds(4));  // runnable 4 ms < 5 ms timeout
  ASSERT_FALSE(enclave->destroyed());

  // Agent upgrade at t=4ms: the handoff must restart the wait accounting.
  Task* agent = m.kernel().CreateTask("agent2", m.agent_class());
  enclave->RegisterAgentTask(1, agent);
  m.RunFor(Milliseconds(4));
  // t=8ms: 8 ms since the wakeup (over the timeout) but only 4 ms since the
  // handoff — the fresh agent still has time.
  EXPECT_FALSE(enclave->destroyed())
      << "watchdog charged the new agent for its predecessor's backlog";

  // The new agent never schedules the thread either: now blame is deserved.
  m.RunFor(Milliseconds(3));  // 7 ms since the handoff
  EXPECT_TRUE(enclave->destroyed());
  // Destruction moved the thread back to CFS, where it finishes.
  m.RunFor(Milliseconds(2));
  EXPECT_EQ(w->state(), TaskState::kDead);
}

}  // namespace
}  // namespace gs
