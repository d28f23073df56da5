// Tests for in-kernel core scheduling (the §4.5 baseline) and the ghOSt
// secure-VM policy: the security invariant under stress, rotation fairness,
// and pair granularity.
#include <gtest/gtest.h>

#include "src/agent/agent_process.h"
#include "src/base/rng.h"
#include "src/policies/vm_core_sched.h"
#include "src/sim/simulation.h"
#include "src/workloads/vm_workload.h"
#include "tests/test_util.h"

namespace gs {
namespace {

// Helper: create a core-sched hog with a cookie (cookie must precede wake).
Task* CookieHog(Workers& workers, SimulationContext& m, const std::string& name,
                int64_t cookie, Duration chunk = Milliseconds(1)) {
  Task* t = m.kernel().CreateTask(name, m.core_sched_class());
  m.core_sched_class()->SetCookie(t, cookie);
  return workers.Bursty(m.kernel(), t, chunk);
}

TEST(CoreSchedTest, TwoVmsNeverShareACore) {
  Workers workers;
  SimulationContext m({.topology = Topology::Make("t", 1, 1, 2, 1), .with_core_sched = true});
  // One core, two VMs with two threads each: they must timeshare the core as
  // whole pairs.
  std::vector<Task*> tasks;
  for (int vm = 1; vm <= 2; ++vm) {
    for (int i = 0; i < 2; ++i) {
      tasks.push_back(
          CookieHog(workers, m, "vm" + std::to_string(vm) + "/" + std::to_string(i), vm));
    }
  }
  m.RunFor(Milliseconds(200));
  EXPECT_EQ(m.core_sched_class()->violations(), 0u);
  EXPECT_GT(m.core_sched_class()->rotations(), 5u) << "slice rotation must happen";
  // Fairness: both VMs make comparable progress.
  const Duration vm1 = tasks[0]->total_runtime() + tasks[1]->total_runtime();
  const Duration vm2 = tasks[2]->total_runtime() + tasks[3]->total_runtime();
  EXPECT_NEAR(static_cast<double>(vm1) / static_cast<double>(vm2), 1.0, 0.35);
}

class CoreSchedStressTest : public ::testing::TestWithParam<int> {};

TEST_P(CoreSchedStressTest, NoViolationsUnderChurn) {
  const int num_vms = GetParam();
  Workers workers;
  SimulationContext m({.topology = Topology::Make("t", 1, 4, 2, 4), .with_core_sched = true});
  std::vector<Task*> tasks;
  // VMs whose threads run random bursts and block for random gaps.
  for (int vm = 1; vm <= num_vms; ++vm) {
    for (int i = 0; i < 2; ++i) {
      Task* t = m.kernel().CreateTask("vm" + std::to_string(vm) + "/" + std::to_string(i),
                                      m.core_sched_class());
      m.core_sched_class()->SetCookie(t, vm);
      auto rng = std::make_shared<Rng>(vm * 100 + i);
      auto next_burst = [rng] {
        return static_cast<Duration>(rng->NextBounded(2'000'000) + 10'000);
      };
      workers.Chain(m.kernel(), t, next_burst(), [rng, next_burst](Task*) {
        const auto gap = static_cast<Duration>(rng->NextBounded(500'000) + 1000);
        return Workers::Next{gap, next_burst()};
      });
      tasks.push_back(t);
    }
  }
  m.RunFor(Milliseconds(300));
  EXPECT_EQ(m.core_sched_class()->violations(), 0u) << num_vms << " VMs";
  // Everyone made progress (no starvation).
  for (Task* t : tasks) {
    EXPECT_GT(t->total_runtime(), 0) << t->name();
  }
}

INSTANTIATE_TEST_SUITE_P(VmCounts, CoreSchedStressTest, ::testing::Values(2, 4, 6, 10));

// --- ghOSt secure-VM policy -------------------------------------------------------

class VmPolicyTest : public ::testing::TestWithParam<int> {};

TEST_P(VmPolicyTest, OversubscribedVmsRotateSecurely) {
  const int num_vms = GetParam();
  SimulationContext m({.topology = Topology::Make("t", 1, 4, 2, 4)});
  auto enclave = m.CreateEnclave(m.kernel().topology().AllCpus());
  VmWorkload vms(&m.kernel(), {.num_vms = num_vms,
                               .vcpus_per_vm = 2,
                               .work_per_vcpu = Milliseconds(30)});
  VmCoreSchedPolicy::Options options;
  options.global_cpu = 0;
  options.slice = Milliseconds(3);
  VmWorkload* ptr = &vms;
  options.cookie_of = [ptr](int64_t tid) { return ptr->CookieOf(tid); };
  AgentProcess process(&m.kernel(), m.ghost_class(), enclave.get(),
                       std::make_unique<VmCoreSchedPolicy>(options));
  process.Start();
  for (Task* vcpu : vms.vcpus()) {
    enclave->AddTask(vcpu);
  }
  vms.StartSecuritySampler(Microseconds(200));
  vms.Start();
  // 3 schedulable cores (agent owns one of 4): heavy oversubscription.
  while (!vms.AllDone() && m.now() < Seconds(10)) {
    m.RunFor(Milliseconds(20));
  }
  EXPECT_TRUE(vms.AllDone()) << "every vCPU must finish (no VM starved)";
  EXPECT_EQ(vms.coresidency_violations(), 0u);
  auto* policy = static_cast<VmCoreSchedPolicy*>(process.policy());
  if (num_vms > 3) {
    EXPECT_GT(policy->cores_scheduled(), static_cast<uint64_t>(num_vms))
        << "oversubscription requires rotation";
  }
}

INSTANTIATE_TEST_SUITE_P(VmCounts, VmPolicyTest, ::testing::Values(2, 3, 6, 9));

TEST(VmPolicyTest, SoloVcpuForcesSiblingIdle) {
  SimulationContext m({.topology = Topology::Make("t", 1, 2, 2, 2)});
  auto enclave = m.CreateEnclave(m.kernel().topology().AllCpus());
  // One VM with a single vCPU: its core's sibling must be forced idle, and
  // no other thread may land there.
  VmWorkload vms(&m.kernel(),
                 {.num_vms = 1, .vcpus_per_vm = 1, .work_per_vcpu = Milliseconds(20)});
  VmCoreSchedPolicy::Options options;
  options.global_cpu = 0;
  VmWorkload* ptr = &vms;
  options.cookie_of = [ptr](int64_t tid) { return ptr->CookieOf(tid); };
  AgentProcess process(&m.kernel(), m.ghost_class(), enclave.get(),
                       std::make_unique<VmCoreSchedPolicy>(options));
  process.Start();
  enclave->AddTask(vms.vcpus()[0]);
  vms.Start();
  m.RunFor(Milliseconds(5));
  ASSERT_EQ(vms.vcpus()[0]->state(), TaskState::kRunning);
  const int cpu = vms.vcpus()[0]->cpu();
  const int sibling = m.kernel().topology().cpu(cpu).sibling;
  EXPECT_TRUE(m.ghost_class()->forced_idle(sibling));
  EXPECT_TRUE(m.kernel().CpuIdle(sibling));
}

}  // namespace
}  // namespace gs
