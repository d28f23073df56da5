// End-to-end tests: agents + policies scheduling ghOSt threads on the
// simulated kernel (per-CPU and centralized models, upgrade, crash fallback).
#include <gtest/gtest.h>

#include "src/agent/agent_process.h"
#include "src/policies/centralized_fifo.h"
#include "src/policies/per_cpu_fifo.h"
#include "src/sim/simulation.h"
#include "tests/test_util.h"

namespace gs {
namespace {

Topology SmallTopo(int cores, int smt = 1) {
  return Topology::Make("test", 1, cores, smt, cores);
}

class AgentTest : public ::testing::Test {
 protected:
  void Build(int cores, std::unique_ptr<Policy> policy,
             Enclave::Config config = Enclave::Config()) {
    machine_ = std::make_unique<SimulationContext>(SimulationContext::Options{
        .topology = SmallTopo(cores)});
    enclave_ = machine_->CreateEnclave(CpuMask::AllUpTo(cores), config);
    process_ = std::make_unique<AgentProcess>(&machine_->kernel(), machine_->ghost_class(),
                                              enclave_.get(), std::move(policy));
    process_->Start();
  }

  // A worker that performs `n` bursts of `burst`, blocking `gap` between
  // them, then exits.
  Task* Worker(const std::string& name, Duration burst, int n, Duration gap = 0) {
    Task* task = machine_->kernel().CreateTask(name);
    enclave_->AddTask(task);
    return workers_.Bursty(machine_->kernel(), task, burst, gap, n);
  }

  Workers workers_;
  std::unique_ptr<SimulationContext> machine_;
  std::unique_ptr<Enclave> enclave_;
  std::unique_ptr<AgentProcess> process_;
};

TEST_F(AgentTest, PerCpuFifoRunsTasksToCompletion) {
  Build(2, std::make_unique<PerCpuFifoPolicy>());
  std::vector<Task*> tasks;
  for (int i = 0; i < 8; ++i) {
    tasks.push_back(Worker("w" + std::to_string(i), Microseconds(100), 3, Microseconds(50)));
  }
  machine_->RunFor(Milliseconds(50));
  for (Task* task : tasks) {
    EXPECT_EQ(task->state(), TaskState::kDead) << task->name();
    EXPECT_EQ(task->total_runtime(), Microseconds(300)) << task->name();
  }
}

TEST_F(AgentTest, PerCpuFifoSchedulingLatencyIsMicroscale) {
  Build(1, std::make_unique<PerCpuFifoPolicy>());
  machine_->RunFor(Milliseconds(1));
  const Time start = machine_->now();
  Task* task = Worker("w", Microseconds(10), 1);
  Time done = -1;
  for (int i = 0; i < 1000 && done < 0; ++i) {
    machine_->RunFor(Microseconds(1));
    if (task->state() == TaskState::kDead) {
      done = machine_->now();
    }
  }
  ASSERT_GE(done, 0);
  // Wakeup -> message -> agent wake -> drain -> commit -> switch -> 10us run.
  // The scheduling overhead itself is single-digit microseconds (Table 3).
  EXPECT_LT(done - start, Microseconds(10) + Microseconds(10));
}

TEST_F(AgentTest, CentralizedFifoRunsTasksAcrossCpus) {
  Build(4, std::make_unique<CentralizedFifoPolicy>());
  std::vector<Task*> tasks;
  for (int i = 0; i < 12; ++i) {
    tasks.push_back(Worker("w" + std::to_string(i), Microseconds(200), 2, Microseconds(20)));
  }
  machine_->RunFor(Milliseconds(50));
  for (Task* task : tasks) {
    EXPECT_EQ(task->state(), TaskState::kDead) << task->name();
  }
  auto* policy = static_cast<CentralizedFifoPolicy*>(process_->policy());
  EXPECT_GE(policy->scheduled(), 24u);
}

TEST_F(AgentTest, CentralizedTimeslicePreemptsLongRequests) {
  CentralizedFifoPolicy::Options options;
  options.preemption_timeslice = Microseconds(30);
  Build(2, std::make_unique<CentralizedFifoPolicy>(options));
  // One long hog and a stream of short tasks sharing the single worker CPU
  // (CPU 1; CPU 0 hosts the global agent).
  Task* hog = Worker("hog", Milliseconds(5), 1);
  machine_->RunFor(Microseconds(100));
  std::vector<Task*> shorts;
  for (int i = 0; i < 5; ++i) {
    shorts.push_back(Worker("s" + std::to_string(i), Microseconds(10), 1));
  }
  machine_->RunFor(Milliseconds(2));
  // The shorts must all have finished long before the 5 ms hog completes.
  for (Task* task : shorts) {
    EXPECT_EQ(task->state(), TaskState::kDead) << task->name();
  }
  EXPECT_NE(hog->state(), TaskState::kDead);
  auto* policy = static_cast<CentralizedFifoPolicy*>(process_->policy());
  EXPECT_GT(policy->preemptions(), 0u);
  machine_->RunFor(Milliseconds(10));
  EXPECT_EQ(hog->state(), TaskState::kDead);
}

TEST_F(AgentTest, BatchTierOnlyRunsWhenLatencyTierIdle) {
  CentralizedFifoPolicy::Options options;
  options.preemption_timeslice = Microseconds(50);
  auto batch_tids = std::make_shared<std::set<int64_t>>();
  options.tier_of = [batch_tids](int64_t tid) { return batch_tids->count(tid) ? 1 : 0; };
  Build(2, std::make_unique<CentralizedFifoPolicy>(options));

  // Batch hog claims the worker CPU.
  Task* batch = machine_->kernel().CreateTask("batch");
  batch_tids->insert(batch->tid());
  enclave_->AddTask(batch);
  workers_.Bursty(machine_->kernel(), batch, Milliseconds(1));
  machine_->RunFor(Milliseconds(1));
  ASSERT_EQ(batch->state(), TaskState::kRunning);

  // A latency-critical task arrives: it must preempt the batch hog quickly.
  const Time t0 = machine_->now();
  Task* lc = Worker("lc", Microseconds(20), 1);
  machine_->RunFor(Milliseconds(2));
  EXPECT_EQ(lc->state(), TaskState::kDead);
  EXPECT_LT(lc->total_runtime(), Microseconds(21));
  (void)t0;
  // Batch resumes afterwards.
  machine_->RunFor(Milliseconds(2));
  EXPECT_EQ(batch->state(), TaskState::kRunning);
}

TEST_F(AgentTest, InPlaceAgentUpgradePreservesThreads) {
  Build(2, std::make_unique<PerCpuFifoPolicy>());
  std::vector<Task*> tasks;
  for (int i = 0; i < 4; ++i) {
    tasks.push_back(Worker("w" + std::to_string(i), Microseconds(500), 40, Microseconds(100)));
  }
  machine_->RunFor(Milliseconds(3));

  // Old agent exits; new agent process attaches, restores from the kernel
  // dump, and resumes scheduling (§3.4). Threads keep making progress.
  process_->Shutdown();
  auto replacement = std::make_unique<AgentProcess>(
      &machine_->kernel(), machine_->ghost_class(), enclave_.get(),
      std::make_unique<CentralizedFifoPolicy>());
  replacement->Start();
  machine_->RunFor(Milliseconds(100));
  for (Task* task : tasks) {
    EXPECT_EQ(task->state(), TaskState::kDead) << task->name();
    EXPECT_EQ(task->total_runtime(), Microseconds(500) * 40);
  }
}

TEST_F(AgentTest, CrashFallsBackToCfsViaWatchdog) {
  Enclave::Config config;
  config.watchdog_timeout = Milliseconds(20);
  config.watchdog_period = Milliseconds(5);
  Build(2, std::make_unique<PerCpuFifoPolicy>(), config);
  std::vector<Task*> tasks;
  for (int i = 0; i < 4; ++i) {
    tasks.push_back(Worker("w" + std::to_string(i), Microseconds(500), 20, Microseconds(100)));
  }
  machine_->RunFor(Milliseconds(2));
  process_->Crash();
  // With no agent, runnable ghOSt threads stall; the watchdog destroys the
  // enclave and the threads finish under CFS.
  machine_->RunFor(Milliseconds(200));
  EXPECT_TRUE(enclave_->destroyed());
  for (Task* task : tasks) {
    EXPECT_EQ(task->state(), TaskState::kDead) << task->name();
    EXPECT_EQ(task->sched_class(), machine_->kernel().default_class());
  }
}

TEST_F(AgentTest, GhostThreadsArePreemptedByCfs) {
  Build(2, std::make_unique<CentralizedFifoPolicy>());
  Task* ghost_hog = Worker("ghost-hog", Milliseconds(50), 1);
  machine_->RunFor(Milliseconds(1));
  ASSERT_EQ(ghost_hog->state(), TaskState::kRunning);
  const int cpu = ghost_hog->cpu();
  // A CFS thread pinned to the same CPU must preempt the ghOSt thread (§3.4).
  Task* cfs = machine_->kernel().CreateTask("cfs");
  machine_->kernel().SetAffinity(cfs, CpuMask::Single(cpu));
  Time cfs_done = 0;
  machine_->kernel().StartBurst(cfs, Milliseconds(2), [&](Task* t) {
    cfs_done = machine_->now();
    machine_->kernel().Exit(t);
  });
  const Time t0 = machine_->now();
  machine_->kernel().Wake(cfs);
  machine_->RunFor(Milliseconds(10));
  EXPECT_GT(cfs_done, 0);
  EXPECT_LT(cfs_done - t0, Milliseconds(2) + Microseconds(100))
      << "CFS thread should not wait behind the ghOSt hog";
  machine_->RunFor(Milliseconds(100));
  EXPECT_EQ(ghost_hog->state(), TaskState::kDead) << "rescheduled after preemption";
}

TEST_F(AgentTest, AgentIterationsAreBounded) {
  Build(2, std::make_unique<CentralizedFifoPolicy>());
  Worker("w", Microseconds(100), 5, Microseconds(100));
  machine_->RunFor(Milliseconds(10));
  // A spinning agent with poke-based poll-wait shouldn't busy-loop millions
  // of iterations for 5 short bursts.
  EXPECT_LT(process_->iterations(), 2000u);
}

}  // namespace
}  // namespace gs
