// Tests for the agent-side library (task table, runqueues) and the Search /
// Shinjuku policies' behaviours.
#include <gtest/gtest.h>

#include "src/agent/agent_process.h"
#include "src/agent/sdk/runqueue.h"
#include "src/agent/task_table.h"
#include "src/policies/search.h"
#include "src/policies/shinjuku.h"
#include "src/sim/simulation.h"
#include "tests/test_util.h"

namespace gs {
namespace {

// --- TaskTable -----------------------------------------------------------------

Message Msg(MessageType type, int64_t tid, uint32_t tseq, bool runnable = false) {
  Message msg;
  msg.type = type;
  msg.tid = tid;
  msg.tseq = tseq;
  msg.runnable = runnable;
  msg.affinity.SetAll();
  return msg;
}

TEST(TaskTableTest, LifecycleTransitions) {
  TaskTable table;
  PolicyTask* task = nullptr;

  EXPECT_EQ(table.Apply(Msg(MessageType::kTaskNew, 7, 1, false), &task),
            TaskTable::Event::kNew);
  ASSERT_NE(task, nullptr);
  EXPECT_FALSE(task->runnable);

  EXPECT_EQ(table.Apply(Msg(MessageType::kTaskWakeup, 7, 2), &task),
            TaskTable::Event::kRunnable);
  EXPECT_TRUE(task->runnable);
  EXPECT_EQ(task->tseq, 2u);

  EXPECT_EQ(table.Apply(Msg(MessageType::kTaskBlocked, 7, 3), &task),
            TaskTable::Event::kBlocked);
  EXPECT_FALSE(task->runnable);

  EXPECT_EQ(table.Apply(Msg(MessageType::kTaskDead, 7, 4), &task), TaskTable::Event::kDead);
  table.Remove(7);
  EXPECT_EQ(table.Find(7), nullptr);
}

TEST(TaskTableTest, PreemptionClearsAssignment) {
  TaskTable table;
  PolicyTask* task = nullptr;
  table.Apply(Msg(MessageType::kTaskNew, 1, 1, true), &task);
  task->assigned_cpu = 5;
  Message preempt = Msg(MessageType::kTaskPreempted, 1, 2);
  preempt.cpu = 5;
  table.Apply(preempt, &task);
  EXPECT_EQ(task->assigned_cpu, -1);
  EXPECT_EQ(task->last_cpu, 5);
  EXPECT_TRUE(task->runnable);
}

TEST(TaskTableTest, UnknownAndCpuMessagesAreIgnored) {
  TaskTable table;
  PolicyTask* task = nullptr;
  EXPECT_EQ(table.Apply(Msg(MessageType::kTaskWakeup, 99, 1), &task),
            TaskTable::Event::kNone);
  Message tick;
  tick.type = MessageType::kTimerTick;
  tick.tid = 0;
  EXPECT_EQ(table.Apply(tick, &task), TaskTable::Event::kNone);
  EXPECT_EQ(task, nullptr);
}

// --- Runqueues ------------------------------------------------------------------------

TEST(FifoRunqueueTest, OrderAndRemove) {
  TaskTable table;
  PolicyTask* a = table.Add(1);
  PolicyTask* b = table.Add(2);
  PolicyTask* c = table.Add(3);
  FifoRunqueue rq;
  rq.Push(a);
  rq.Push(b);
  rq.PushFront(c);
  EXPECT_EQ(rq.size(), 3u);
  EXPECT_TRUE(rq.Remove(b));
  EXPECT_FALSE(rq.Remove(b));
  EXPECT_EQ(rq.Pop(), c);
  EXPECT_EQ(rq.Pop(), a);
  EXPECT_EQ(rq.Pop(), nullptr);
}

TEST(MinRunqueueTest, OrdersByKeyThenTid) {
  TaskTable table;
  PolicyTask* a = table.Add(10);
  PolicyTask* b = table.Add(11);
  PolicyTask* c = table.Add(12);
  MinRunqueue rq;
  rq.Push(a, 100);
  rq.Push(b, 50);
  rq.Push(c, 100);
  EXPECT_EQ(rq.PopMin(), b);
  EXPECT_EQ(rq.PopMin(), a) << "key tie broken by tid";
  EXPECT_TRUE(rq.Contains(c));
  EXPECT_TRUE(rq.Remove(c));
  EXPECT_TRUE(rq.empty());
}

// --- Search policy placement behaviour -------------------------------------------------

class SearchPolicyTest : public ::testing::Test {
 protected:
  void Build() {
    machine_ = std::make_unique<SimulationContext>(SimulationContext::Options{
        .topology = Topology::AmdRome256(), .cost = CostModel().WithCacheWarmth()});
    enclave_ = machine_->CreateEnclave(machine_->kernel().topology().AllCpus());
    SearchPolicy::Options options;
    options.global_cpu = 0;
    process_ = std::make_unique<AgentProcess>(&machine_->kernel(), machine_->ghost_class(),
                                              enclave_.get(),
                                              std::make_unique<SearchPolicy>(options));
    process_->Start();
  }

  Task* BurstyWorker(const std::string& name, Duration burst, Duration gap, int repeats) {
    Task* t = machine_->kernel().CreateTask(name);
    enclave_->AddTask(t);
    workers_.Bursty(machine_->kernel(), t, burst, gap, repeats);
    return t;
  }

  Workers workers_;
  std::unique_ptr<SimulationContext> machine_;
  std::unique_ptr<Enclave> enclave_;
  std::unique_ptr<AgentProcess> process_;
};

TEST_F(SearchPolicyTest, RepeatedWakesStayOnWarmCcx) {
  Build();
  Task* worker = BurstyWorker("w", Microseconds(200), Microseconds(100), 20);
  machine_->RunFor(Milliseconds(20));
  ASSERT_EQ(worker->state(), TaskState::kDead);
  // With an empty machine, every wake must land back on the same CCX.
  auto* policy = static_cast<SearchPolicy*>(process_->policy());
  EXPECT_GE(policy->scheduled(), 20u);
}

TEST_F(SearchPolicyTest, RespectsNumaAffinity) {
  Build();
  Task* pinned = machine_->kernel().CreateTask("pinned");
  enclave_->AddTask(pinned);
  machine_->kernel().SetAffinity(pinned, machine_->kernel().topology().NumaMask(1));
  machine_->kernel().StartBurst(pinned, Microseconds(500), [this](Task* t) {
    machine_->kernel().Exit(t);
  });
  machine_->kernel().Wake(pinned);
  machine_->RunFor(Milliseconds(5));
  EXPECT_EQ(pinned->state(), TaskState::kDead);
  EXPECT_EQ(machine_->kernel().topology().cpu(pinned->last_cpu()).numa, 1);
}

TEST_F(SearchPolicyTest, MinRuntimeOrderFavoursFreshThreads) {
  Build();
  // A "veteran" with lots of accumulated runtime and a fresh thread both
  // wake with only one available CPU slot: the fresh one goes first.
  Task* veteran = BurstyWorker("vet", Milliseconds(5), Microseconds(10), 3);
  machine_->RunFor(Milliseconds(6));  // veteran accumulates runtime
  // Occupy every CPU except one with CFS hogs so the policy has one slot.
  const int total = machine_->kernel().topology().num_cpus();
  for (int cpu = 1; cpu < total - 1; ++cpu) {
    Task* hog = workers_.SpawnHog(machine_->kernel(), "hog" + std::to_string(cpu));
    machine_->kernel().SetAffinity(hog, CpuMask::Single(cpu));
  }
  machine_->RunFor(Milliseconds(10));
  Task* fresh = BurstyWorker("fresh", Microseconds(100), Microseconds(10), 2);
  machine_->RunFor(Milliseconds(30));
  EXPECT_EQ(fresh->state(), TaskState::kDead) << "fresh thread should get the slot";
  (void)veteran;
}

// --- Shinjuku policy factories ------------------------------------------------------------

TEST(ShinjukuFactoryTest, PoliciesCarryOptions) {
  auto shinjuku = MakeShinjukuPolicy(Microseconds(30));
  EXPECT_STREQ(shinjuku->name(), "centralized-fifo");
  auto shenango = MakeShinjukuShenangoPolicy(Microseconds(30), [](int64_t) { return 1; });
  auto snap = MakeSnapPolicy([](int64_t) { return 0; });
  EXPECT_NE(shenango, nullptr);
  EXPECT_NE(snap, nullptr);
}

}  // namespace
}  // namespace gs
