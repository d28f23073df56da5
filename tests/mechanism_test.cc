// Additional mechanism-level tests: AgentContext cost accounting, enclave
// API edges, kernel-side scheduling-latency accounting, and a machine-shape
// conservation sweep.
#include <gtest/gtest.h>

#include "src/agent/agent_process.h"
#include "src/policies/centralized_fifo.h"
#include "src/policies/per_cpu_fifo.h"
#include "src/sim/simulation.h"
#include "tests/test_util.h"

namespace gs {
namespace {

// --- AgentContext cost ledger ---------------------------------------------------

class CostLedgerPolicy : public Policy {
 public:
  const char* name() const override { return "ledger"; }
  void Attached(AgentProcess*, Enclave* enclave, Kernel* kernel) override {
    enclave_ = enclave;
    kernel_ = kernel;
  }
  AgentAction RunAgent(AgentContext& ctx) override {
    if (!checked_) {
      checked_ = true;
      const CostModel& cost = kernel_->cost();
      const Duration base = ctx.cost();
      EXPECT_EQ(base, cost.agent_loop_fixed) << "iteration baseline";

      ctx.ReadAseq();
      EXPECT_EQ(ctx.cost(), base + cost.agent_per_cpu_scan);

      // Pop from an empty queue: free (nothing dequeued).
      const Duration before_pop = ctx.cost();
      EXPECT_FALSE(ctx.Pop(enclave_->default_queue()).has_value());
      EXPECT_EQ(ctx.cost(), before_pop);

      // A remote commit charges syscall + fixed + per-txn.
      const Duration before_commit = ctx.cost();
      Transaction txn = AgentContext::MakeTxn(/*tid=*/424242, /*cpu=*/1);
      Transaction* ptr = &txn;
      ctx.Commit(ptr);
      EXPECT_EQ(ctx.cost(), before_commit + cost.syscall + cost.remote_commit_fixed +
                                cost.remote_commit_per_txn);
      EXPECT_EQ(txn.status, TxnStatus::kEInvalid) << "unknown tid";
    }
    return AgentAction::kBlock;
  }
  bool checked_ = false;

 private:
  Enclave* enclave_ = nullptr;
  Kernel* kernel_ = nullptr;
};

TEST(AgentContextTest, CostLedgerMatchesCostModel) {
  SimulationContext m({.topology = Topology::Make("t", 1, 2, 1, 2)});
  auto enclave = m.CreateEnclave(CpuMask::AllUpTo(2));
  auto policy = std::make_unique<CostLedgerPolicy>();
  CostLedgerPolicy* ptr = policy.get();
  AgentProcess process(&m.kernel(), m.ghost_class(), enclave.get(), std::move(policy));
  process.Start();
  m.RunFor(Milliseconds(1));
  EXPECT_TRUE(ptr->checked_);
}

// --- Enclave API edges ---------------------------------------------------------------

TEST(EnclaveEdgeTest, RemoveTaskReturnsThreadToCfs) {
  SimulationContext m({.topology = Topology::Make("t", 1, 2, 1, 2)});
  auto enclave = m.CreateEnclave(CpuMask::AllUpTo(2));
  Task* t = m.kernel().CreateTask("w");
  enclave->AddTask(t);
  EXPECT_EQ(enclave->num_tasks(), 1);
  enclave->RemoveTask(t);
  EXPECT_EQ(enclave->num_tasks(), 0);
  EXPECT_EQ(t->sched_class(), m.kernel().default_class());
  // The thread still runs fine under CFS.
  m.kernel().StartBurst(t, Microseconds(10), [&m](Task* task) { m.kernel().Exit(task); });
  m.kernel().Wake(t);
  m.RunFor(Milliseconds(1));
  EXPECT_EQ(t->state(), TaskState::kDead);
}

TEST(EnclaveEdgeTest, DestroyQueueReroutesTickQueue) {
  SimulationContext m({.topology = Topology::Make("t", 1, 2, 1, 2)});
  auto enclave = m.CreateEnclave(CpuMask::AllUpTo(2));
  MessageQueue* q = enclave->CreateQueue();
  enclave->SetCpuQueue(0, q);
  enclave->DestroyQueue(q);
  // TIMER_TICK routing fell back to the default queue; run a ghOSt thread on
  // CPU 0 and expect ticks there.
  Task* t = m.kernel().CreateTask("w");
  enclave->AddTask(t);
  m.kernel().StartBurst(t, Milliseconds(5), [&m](Task* task) { m.kernel().Exit(task); });
  m.kernel().Wake(t);
  m.RunFor(Microseconds(10));
  Transaction txn;
  txn.tid = t->tid();
  txn.target_cpu = 0;
  Transaction* ptr = &txn;
  enclave->TxnsCommit(std::span<Transaction*>(&ptr, 1), nullptr, [](int) { return Duration{0}; });
  ASSERT_EQ(txn.status, TxnStatus::kCommitted);
  m.RunFor(Milliseconds(4));
  int ticks = 0;
  while (auto msg = enclave->PopMessage(enclave->default_queue())) {
    ticks += msg->type == MessageType::kTimerTick ? 1 : 0;
  }
  EXPECT_GE(ticks, 2);
}

TEST(EnclaveEdgeTest, SchedLatencyHistogramRecordsDispatches) {
  SimulationContext m({.topology = Topology::Make("t", 1, 2, 1, 2)});
  auto enclave = m.CreateEnclave(CpuMask::AllUpTo(2));
  AgentProcess process(&m.kernel(), m.ghost_class(), enclave.get(),
                       std::make_unique<PerCpuFifoPolicy>());
  process.Start();
  Task* t = m.kernel().CreateTask("w");
  enclave->AddTask(t);
  m.kernel().StartBurst(t, Microseconds(10), [&m](Task* task) { m.kernel().Exit(task); });
  m.kernel().Wake(t);
  m.RunFor(Milliseconds(2));
  ASSERT_EQ(t->state(), TaskState::kDead);
  EXPECT_GE(enclave->sched_latency().count(), 1);
  // Wakeup-to-running through the whole machinery: single-digit microseconds.
  EXPECT_LT(enclave->sched_latency().Percentile(100), Microseconds(20));
  EXPECT_GT(enclave->sched_latency().Percentile(0), Nanoseconds(500));
}

TEST(EnclaveEdgeTest, AddTaskTwiceIsFatalButRemoveAddWorks) {
  SimulationContext m({.topology = Topology::Make("t", 1, 2, 1, 2)});
  auto enclave = m.CreateEnclave(CpuMask::AllUpTo(2));
  Task* t = m.kernel().CreateTask("w");
  enclave->AddTask(t);
  enclave->RemoveTask(t);
  enclave->AddTask(t);  // re-admission after removal is legal
  EXPECT_EQ(enclave->num_tasks(), 1);
}

// --- Machine-shape conservation sweep ---------------------------------------------------

struct Shape {
  int sockets;
  int cores;
  int smt;
  int ccx;
};

class ShapeSweepTest : public ::testing::TestWithParam<Shape> {};

TEST_P(ShapeSweepTest, CentralizedPolicyConservesWorkOnAnyTopology) {
  const Shape shape = GetParam();
  Workers workers;
  SimulationContext m({.topology = Topology::Make("shape", shape.sockets, shape.cores,
                                                  shape.smt, shape.ccx)});
  auto enclave = m.CreateEnclave(m.kernel().topology().AllCpus());
  AgentProcess process(&m.kernel(), m.ghost_class(), enclave.get(),
                       std::make_unique<CentralizedFifoPolicy>());
  process.Start();

  const int n = m.kernel().topology().num_cpus() * 2;
  std::vector<Task*> tasks;
  for (int i = 0; i < n; ++i) {
    Task* t = m.kernel().CreateTask("w" + std::to_string(i));
    enclave->AddTask(t);
    workers.Bursty(m.kernel(), t, Microseconds(50), Microseconds(20), 5);
    tasks.push_back(t);
  }
  m.RunFor(Milliseconds(100));
  for (Task* t : tasks) {
    EXPECT_EQ(t->state(), TaskState::kDead) << t->name() << " on " <<
        m.kernel().topology().name();
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, ShapeSweepTest,
                         ::testing::Values(Shape{1, 2, 1, 2}, Shape{1, 4, 2, 4},
                                           Shape{2, 4, 2, 2}, Shape{2, 8, 2, 4},
                                           Shape{1, 16, 2, 4}));

}  // namespace
}  // namespace gs
