// Regression tests for batched message delivery (producer-side wakeup
// coalescing).
//
// Messages posted to one queue within a single dispatch batch (same virtual
// instant) share one armed wakeup event instead of scheduling one each; the
// coalesced wakeups were provably no-ops (wake-if-blocked at the same
// instant, after the first wake the agent cannot have re-blocked). These
// tests pin down the three properties the optimization must preserve:
// per-queue FIFO order, exactly one wakeup per same-instant batch, and the
// overflow -> TaskDump resync path.
#include <gtest/gtest.h>

#include "src/sim/simulation.h"

namespace gs {
namespace {

class BatchedDeliveryTest : public ::testing::Test {
 protected:
  void Build(int cores, Enclave::Config config = Enclave::Config()) {
    machine_ = std::make_unique<SimulationContext>(SimulationContext::Options{
        .topology = Topology::Make("test", 1, cores, 1, cores)});
    enclave_ = machine_->CreateEnclave(CpuMask::AllUpTo(cores), config);
  }

  // A stand-in consumer parked in kBlocked, the state Post's wakeup targets.
  Task* BlockedAgent() {
    Kernel& kernel = machine_->kernel();
    Task* agent = kernel.CreateTask("agent");
    // Flagged as an agent so it may sit on a CPU with no pending burst after
    // the delivery wakeup (the kernel forbids that for ordinary tasks).
    agent->set_is_agent(true);
    kernel.StartBurst(agent, Nanoseconds(100),
                      [&kernel](Task* t) { kernel.Block(t); });
    kernel.Wake(agent);
    machine_->RunFor(Microseconds(5));
    EXPECT_EQ(agent->state(), TaskState::kBlocked);
    return agent;
  }

  std::unique_ptr<SimulationContext> machine_;
  std::unique_ptr<Enclave> enclave_;
};

TEST_F(BatchedDeliveryTest, SameInstantBatchArmsExactlyOneWakeup) {
  Build(2);
  Task* agent = BlockedAgent();
  enclave_->ConfigQueueWakeup(enclave_->default_queue(), agent);

  const uint64_t scheduled_before = enclave_->queue_wakeups_scheduled();
  const uint64_t coalesced_before = enclave_->queue_wakeups_coalesced();

  // Three kTaskNew posts land on the default queue at the same instant.
  std::vector<Task*> workers;
  for (int i = 0; i < 3; ++i) {
    Task* t = machine_->kernel().CreateTask("w" + std::to_string(i));
    enclave_->AddTask(t);
    workers.push_back(t);
  }

  EXPECT_EQ(enclave_->queue_wakeups_scheduled() - scheduled_before, 1u)
      << "N same-instant posts must arm exactly one wakeup event";
  EXPECT_EQ(enclave_->queue_wakeups_coalesced() - coalesced_before, 2u)
      << "the other N-1 wakeups must ride the armed event";

  // The single armed event still wakes the consumer.
  machine_->RunFor(Microseconds(5));
  EXPECT_NE(agent->state(), TaskState::kBlocked)
      << "the coalesced batch must still deliver its wakeup";

  // Per-queue FIFO survives coalescing: messages pop in post order.
  std::vector<int64_t> tids;
  while (auto msg = enclave_->PopMessage(enclave_->default_queue())) {
    tids.push_back(msg->tid);
  }
  ASSERT_EQ(tids.size(), 3u);
  for (size_t i = 0; i < workers.size(); ++i) {
    EXPECT_EQ(tids[i], workers[i]->tid()) << "FIFO order broken at " << i;
  }
}

TEST_F(BatchedDeliveryTest, DistinctInstantsArmSeparateWakeups) {
  Build(2);
  Task* agent = BlockedAgent();
  enclave_->ConfigQueueWakeup(enclave_->default_queue(), agent);

  const uint64_t scheduled_before = enclave_->queue_wakeups_scheduled();
  const uint64_t coalesced_before = enclave_->queue_wakeups_coalesced();

  Task* first = machine_->kernel().CreateTask("w0");
  enclave_->AddTask(first);

  // Let the armed wakeup fire, then park the consumer again.
  machine_->RunFor(Microseconds(5));
  Kernel& kernel = machine_->kernel();
  kernel.StartBurst(agent, Nanoseconds(100),
                    [&kernel](Task* t) { kernel.Block(t); });
  machine_->RunFor(Microseconds(5));
  ASSERT_EQ(agent->state(), TaskState::kBlocked);

  // A later instant must arm a fresh event, not reuse the stale one.
  Task* second = machine_->kernel().CreateTask("w1");
  enclave_->AddTask(second);

  EXPECT_EQ(enclave_->queue_wakeups_scheduled() - scheduled_before, 2u)
      << "posts at different instants must each arm their own wakeup";
  EXPECT_EQ(enclave_->queue_wakeups_coalesced() - coalesced_before, 0u);

  machine_->RunFor(Microseconds(5));
  EXPECT_NE(agent->state(), TaskState::kBlocked);
}

TEST_F(BatchedDeliveryTest, OverflowDuringBatchStillForcesResync) {
  Enclave::Config config;
  config.default_queue_capacity = 2;
  Build(2, config);
  Task* agent = BlockedAgent();
  enclave_->ConfigQueueWakeup(enclave_->default_queue(), agent);

  const uint64_t scheduled_before = enclave_->queue_wakeups_scheduled();

  // Four same-instant posts into a 2-slot ring: two survive, two drop.
  std::vector<Task*> workers;
  for (int i = 0; i < 4; ++i) {
    Task* t = machine_->kernel().CreateTask("w" + std::to_string(i));
    enclave_->AddTask(t);
    workers.push_back(t);
  }

  EXPECT_TRUE(enclave_->overflow_pending())
      << "dropped messages must latch the resync flag";
  EXPECT_EQ(enclave_->queue_wakeups_scheduled() - scheduled_before, 1u)
      << "dropped messages coalesce onto the same armed wakeup";
  machine_->RunFor(Microseconds(5));
  EXPECT_NE(agent->state(), TaskState::kBlocked)
      << "the consumer must still be woken to notice the overflow";

  // The recovery protocol: flush queues, rebuild from the kernel dump. The
  // dump is authoritative — all four threads are present despite the drops.
  EXPECT_TRUE(enclave_->ConsumeOverflowPending());
  enclave_->FlushAllQueues();
  const std::vector<Enclave::TaskInfo> dump = enclave_->TaskDump();
  ASSERT_EQ(dump.size(), 4u);
  for (size_t i = 0; i < workers.size(); ++i) {
    EXPECT_EQ(dump[i].tid, workers[i]->tid()) << "dump order must be tid-sorted";
  }
  EXPECT_EQ(enclave_->PendingTaskMessages(), 0) << "flush must clear backlog";
}

}  // namespace
}  // namespace gs
