// Writing a brand-new scheduling policy in ~60 lines (the paper's pitch:
// "scheduling strategies — previously requiring extensive kernel
// modification — can be implemented in just 10s or 100s of lines of code").
//
// The policy here is a strict-priority centralized scheduler driven by
// application-provided scheduling hints (§4.3): each thread publishes a
// priority in its shared-memory hint word; the global agent always dispatches
// the highest-priority runnable thread first and preempts lower-priority
// ones when a higher-priority thread wakes.
//
// It is a DispatchPolicy, the one surface every policy in src/policies/ is
// written on: the base class drains the queue and keeps the task table, the
// typed hooks keep the runqueue, and Schedule() commits.
#include <cstdio>
#include <memory>

#include "src/agent/sdk/sdk.h"
#include "src/sim/simulation.h"

using namespace gs;

namespace {

class HintPriorityPolicy : public DispatchPolicy {
 public:
  const char* name() const override { return "hint-priority"; }

  void Attached(AgentProcess* process, Enclave* enclave, Kernel*) override {
    enclave_ = enclave;
    global_.Attach(process, enclave, /*requested_cpu=*/-1);
  }

  std::vector<uint64_t> dispatched_in_order;

 protected:
  // Inactive agents sleep; only the global agent drains and schedules.
  std::optional<AgentAction> PreDrain(AgentContext& ctx) override { return global_.Gate(ctx); }
  void CollectQueues(AgentContext&, std::vector<MessageQueue*>* queues) override {
    queues->push_back(enclave_->default_queue());
  }

  // The base class keeps the task table; the hooks only keep the runqueue
  // (preempted and yielding tasks reach TaskWakeup by default).
  void TaskNew(AgentContext& ctx, PolicyTask* task, const Message&) override {
    Enqueue(ctx, task);
  }
  void TaskWakeup(AgentContext& ctx, PolicyTask* task, const Message&) override {
    Enqueue(ctx, task);
  }
  void TaskBlocked(AgentContext&, PolicyTask* task, const Message&) override { Dequeue(task); }
  void TaskDead(AgentContext&, PolicyTask* task, const Message&) override { Dequeue(task); }

  AgentAction Schedule(AgentContext& ctx) override {
    bool progress = drained();
    const CpuMask avail = ctx.AvailableCpus();
    for (int cpu = avail.First(); cpu >= 0 && !runqueue_.empty();
         cpu = avail.NextAfter(cpu)) {
      PolicyTask* next = runqueue_.PopMin();
      next->queued = false;
      Transaction txn = AgentContext::MakeTxn(next->tid, cpu);
      Transaction* ptr = &txn;
      ctx.Commit(ptr);
      if (txn.committed()) {
        dispatched_in_order.push_back(ctx.ReadHint(next->tid));
        progress = true;
      } else {
        Enqueue(ctx, next);
      }
    }
    return progress ? AgentAction::kRunAgain : AgentAction::kPollWait;
  }

 private:
  void Enqueue(AgentContext& ctx, PolicyTask* task) {
    if (task->runnable && !task->queued) {
      task->queued = true;
      // Lower hint value = higher priority.
      runqueue_.Push(task, static_cast<int64_t>(ctx.ReadHint(task->tid)));
    }
  }
  void Dequeue(PolicyTask* task) {
    if (task->queued) {
      runqueue_.Remove(task);
      task->queued = false;
    }
  }

  Enclave* enclave_ = nullptr;
  GlobalAgent global_;
  MinRunqueue runqueue_;
};

}  // namespace

int main() {
  SimulationContext::Options options;
  options.topology = Topology::Make("custom", 1, 2, 1, 2);
  SimulationContext sim(std::move(options));
  auto enclave = sim.CreateEnclave(CpuMask::AllUpTo(2));
  auto policy = std::make_unique<HintPriorityPolicy>();
  HintPriorityPolicy* policy_ptr = policy.get();
  auto agents = sim.CreateAgentProcess(enclave.get(), std::move(policy));
  agents->Start();

  // Ten runnable threads with shuffled priorities; with one worker CPU they
  // must be dispatched in priority order.
  const uint64_t priorities[] = {7, 2, 9, 1, 5, 8, 3, 10, 4, 6};
  for (uint64_t prio : priorities) {
    Task* t = sim.kernel().CreateTask("prio" + std::to_string(prio));
    enclave->AddTask(t);
    enclave->SetHint(t->tid(), prio);
    sim.kernel().StartBurst(t, Microseconds(200), [&sim](Task* task) {
      sim.kernel().Exit(task);
    });
    sim.kernel().Wake(t);
  }
  sim.RunFor(Milliseconds(10));

  std::printf("custom_policy: dispatched priorities in order:");
  bool sorted = true;
  for (size_t i = 0; i < policy_ptr->dispatched_in_order.size(); ++i) {
    std::printf(" %llu", (unsigned long long)policy_ptr->dispatched_in_order[i]);
    if (i > 0 && policy_ptr->dispatched_in_order[i] < policy_ptr->dispatched_in_order[i - 1]) {
      sorted = false;
    }
  }
  std::printf("\n%s (the whole policy is ~60 lines of userspace code)\n",
              sorted && policy_ptr->dispatched_in_order.size() == 10
                  ? "strict priority order held"
                  : "ERROR: dispatch order violated priorities");
  return sorted ? 0 : 1;
}
