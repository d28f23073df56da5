// Work-stealing per-CPU policy: the §3.1 load-balancing pattern.
//
// From the paper: "to enable load-balancing and work-stealing between CPUs,
// agents can change the routing of messages from threads to queues via
// ASSOCIATE_QUEUE(). It is up to the agent implementation (in userspace) to
// properly coordinate the message routing across queues to agents. If a
// thread has its association change from one queue to another while there are
// pending messages in the original queue, the association operation will
// fail. In that case, the agent must drain the original queue before
// re-issuing ASSOCIATE_QUEUE()."
//
// This policy extends the per-CPU FIFO model with exactly that protocol: an
// agent whose runqueue is empty steals the longest-waiting thread from the
// most loaded sibling runqueue (all agents share the process address space,
// so runqueues are visible), re-associates the thread's queue — retrying
// after a drain when the association fails — and runs it locally.
#ifndef GHOST_SIM_SRC_POLICIES_WORK_STEALING_H_
#define GHOST_SIM_SRC_POLICIES_WORK_STEALING_H_

#include <vector>

#include "src/agent/sdk/sdk.h"

namespace gs {

class WorkStealingPolicy : public DispatchPolicy {
 public:
  const char* name() const override { return "work-stealing"; }
  void Attached(AgentProcess* process, Enclave* enclave, Kernel* kernel) override;
  void Restore(const std::vector<Enclave::TaskInfo>& dump) override;

  uint64_t scheduled() const { return scheduled_; }
  uint64_t steals() const { return steals_; }
  uint64_t association_retries() const { return association_retries_; }
  size_t QueueDepth(int cpu) const;
  int RunqueueDepth() const override {
    int total = 0;
    for (const FifoRunqueue& rq : runqueues_) {
      total += static_cast<int>(rq.size());
    }
    return total;
  }

 protected:
  std::optional<AgentAction> PreDrain(AgentContext& ctx) override;
  void CollectQueues(AgentContext& ctx, std::vector<MessageQueue*>* queues) override;
  AgentAction Schedule(AgentContext& ctx) override;
  void TaskNew(AgentContext& ctx, PolicyTask* task, const Message& msg) override;
  void TaskWakeup(AgentContext& ctx, PolicyTask* task, const Message& msg) override;
  void TaskPreempted(AgentContext& ctx, PolicyTask* task, const Message& msg) override;
  void TaskBlocked(AgentContext& ctx, PolicyTask* task, const Message& msg) override;
  void TaskDead(AgentContext& ctx, PolicyTask* task, const Message& msg) override;
  void TaskAffinity(AgentContext& ctx, PolicyTask* task, const Message& msg) override;

 private:
  // Home of a task, falling back to the CPU whose queue is being dispatched.
  int HomeOf(const PolicyTask* task) const { return queues_.HomeOf(task->tid, msg_cpu_); }
  void EnqueueRunnable(AgentContext& ctx, PolicyTask* task, bool front);
  // Steals the longest-waiting thread from the deepest sibling runqueue into
  // `thief_cpu`'s, re-associating its message queue per §3.1. Returns the
  // stolen task or nullptr.
  PolicyTask* TrySteal(AgentContext& ctx, int thief_cpu);

  PerCpuQueues queues_;
  std::vector<FifoRunqueue> runqueues_;  // dense cpu -> runqueue
  // CPU whose queue the hooks are dispatching: the agent's own, or the
  // victim's during a steal's drain.
  int msg_cpu_ = -1;
  // Read before the drain; tags this iteration's local commit.
  uint32_t aseq_ = 0;

  uint64_t scheduled_ = 0;
  uint64_t steals_ = 0;
  uint64_t association_retries_ = 0;
};

}  // namespace gs

#endif  // GHOST_SIM_SRC_POLICIES_WORK_STEALING_H_
