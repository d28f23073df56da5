// Per-CPU FIFO policy: the paper's Fig 3 pattern.
//
// Each CPU's local agent owns a message queue and a FIFO runqueue. New
// threads (announced on the default queue, drained by the agent of the first
// enclave CPU) are assigned round-robin to per-CPU queues via
// ASSOCIATE_QUEUE. An agent iteration drains its queue, dequeues the next
// thread, commits a local transaction tagged with its Aseq, and yields; an
// ESTALE failure sends it back around the loop, exactly as in Fig 3.
//
// SDK consumer: message boilerplate (queue draining, TaskTable upkeep,
// per-type routing) lives in DispatchPolicy and the per-CPU queue plumbing
// in PerCpuQueues; this file keeps only the FIFO decisions — which runqueue
// a task lands in per message type, and what Schedule() commits.
#ifndef GHOST_SIM_SRC_POLICIES_PER_CPU_FIFO_H_
#define GHOST_SIM_SRC_POLICIES_PER_CPU_FIFO_H_

#include <vector>

#include "src/agent/sdk/sdk.h"

namespace gs {

class PerCpuFifoPolicy : public DispatchPolicy {
 public:
  const char* name() const override { return "per-cpu-fifo"; }
  void Attached(AgentProcess* process, Enclave* enclave, Kernel* kernel) override;
  void Restore(const std::vector<Enclave::TaskInfo>& dump) override;

  uint64_t scheduled() const { return scheduled_; }
  uint64_t estale_failures() const { return estale_failures_; }
  size_t QueueDepth(int cpu) const;
  int RunqueueDepth() const override {
    int total = 0;
    for (const FifoRunqueue& rq : runqueues_) {
      total += static_cast<int>(rq.size());
    }
    return total;
  }

 protected:
  // DispatchPolicy hooks.
  void CollectQueues(AgentContext& ctx, std::vector<MessageQueue*>* queues) override;
  AgentAction Schedule(AgentContext& ctx) override;
  void TaskNew(AgentContext& ctx, PolicyTask* task, const Message& msg) override;
  void TaskWakeup(AgentContext& ctx, PolicyTask* task, const Message& msg) override;
  void TaskPreempted(AgentContext& ctx, PolicyTask* task, const Message& msg) override;
  void TaskBlocked(AgentContext& ctx, PolicyTask* task, const Message& msg) override;
  void TaskDead(AgentContext& ctx, PolicyTask* task, const Message& msg) override;
  void TaskAffinity(AgentContext& ctx, PolicyTask* task, const Message& msg) override;
  void TimerTick(AgentContext& ctx, const Message& msg) override;

 private:
  // Queues a freshly runnable task on its home CPU (front = resume-after-
  // preemption semantics) and notifies that CPU's agent.
  void EnqueueRunnable(AgentContext& ctx, PolicyTask* task, bool front);

  PerCpuQueues queues_;
  // Dense cpu -> runqueue; indexed on every message and Schedule() call.
  std::vector<FifoRunqueue> runqueues_;
  bool rotate_ = false;  // a TIMER_TICK landed this iteration

  uint64_t scheduled_ = 0;
  uint64_t estale_failures_ = 0;
};

}  // namespace gs

#endif  // GHOST_SIM_SRC_POLICIES_PER_CPU_FIFO_H_
