#include "src/policies/per_cpu_fifo.h"

namespace gs {

void PerCpuFifoPolicy::Attached(AgentProcess* process, Enclave* enclave, Kernel* kernel) {
  queues_.Attach(process, enclave, kernel);
  runqueues_.resize(kernel->topology().num_cpus());
}

void PerCpuFifoPolicy::Restore(const std::vector<Enclave::TaskInfo>& dump) {
  // Full view replacement (also the overflow-resync path).
  for (FifoRunqueue& rq : runqueues_) {
    rq.Clear();
  }
  queues_.ClearHomes();
  table().Clear();
  for (const Enclave::TaskInfo& info : dump) {
    PolicyTask* task = AdoptTask(info);
    const int home = queues_.AssignHome(info.tid);
    if (info.runnable && !info.on_cpu) {
      task->queued = true;
      runqueues_[home].Push(task);
    }
  }
}

size_t PerCpuFifoPolicy::QueueDepth(int cpu) const {
  if (cpu < 0 || cpu >= static_cast<int>(runqueues_.size())) {
    return 0;
  }
  return runqueues_[cpu].size();
}

void PerCpuFifoPolicy::CollectQueues(AgentContext& ctx,
                                     std::vector<MessageQueue*>* queues) {
  queues_.CollectQueues(ctx.agent_cpu(), queues);
}

void PerCpuFifoPolicy::TimerTick(AgentContext& ctx, const Message& msg) {
  rotate_ = true;  // rotation decision is made in Schedule()
}

void PerCpuFifoPolicy::TaskNew(AgentContext& ctx, PolicyTask* task, const Message& msg) {
  ctx.Charge(ctx.kernel()->cost().syscall);
  const int home = queues_.AssignHome(msg.tid);
  if (task->runnable && !task->queued) {
    task->queued = true;
    runqueues_[home].Push(task);
    queues_.NotifyAgent(ctx, home);
  }
}

void PerCpuFifoPolicy::EnqueueRunnable(AgentContext& ctx, PolicyTask* task, bool front) {
  if (task->queued) {
    return;
  }
  const int home = queues_.HomeOf(task->tid, ctx.agent_cpu());
  task->queued = true;
  if (front) {
    runqueues_[home].PushFront(task);  // resume after the interruption
  } else {
    runqueues_[home].Push(task);
  }
  queues_.NotifyAgent(ctx, home);
}

void PerCpuFifoPolicy::TaskWakeup(AgentContext& ctx, PolicyTask* task, const Message& msg) {
  EnqueueRunnable(ctx, task, /*front=*/false);
}

void PerCpuFifoPolicy::TaskPreempted(AgentContext& ctx, PolicyTask* task,
                                     const Message& msg) {
  EnqueueRunnable(ctx, task, /*front=*/true);
}

void PerCpuFifoPolicy::TaskBlocked(AgentContext& ctx, PolicyTask* task, const Message& msg) {
  if (task->queued) {
    runqueues_[queues_.HomeOf(task->tid, ctx.agent_cpu())].Remove(task);
    task->queued = false;
  }
}

void PerCpuFifoPolicy::TaskDead(AgentContext& ctx, PolicyTask* task, const Message& msg) {
  if (task->queued) {
    runqueues_[queues_.HomeOf(task->tid, ctx.agent_cpu())].Remove(task);
  }
  queues_.EraseHome(task->tid);
  // The DispatchPolicy base removes the TaskTable entry after this hook.
}

void PerCpuFifoPolicy::TaskAffinity(AgentContext& ctx, PolicyTask* task,
                                    const Message& msg) {
  // sched_setaffinity may have excluded the task's home CPU: re-home it
  // to an allowed enclave CPU (and move any queued entry along).
  const int home = queues_.HomeOf(task->tid, ctx.agent_cpu());
  if (task->affinity.IsSet(home)) {
    return;
  }
  const int new_home = queues_.FirstAllowed(task->affinity, -1);
  if (new_home < 0) {
    return;
  }
  if (task->queued) {
    runqueues_[home].Remove(task);
    runqueues_[new_home].Push(task);
  }
  queues_.SetHome(task->tid, new_home);
  ctx.Charge(ctx.kernel()->cost().syscall);
  queues_.Route(task->tid, new_home);
  queues_.NotifyAgent(ctx, new_home);
}

AgentAction PerCpuFifoPolicy::Schedule(AgentContext& ctx) {
  const int cpu = ctx.agent_cpu();
  FifoRunqueue& rq = runqueues_[cpu];
  const uint32_t aseq = ctx.ReadAseq();
  const bool rotate = rotate_;
  rotate_ = false;

  if (rq.empty()) {
    return AgentAction::kBlock;
  }
  // Round-robin on timer ticks: rotate the interrupted thread to the back.
  if (rotate && rq.size() >= 2) {
    rq.Push(rq.Pop());
  }

  PolicyTask* next = rq.Pop();
  next->queued = false;
  Transaction txn = AgentContext::MakeTxn(next->tid, cpu);
  txn.expected_aseq = aseq;
  Transaction* ptr = &txn;
  ctx.Commit(ptr);
  if (txn.committed()) {
    next->assigned_cpu = cpu;
    next->last_cpu = cpu;
    ++scheduled_;
    // Fig 3: the local commit takes effect when the agent vacates its CPU.
    return AgentAction::kYield;
  }
  if (txn.status == TxnStatus::kEStale) {
    ++estale_failures_;
    next->queued = true;
    rq.PushFront(next);
    return AgentAction::kRunAgain;  // drain the newer messages and retry
  }
  // Other failure: if the thread may no longer run here, re-home it;
  // otherwise push to the back and retry next time around.
  if (next->runnable) {
    next->queued = true;
    if (!next->affinity.IsSet(cpu)) {
      const int new_home = queues_.FirstAllowed(next->affinity, cpu);
      queues_.SetHome(next->tid, new_home);
      runqueues_[new_home].Push(next);
      queues_.NotifyAgent(ctx, new_home);
    } else {
      rq.Push(next);
    }
  }
  return AgentAction::kRunAgain;
}

}  // namespace gs
