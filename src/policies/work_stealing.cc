#include "src/policies/work_stealing.h"

namespace gs {

void WorkStealingPolicy::Attached(AgentProcess* process, Enclave* enclave, Kernel* kernel) {
  queues_.Attach(process, enclave, kernel);
  runqueues_.resize(kernel->topology().num_cpus());
}

void WorkStealingPolicy::Restore(const std::vector<Enclave::TaskInfo>& dump) {
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

size_t WorkStealingPolicy::QueueDepth(int cpu) const {
  if (cpu < 0 || cpu >= static_cast<int>(runqueues_.size())) {
    return 0;
  }
  return runqueues_[cpu].size();
}

std::optional<AgentAction> WorkStealingPolicy::PreDrain(AgentContext& ctx) {
  msg_cpu_ = ctx.agent_cpu();
  aseq_ = ctx.ReadAseq();
  return std::nullopt;
}

void WorkStealingPolicy::CollectQueues(AgentContext& ctx,
                                       std::vector<MessageQueue*>* queues) {
  queues_.CollectQueues(ctx.agent_cpu(), queues);
}

void WorkStealingPolicy::TaskNew(AgentContext& ctx, PolicyTask* task, const Message& msg) {
  ctx.Charge(ctx.kernel()->cost().syscall);
  const int home = queues_.AssignHome(msg.tid);
  if (task->runnable && !task->queued) {
    task->queued = true;
    runqueues_[home].Push(task);
    queues_.NotifyAgent(ctx, home);
  }
}

void WorkStealingPolicy::EnqueueRunnable(AgentContext& ctx, PolicyTask* task, bool front) {
  if (task->queued) {
    return;
  }
  const int home = HomeOf(task);
  task->queued = true;
  if (front) {
    runqueues_[home].PushFront(task);
  } else {
    runqueues_[home].Push(task);
  }
  queues_.NotifyAgent(ctx, home);
}

void WorkStealingPolicy::TaskWakeup(AgentContext& ctx, PolicyTask* task, const Message& msg) {
  EnqueueRunnable(ctx, task, /*front=*/false);
}

void WorkStealingPolicy::TaskPreempted(AgentContext& ctx, PolicyTask* task,
                                       const Message& msg) {
  EnqueueRunnable(ctx, task, /*front=*/true);
}

void WorkStealingPolicy::TaskBlocked(AgentContext& ctx, PolicyTask* task,
                                     const Message& msg) {
  if (task->queued) {
    runqueues_[HomeOf(task)].Remove(task);
    task->queued = false;
  }
}

void WorkStealingPolicy::TaskDead(AgentContext& ctx, PolicyTask* task, const Message& msg) {
  if (task->queued) {
    runqueues_[HomeOf(task)].Remove(task);
  }
  queues_.EraseHome(task->tid);
}

void WorkStealingPolicy::TaskAffinity(AgentContext& ctx, PolicyTask* task,
                                      const Message& msg) {
  // sched_setaffinity may have excluded the task's home CPU: re-home it
  // to an allowed enclave CPU (and move any queued entry along).
  const int home = HomeOf(task);
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

PolicyTask* WorkStealingPolicy::TrySteal(AgentContext& ctx, int thief_cpu) {
  // Pick the deepest victim runqueue (agents share the process, so reading
  // sibling queues is a plain memory access).
  int victim_cpu = -1;
  size_t deepest = 0;
  for (int cpu : queues_.cpus()) {
    if (cpu != thief_cpu && runqueues_[cpu].size() > deepest) {
      deepest = runqueues_[cpu].size();
      victim_cpu = cpu;
    }
  }
  if (victim_cpu < 0) {
    return nullptr;
  }
  FifoRunqueue& victim = runqueues_[victim_cpu];
  // Snapshot: the drain in the retry path may mutate the victim runqueue.
  const std::vector<PolicyTask*> candidates(victim.raw().begin(), victim.raw().end());
  for (PolicyTask* candidate : candidates) {
    if (!candidate->queued || !candidate->affinity.IsSet(thief_cpu)) {
      continue;
    }
    // §3.1 protocol: move the thread's message routing to the thief's queue.
    // The association fails while messages for the thread sit undrained in
    // the victim queue; drain it (messages are dispatched as usual — the
    // victim agent will see an empty queue) and retry once.
    ctx.Charge(ctx.kernel()->cost().syscall);
    if (!queues_.Route(candidate->tid, thief_cpu)) {
      ++association_retries_;
      std::vector<Message> drained;
      ctx.Drain(queues_.queue(victim_cpu), &drained);
      msg_cpu_ = victim_cpu;
      for (const Message& msg : drained) {
        Dispatch(ctx, msg);
      }
      msg_cpu_ = thief_cpu;
      ctx.Charge(ctx.kernel()->cost().syscall);
      if (!queues_.Route(candidate->tid, thief_cpu)) {
        continue;
      }
      // Draining may have dequeued the candidate (it blocked/died).
      if (!candidate->queued) {
        continue;
      }
    }
    victim.Remove(candidate);
    queues_.SetHome(candidate->tid, thief_cpu);
    ++steals_;
    return candidate;  // caller runs it (still marked queued until dispatch)
  }
  return nullptr;
}

AgentAction WorkStealingPolicy::Schedule(AgentContext& ctx) {
  const int cpu = ctx.agent_cpu();
  PolicyTask* next = runqueues_[cpu].Pop();
  if (next == nullptr) {
    next = TrySteal(ctx, cpu);
  }
  if (next == nullptr) {
    return AgentAction::kBlock;
  }
  next->queued = false;

  Transaction txn = AgentContext::MakeTxn(next->tid, cpu);
  txn.expected_aseq = aseq_;
  Transaction* ptr = &txn;
  ctx.Commit(ptr);
  if (txn.committed()) {
    next->assigned_cpu = cpu;
    next->last_cpu = cpu;
    ++scheduled_;
    return AgentAction::kYield;
  }
  if (next->runnable) {
    next->queued = true;
    if (!next->affinity.IsSet(cpu)) {
      const int new_home = queues_.FirstAllowed(next->affinity, cpu);
      queues_.SetHome(next->tid, new_home);
      runqueues_[new_home].Push(next);
      queues_.NotifyAgent(ctx, new_home);
    } else {
      runqueues_[cpu].Push(next);
    }
  }
  return AgentAction::kRunAgain;
}

}  // namespace gs
