#include "src/policies/ab_test_policy.h"

#include "src/kernel/kernel.h"

namespace gs {

namespace {
// splitmix64 finalizer: the lane split must be uniform over sequential tids
// and identical in every run, promote, and rollback.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}
}  // namespace

bool AbTestPolicy::InCanary(int64_t tid) const {
  return static_cast<int>(Mix(static_cast<uint64_t>(tid)) % 100) < options_.canary_percent;
}

void AbTestPolicy::Attached(AgentProcess* process, Enclave* enclave, Kernel* kernel) {
  queues_.Attach(process, enclave, kernel);
  runqueues_.resize(kernel->topology().num_cpus());

  StatsRegistry& stats = *kernel->stats();
  const char* lane_name[2] = {"ab-base", "ab-canary"};
  for (int lane = 0; lane < 2; ++lane) {
    stat_scheduled_[lane] =
        stats.GetCounter("ab_lane_scheduled", {{"policy", lane_name[lane]}});
    stat_completed_[lane] =
        stats.GetCounter("ab_lane_completed", {{"policy", lane_name[lane]}});
  }
}

void AbTestPolicy::Restore(const std::vector<Enclave::TaskInfo>& dump) {
  // Full view replacement (also the overflow-resync path). Lane membership is
  // recomputed from the tid hash; the cumulative lane counters survive.
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

void AbTestPolicy::CollectQueues(AgentContext& ctx, std::vector<MessageQueue*>* queues) {
  queues_.CollectQueues(ctx.agent_cpu(), queues);
}

void AbTestPolicy::TimerTick(AgentContext& ctx, const Message& msg) { rotate_ = true; }

void AbTestPolicy::TaskNew(AgentContext& ctx, PolicyTask* task, const Message& msg) {
  ctx.Charge(ctx.kernel()->cost().syscall);
  const int home = queues_.AssignHome(msg.tid);
  if (task->runnable && !task->queued) {
    task->queued = true;
    runqueues_[home].Push(task);
    queues_.NotifyAgent(ctx, home);
  }
}

void AbTestPolicy::EnqueueRunnable(AgentContext& ctx, PolicyTask* task, bool front) {
  if (task->queued) {
    return;
  }
  // The canary lane's behavioral delta: LIFO admission.
  if (!front && options_.canary_lifo && InCanary(task->tid)) {
    front = true;
  }
  const int home = queues_.HomeOf(task->tid, ctx.agent_cpu());
  task->queued = true;
  if (front) {
    runqueues_[home].PushFront(task);
  } else {
    runqueues_[home].Push(task);
  }
  queues_.NotifyAgent(ctx, home);
}

void AbTestPolicy::TaskWakeup(AgentContext& ctx, PolicyTask* task, const Message& msg) {
  EnqueueRunnable(ctx, task, /*front=*/false);
}

void AbTestPolicy::TaskPreempted(AgentContext& ctx, PolicyTask* task, const Message& msg) {
  EnqueueRunnable(ctx, task, /*front=*/true);
}

void AbTestPolicy::TaskBlocked(AgentContext& ctx, PolicyTask* task, const Message& msg) {
  if (task->queued) {
    runqueues_[queues_.HomeOf(task->tid, ctx.agent_cpu())].Remove(task);
    task->queued = false;
  }
}

void AbTestPolicy::Evict(AgentContext& ctx, PolicyTask* task) {
  if (task->queued) {
    runqueues_[queues_.HomeOf(task->tid, ctx.agent_cpu())].Remove(task);
  }
  queues_.EraseHome(task->tid);
}

void AbTestPolicy::TaskDead(AgentContext& ctx, PolicyTask* task, const Message& msg) {
  const int lane = LaneOf(task->tid);
  ++lanes_[lane].completed;
  stat_completed_[lane]->Inc();
  Evict(ctx, task);
}

void AbTestPolicy::TaskDeparted(AgentContext& ctx, PolicyTask* task, const Message& msg) {
  // Departed (moved out of the enclave alive) is not a completion.
  Evict(ctx, task);
}

AgentAction AbTestPolicy::Schedule(AgentContext& ctx) {
  const int cpu = ctx.agent_cpu();
  FifoRunqueue& rq = runqueues_[cpu];
  const uint32_t aseq = ctx.ReadAseq();
  const bool rotate = rotate_;
  rotate_ = false;

  if (rq.empty()) {
    return AgentAction::kBlock;
  }
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
    const int lane = LaneOf(next->tid);
    ++lanes_[lane].scheduled;
    stat_scheduled_[lane]->Inc();
    return AgentAction::kYield;
  }
  if (txn.status == TxnStatus::kEStale) {
    ++estale_failures_;
    next->queued = true;
    rq.PushFront(next);
    return AgentAction::kRunAgain;
  }
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
