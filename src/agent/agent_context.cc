#include "src/agent/agent_context.h"

namespace gs {

AgentContext::AgentContext(Enclave* enclave, GhostClass* ghost_class, Kernel* kernel,
                           Task* agent)
    : enclave_(enclave),
      ghost_class_(ghost_class),
      kernel_(kernel),
      agent_(agent),
      agent_cpu_(agent->cpu()),
      start_(kernel->now()) {
  // Baseline cost of entering the scheduling loop (status-word reads etc.).
  cost_ = kernel_->cost().agent_loop_fixed;
}

std::optional<Message> AgentContext::Pop(MessageQueue* queue) {
  std::optional<Message> msg = enclave_->PopMessage(queue);
  if (msg.has_value()) {
    cost_ += kernel_->cost().msg_dequeue;
  }
  return msg;
}

int AgentContext::Drain(MessageQueue* queue, std::vector<Message>* out, int max) {
  int count = 0;
  while (count < max && enclave_->PopMessageInto(queue, out)) {
    cost_ += kernel_->cost().msg_dequeue;
    ++count;
  }
  return count;
}

uint32_t AgentContext::ReadAseq() {
  cost_ += kernel_->cost().agent_per_cpu_scan;
  return enclave_->agent_status(agent_).aseq;
}

const TaskStatusWord* AgentContext::ReadStatus(int64_t tid) {
  cost_ += kernel_->cost().agent_per_cpu_scan;
  return enclave_->task_status(tid);
}

uint64_t AgentContext::ReadHint(int64_t tid) {
  cost_ += kernel_->cost().agent_per_cpu_scan;
  return enclave_->Hint(tid);
}

CpuMask AgentContext::AvailableCpus() {
  const CpuMask& cpus = enclave_->cpus();
  // Same charge as scanning the enclave CPU by CPU — GetIdleCPUs() walks the
  // whole list whatever its representation.
  cost_ += kernel_->cost().agent_per_cpu_scan * cpus.Count();
  // Forced-idle CPUs count as available: the policy that idled them is the
  // one asking, and a fresh transaction supersedes the idle marker.
  CpuMask available = kernel_->idle_cpus() & cpus;
  available.AndNot(ghost_class_->latched_cpus());
  if (agent_cpu_ >= 0) {
    available.Clear(agent_cpu_);  // our own CPU is occupied by us
  }
  return available;
}

bool AgentContext::CpuAvailable(int cpu) {
  cost_ += kernel_->cost().agent_per_cpu_scan;
  return cpu != agent_cpu_ && kernel_->CpuIdle(cpu) && !ghost_class_->LatchPending(cpu);
}

bool AgentContext::HigherClassWaitersOn(int cpu) {
  cost_ += kernel_->cost().agent_per_cpu_scan;
  // Classes strictly between the agent class (index 0) and the ghOSt class.
  for (int i = 1; i < kernel_->num_classes(); ++i) {
    SchedClass* cls = kernel_->sched_class_at(i);
    if (cls == static_cast<SchedClass*>(ghost_class_)) {
      continue;
    }
    if (cls->HasQueuedWork(cpu)) {
      return true;
    }
  }
  return false;
}

void AgentContext::Commit(std::span<Transaction*> txns) {
  if (txns.empty()) {
    return;
  }
  const CostModel& cost = kernel_->cost();
  const Topology& topo = kernel_->topology();

  bool any_remote = false;
  for (const Transaction* txn : txns) {
    if (txn->target_cpu != agent_cpu_) {
      any_remote = true;
      break;
    }
  }
  cost_ += cost.syscall;
  if (any_remote) {
    cost_ += cost.remote_commit_fixed;
  }

  // Per-transaction agent-side work; record the ledger offset at which each
  // transaction's effect leaves the agent. Group commits are bounded by the
  // machine's CPU count in practice, so the ledger offsets live on the stack
  // (this runs once per agent iteration — no per-commit heap traffic).
  constexpr size_t kInlineDelays = 144;
  Duration inline_delays[kInlineDelays];
  std::vector<Duration> overflow_delays;
  Duration* delays = inline_delays;
  if (txns.size() > kInlineDelays) {
    overflow_delays.resize(txns.size());
    delays = overflow_delays.data();
  }
  const int agent_numa = agent_cpu_ >= 0 ? topo.cpu(agent_cpu_).numa : 0;
  for (size_t i = 0; i < txns.size(); ++i) {
    const Transaction& txn = *txns[i];
    if (txn.target_cpu == agent_cpu_) {
      cost_ += cost.txn_commit_local;
    } else {
      Duration per = cost.remote_commit_per_txn;
      if (txn.target_cpu >= 0 && topo.cpu(txn.target_cpu).numa != agent_numa) {
        per = static_cast<Duration>(static_cast<double>(per) * cost.remote_numa_txn_penalty);
      }
      cost_ += per;
    }
    delays[i] = cost_;
  }

  enclave_->TxnsCommit(txns, agent_, [delays](int i) { return delays[i]; });
}

}  // namespace gs
