#include "src/agent/sdk/per_cpu.h"

#include "src/agent/agent_process.h"

namespace gs {

void PerCpuQueues::Attach(AgentProcess* process, Enclave* enclave, Kernel* kernel) {
  enclave_ = enclave;
  process_ = process;
  const CpuMask& cpus = enclave->cpus();
  boss_cpu_ = cpus.First();
  queues_.assign(kernel->topology().num_cpus(), nullptr);
  for (int cpu = cpus.First(); cpu >= 0; cpu = cpus.NextAfter(cpu)) {
    MessageQueue* queue = enclave->CreateQueue();
    enclave->ConfigQueueWakeup(queue, process->agent_on(cpu));
    enclave->SetCpuQueue(cpu, queue);
    queues_[cpu] = queue;
    cpu_list_.push_back(cpu);
  }
  // New-thread announcements land on the default queue; the boss agent
  // drains it and spreads threads round-robin via ASSOCIATE_QUEUE.
  enclave->ConfigQueueWakeup(enclave->default_queue(), process->agent_on(boss_cpu_));
}

void PerCpuQueues::CollectQueues(int cpu, std::vector<MessageQueue*>* queues) const {
  if (cpu == boss_cpu_) {
    queues->push_back(enclave_->default_queue());
  }
  queues->push_back(queues_[cpu]);
}

int PerCpuQueues::NextHomeCpu() {
  const int cpu = cpu_list_[rr_next_ % cpu_list_.size()];
  ++rr_next_;
  return cpu;
}

int PerCpuQueues::AssignHome(int64_t tid) {
  const int home = NextHomeCpu();
  SetHome(tid, home);
  Route(tid, home);
  return home;
}

bool PerCpuQueues::Route(int64_t tid, int cpu) {
  return enclave_->AssociateQueue(tid, queues_[cpu]);
}

int PerCpuQueues::FirstAllowed(const CpuMask& affinity, int fallback) const {
  for (int cpu : cpu_list_) {
    if (affinity.IsSet(cpu)) {
      return cpu;
    }
  }
  return fallback;
}

void PerCpuQueues::NotifyAgent(AgentContext& ctx, int cpu) {
  if (cpu == ctx.agent_cpu()) {
    return;
  }
  Task* agent = process_->agent_on(cpu);
  if (agent == nullptr) {
    return;
  }
  if (agent->state() == TaskState::kBlocked) {
    ctx.Charge(ctx.kernel()->cost().syscall + ctx.kernel()->cost().agent_wakeup);
    ctx.kernel()->Wake(agent);
  } else {
    // The sibling is mid-iteration (or queued to run): flag the push so its
    // check-then-sleep re-runs instead of blocking over a non-empty runqueue.
    enclave_->PokeAgent(agent);
  }
}

}  // namespace gs
