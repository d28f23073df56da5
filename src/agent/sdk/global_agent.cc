#include "src/agent/sdk/global_agent.h"

#include "src/agent/agent_process.h"

namespace gs {

void GlobalAgent::Attach(AgentProcess* process, Enclave* enclave, int requested_cpu) {
  process_ = process;
  cpu_ = requested_cpu >= 0 ? requested_cpu : enclave->cpus().First();
}

bool GlobalAgent::HandOff(AgentContext& ctx) {
  if (!ctx.HigherClassWaitersOn(cpu_)) {
    return false;
  }
  const CpuMask idle = ctx.AvailableCpus();
  for (int cpu = idle.First(); cpu >= 0; cpu = idle.NextAfter(cpu)) {
    Task* successor = process_->agent_on(cpu);
    if (successor == nullptr || successor->state() != TaskState::kBlocked) {
      continue;
    }
    cpu_ = cpu;
    ++handoffs_;
    ctx.Charge(ctx.kernel()->cost().syscall + ctx.kernel()->cost().agent_wakeup);
    ctx.kernel()->Wake(successor);
    // Yield (not block): the waiting thread takes this CPU, and the old
    // agent re-blocks as a normal inactive agent on its next run.
    return true;
  }
  return false;
}

}  // namespace gs
