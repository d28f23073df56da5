// The agent scheduling class: top of the class hierarchy.
//
// ghOSt "assigns all agents a high kernel priority, similar to real-time
// scheduling... no other thread in the machine, whether ghOSt or non-ghOSt,
// can preempt agent-threads" (§3.3). Each CPU managed by ghOSt has exactly
// one agent pthread pinned to it; inactive agents block immediately, active
// agents run the policy loop. This class implements that contract: one
// registered agent per CPU, runnable agents always win the pick.
#ifndef GHOST_SIM_SRC_KERNEL_AGENT_CLASS_H_
#define GHOST_SIM_SRC_KERNEL_AGENT_CLASS_H_

#include <vector>

#include "src/kernel/sched_class.h"

namespace gs {

class AgentClass : public SchedClass {
 public:
  const char* name() const override { return "agent"; }

  void Attach(Kernel* kernel) override;

  // Pins `agent` to `cpu` as its agent thread. At most one live agent per
  // CPU; re-registering replaces a dead/detached predecessor.
  void RegisterAgent(int cpu, Task* agent);
  void UnregisterAgent(int cpu, Task* agent);
  Task* AgentFor(int cpu) const { return agents_[cpu].task; }

  void TaskNew(Task* task) override {}
  void TaskDeparted(Task* task) override;
  void EnqueueWake(Task* task) override;
  void PutPrev(Task* task, int cpu, PutPrevReason reason) override;
  Task* PickNext(int cpu) override;
  bool HasQueuedWork(int cpu) const override { return agents_[cpu].queued; }

 private:
  struct Slot {
    Task* task = nullptr;
    bool queued = false;
  };

  int CpuOf(const Task* task) const;
  bool Registered(const Task* task) const;

  std::vector<Slot> agents_;
};

}  // namespace gs

#endif  // GHOST_SIM_SRC_KERNEL_AGENT_CLASS_H_
