// Policy-SDK per-CPU scaffolding: the Fig 3 plumbing every per-CPU policy
// shares, written once.
//
// A per-CPU ghOSt policy gives each enclave CPU its own message queue, woken
// into that CPU's agent, and lets the "boss" agent (first enclave CPU) drain
// the enclave default queue, where new-thread announcements land. New
// threads are spread round-robin over the CPUs with ASSOCIATE_QUEUE; a
// thread whose affinity excludes its home moves to the first allowed
// enclave CPU; and an agent that queues work on a sibling's runqueue wakes
// (or pokes) that sibling so the work is not stranded. PerCpuQueues owns
// exactly that; the policy keeps its runqueues and its decisions.
#ifndef GHOST_SIM_SRC_AGENT_SDK_PER_CPU_H_
#define GHOST_SIM_SRC_AGENT_SDK_PER_CPU_H_

#include <cstdint>
#include <vector>

#include "src/agent/agent_context.h"
#include "src/base/cpumask.h"
#include "src/base/flat_map.h"

namespace gs {

class AgentProcess;

class PerCpuQueues {
 public:
  // Creates one queue per enclave CPU (ascending), wires its wakeup to that
  // CPU's agent, and points the default queue's wakeup at the boss agent.
  void Attach(AgentProcess* process, Enclave* enclave, Kernel* kernel);

  // The enclave CPUs, ascending.
  const std::vector<int>& cpus() const { return cpu_list_; }
  MessageQueue* queue(int cpu) const { return queues_[cpu]; }

  // DispatchPolicy::CollectQueues for the agent on `cpu`: the boss drains
  // the default queue before its own.
  void CollectQueues(int cpu, std::vector<MessageQueue*>* queues) const;

  // Round-robin target for a newly arrived thread.
  int NextHomeCpu();

  // The tid -> home map, for policies that do not keep the home per task.
  int HomeOf(int64_t tid, int fallback) const {
    const int* home = homes_.Find(tid);
    return home == nullptr ? fallback : *home;
  }
  void SetHome(int64_t tid, int cpu) { homes_.Insert(tid, cpu); }
  void EraseHome(int64_t tid) { homes_.Erase(tid); }
  void ClearHomes() { homes_.Clear(); }
  // Gives `tid` the next round-robin home, records it, and routes its
  // messages there. The association may fail while messages for the thread
  // are still pending on its old queue; it is retried when they drain.
  int AssignHome(int64_t tid);
  // Routes `tid`'s messages to `cpu`'s queue (ASSOCIATE_QUEUE).
  bool Route(int64_t tid, int cpu);

  // The first enclave CPU `affinity` allows, or `fallback` if none.
  int FirstAllowed(const CpuMask& affinity, int fallback) const;

  // Userspace cross-agent notification (futex-style) after queueing work on
  // `cpu`: wakes its agent if blocked, otherwise pokes it so its
  // check-then-sleep re-runs instead of blocking over a non-empty runqueue.
  // A no-op for the calling agent's own CPU.
  void NotifyAgent(AgentContext& ctx, int cpu);

 private:
  Enclave* enclave_ = nullptr;
  AgentProcess* process_ = nullptr;
  // Dense cpu -> queue (nullptr for CPUs outside the enclave).
  std::vector<MessageQueue*> queues_;
  std::vector<int> cpu_list_;
  TidMap<int> homes_;
  size_t rr_next_ = 0;
  int boss_cpu_ = -1;
};

}  // namespace gs

#endif  // GHOST_SIM_SRC_AGENT_SDK_PER_CPU_H_
