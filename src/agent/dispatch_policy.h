// DispatchPolicy: a typed message-dispatch adapter layered over
// Policy::RunAgent, in the style of upstream ghost-userspace's
// BasicDispatchScheduler. Every in-tree policy is one.
//
// A raw Policy drains queues and switches on MessageType by hand. A
// DispatchPolicy factors that boilerplate into the base class. Each
// iteration:
//  1. PreDrain() may end the iteration before any message is read (an
//     inactive global agent blocks, a hot handoff yields);
//  2. the queues the subclass nominates are drained, and every message is
//     folded into the shared TaskTable and routed to a per-type virtual hook
//     (TaskNew/TaskWakeup/TaskBlocked/TaskPreempted/TaskYield/TaskDead/
//     TaskDeparted/TaskAffinity/TimerTick/AgentWakeup);
//  3. Schedule() picks, commits, and returns what the agent does next;
//     drained() tells it whether step 2 read anything.
// Subclasses keep only the decisions that make a policy a policy: where a
// task goes when it becomes runnable, and what to commit. The per-CPU and
// global-agent plumbing around those decisions is in src/agent/sdk/.
//
// Hook contract:
//  * `task` is the TaskTable entry, already updated from the message
//    (runnable/tseq/affinity/last_cpu reflect the message's effect);
//    assigned_before() is its assigned_cpu before the message cleared it;
//  * for TaskDead/TaskDeparted the entry is removed from the table right
//    after the hook returns — drop runqueue links and `user` state inside;
//  * CPU-scoped messages (TimerTick) and bookkeeping wakeups (AgentWakeup)
//    carry no task; hooks receive the raw message only;
//  * messages about threads the table does not know (already dead) are
//    dropped before any hook fires.
#ifndef GHOST_SIM_SRC_AGENT_DISPATCH_POLICY_H_
#define GHOST_SIM_SRC_AGENT_DISPATCH_POLICY_H_

#include <optional>
#include <vector>

#include "src/agent/agent_context.h"
#include "src/agent/policy.h"
#include "src/agent/task_table.h"

namespace gs {

class DispatchPolicy : public Policy {
 public:
  // Drains, dispatches, then defers to Schedule(). Final: the adapter owns
  // the iteration shape; subclasses customize through the hooks below.
  AgentAction RunAgent(AgentContext& ctx) final;

  // Default upgrade/resync restore (§3.4): reconciles the table against the
  // kernel dump by synthesizing messages, dispatched through the normal hook
  // path at the start of the next RunAgent iteration. Threads the dump knows
  // and the table does not become kTaskNew (a fresh policy instance after a
  // live swap re-places everything this way — a thread the outgoing policy
  // never scheduled is still re-announced, never silently dropped); known
  // threads whose runnability disagrees with the dump get kTaskWakeup /
  // kTaskBlocked; table entries missing from the dump get kTaskDeparted.
  // Subclasses with richer state (home CPUs, priority arrays) override with
  // full-view replacement instead; this default keeps hook-only policies
  // correct without one.
  void Restore(const std::vector<Enclave::TaskInfo>& dump) override;

 protected:
  // ---- Subclass obligations --------------------------------------------------
  // Runs before anything is drained. Returning an action ends the iteration
  // with it; std::nullopt carries on. Charges made here precede the drain's.
  virtual std::optional<AgentAction> PreDrain(AgentContext& ctx) { return std::nullopt; }

  // Appends the queues this agent drains each iteration, in drain order
  // (e.g. the boss agent adds the enclave default queue before its own).
  virtual void CollectQueues(AgentContext& ctx, std::vector<MessageQueue*>* queues) = 0;

  // Runs after every drained message has been dispatched: pick, commit, and
  // return what the agent thread does next.
  virtual AgentAction Schedule(AgentContext& ctx) = 0;

  // ---- Typed message hooks (default: accept the table update, do nothing) ---
  // A preempted or yielding task is runnable again and a departed one is
  // gone: by default they are handled like a wakeup and a death.
  virtual void TaskNew(AgentContext& ctx, PolicyTask* task, const Message& msg) {}
  virtual void TaskWakeup(AgentContext& ctx, PolicyTask* task, const Message& msg) {}
  virtual void TaskPreempted(AgentContext& ctx, PolicyTask* task, const Message& msg) {
    TaskWakeup(ctx, task, msg);
  }
  virtual void TaskYield(AgentContext& ctx, PolicyTask* task, const Message& msg) {
    TaskWakeup(ctx, task, msg);
  }
  virtual void TaskBlocked(AgentContext& ctx, PolicyTask* task, const Message& msg) {}
  virtual void TaskDead(AgentContext& ctx, PolicyTask* task, const Message& msg) {}
  virtual void TaskDeparted(AgentContext& ctx, PolicyTask* task, const Message& msg) {
    TaskDead(ctx, task, msg);
  }
  virtual void TaskAffinity(AgentContext& ctx, PolicyTask* task, const Message& msg) {}
  virtual void TimerTick(AgentContext& ctx, const Message& msg) {}
  virtual void AgentWakeup(AgentContext& ctx, const Message& msg) {}

  // The message-driven thread view shared by the adapter and the subclass
  // (Restore() paths may rebuild it directly).
  TaskTable& table() { return table_; }
  // Adds a thread from a kernel TaskDump to the table (Restore() paths).
  PolicyTask* AdoptTask(const Enclave::TaskInfo& info);

  // Whether this iteration's drain read at least one message.
  bool drained() const { return drained_; }
  // Inside a hook: the task's assigned_cpu before this message cleared it.
  int assigned_before() const { return assigned_before_; }

  // Routes one message through the table and the hooks; exposed for
  // Restore()-style resync code that replays synthesized messages.
  void Dispatch(AgentContext& ctx, const Message& msg);

 private:
  TaskTable table_;
  std::vector<MessageQueue*> scratch_queues_;
  std::vector<Message> scratch_msgs_;
  bool drained_ = false;
  int assigned_before_ = -1;
  // Synthesized by the default Restore(); dispatched (then cleared) before
  // the queue drain of the next iteration. Deferred because Restore() runs
  // without an AgentContext.
  std::vector<Message> restore_backlog_;
};

}  // namespace gs

#endif  // GHOST_SIM_SRC_AGENT_DISPATCH_POLICY_H_
