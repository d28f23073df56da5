// TaskTable: message-driven bookkeeping of thread state in userspace.
//
// This is the core of the paper's "ghOSt Userspace Support Library"
// (Table 2): policies consume the kernel's message stream and need a
// consistent per-thread view (runnable? where did it run? latest Tseq?).
// Policies attach their own state via the `user` pointer and react to
// transitions through the Apply() result.
#ifndef GHOST_SIM_SRC_AGENT_TASK_TABLE_H_
#define GHOST_SIM_SRC_AGENT_TASK_TABLE_H_

#include <cstdint>
#include <vector>

#include "src/base/cpumask.h"
#include "src/base/flat_map.h"
#include "src/base/slab.h"
#include "src/base/time.h"
#include "src/ghost/message.h"

namespace gs {

// The policy's view of one managed thread.
struct PolicyTask {
  int64_t tid = 0;
  bool runnable = false;
  // Policy's belief: scheduled on this CPU (set by the policy on a committed
  // transaction, cleared when a BLOCKED/PREEMPTED/YIELD/DEAD message lands).
  int assigned_cpu = -1;
  int last_cpu = -1;  // where it last ran, for locality decisions
  uint32_t tseq = 0;  // latest sequence number seen
  CpuMask affinity;
  Time became_runnable = 0;
  // Common policy bookkeeping: is the task sitting in a policy runqueue, and
  // which priority tier does it belong to (0 = latency-critical).
  bool queued = false;
  int tier = 0;
  // Key under which a MinRunqueue currently holds this task (written by
  // MinRunqueue::Push, meaningful only while queued): lets Remove binary-
  // search the flat queue instead of keeping a side map.
  int64_t rq_key = 0;
  // Policy-specific payload (e.g. deadlines, per-query state).
  void* user = nullptr;
};

class TaskTable {
 public:
  enum class Event {
    kNone,        // CPU message or unknown thread
    kNew,         // thread joined (possibly already runnable)
    kRunnable,    // thread became runnable (wakeup / preempted / yielded)
    kBlocked,     // thread blocked
    kDead,        // thread died or departed
    kAffinity,    // affinity changed (still in whatever state it was)
  };

  // Folds a message into the table. `*out` receives the affected task
  // (nullptr for CPU messages / already-dead threads); `*assigned_before`,
  // if given, receives the task's assigned_cpu before the message cleared
  // it (-1 when there is no task).
  Event Apply(const Message& msg, PolicyTask** out, int* assigned_before = nullptr);

  // Policies call Find once per message and per commit attempt — tens of
  // millions of times in a bench run — so the table is a flat hash over a
  // slab rather than a std::map of unique_ptrs.
  PolicyTask* Find(int64_t tid) {
    PolicyTask** slot = by_tid_.Find(tid);
    return slot == nullptr ? nullptr : *slot;
  }
  PolicyTask* Add(int64_t tid);  // for Restore() paths
  void Remove(int64_t tid);
  // All tracked tids, sorted ascending (deterministic iteration for
  // Restore()-style reconciliation against a TaskDump).
  std::vector<int64_t> SortedTids() const;
  // Drops every entry (Restore()/resync paths rebuild from a TaskDump).
  // Callers must first clear any runqueues holding PolicyTask pointers.
  void Clear() {
    by_tid_.Clear();
    slab_.Clear();
  }
  size_t size() const { return by_tid_.size(); }

 private:
  Slab<PolicyTask> slab_;
  TidMap<PolicyTask*> by_tid_;
};

}  // namespace gs

#endif  // GHOST_SIM_SRC_AGENT_TASK_TABLE_H_
