#include "src/agent/task_table.h"

#include <algorithm>

#include "src/base/logging.h"

namespace gs {

std::vector<int64_t> TaskTable::SortedTids() const {
  std::vector<int64_t> tids;
  tids.reserve(by_tid_.size());
  by_tid_.ForEach([&tids](int64_t tid, PolicyTask* const&) { tids.push_back(tid); });
  std::sort(tids.begin(), tids.end());
  return tids;
}

PolicyTask* TaskTable::Add(int64_t tid) {
  PolicyTask* task = slab_.New();
  task->tid = tid;
  task->affinity.SetAll();
  by_tid_.Insert(tid, task);
  return task;
}

void TaskTable::Remove(int64_t tid) {
  PolicyTask** slot = by_tid_.Find(tid);
  if (slot != nullptr) {
    slab_.Delete(*slot);
    by_tid_.Erase(tid);
  }
}

TaskTable::Event TaskTable::Apply(const Message& msg, PolicyTask** out,
                                  int* assigned_before) {
  *out = nullptr;
  if (assigned_before != nullptr) {
    *assigned_before = -1;
  }
  if (msg.tid == 0) {
    return Event::kNone;  // CPU message (TIMER_TICK)
  }
  PolicyTask* task = Find(msg.tid);
  if (task != nullptr && assigned_before != nullptr) {
    *assigned_before = task->assigned_cpu;
  }

  switch (msg.type) {
    case MessageType::kTaskNew: {
      if (task == nullptr) {
        task = Add(msg.tid);
      }
      task->tseq = msg.tseq;
      task->affinity = msg.affinity;
      task->runnable = msg.runnable;
      task->became_runnable = msg.posted;
      *out = task;
      return Event::kNew;
    }
    case MessageType::kTaskWakeup:
      if (task == nullptr) {
        return Event::kNone;
      }
      task->tseq = msg.tseq;
      task->runnable = true;
      task->became_runnable = msg.posted;
      *out = task;
      return Event::kRunnable;
    case MessageType::kTaskPreempted:
    case MessageType::kTaskYield:
      if (task == nullptr) {
        return Event::kNone;
      }
      task->tseq = msg.tseq;
      task->runnable = true;
      task->became_runnable = msg.posted;
      task->last_cpu = msg.cpu;
      task->assigned_cpu = -1;
      *out = task;
      return Event::kRunnable;
    case MessageType::kTaskBlocked:
      if (task == nullptr) {
        return Event::kNone;
      }
      task->tseq = msg.tseq;
      task->runnable = false;
      task->last_cpu = msg.cpu;
      task->assigned_cpu = -1;
      *out = task;
      return Event::kBlocked;
    case MessageType::kTaskDead:
    case MessageType::kTaskDeparted:
      if (task == nullptr) {
        return Event::kNone;
      }
      *out = task;  // caller cleans up `user`, then calls Remove()
      return Event::kDead;
    case MessageType::kTaskAffinity:
      if (task == nullptr) {
        return Event::kNone;
      }
      task->tseq = msg.tseq;
      task->affinity = msg.affinity;
      *out = task;
      return Event::kAffinity;
    case MessageType::kTimerTick:
    case MessageType::kAgentWakeup:
      return Event::kNone;
  }
  return Event::kNone;
}

}  // namespace gs
