// Shared-memory message queue (§3.1).
//
// One producer (the kernel-side ghOSt class, which serializes on the enclave)
// and one consumer (whichever agent drains the queue) — the custom
// shared-memory queues the paper describes. The simulation is
// single-threaded, so the queue is a plain bounded FIFO: a RingDeque that
// refuses a push once it holds capacity() messages. The lock-free SpscRing
// the real queues need is measured on the host by bench/table3_host.
// A queue may be configured to wake up a (blocked) agent when a message is
// produced (CONFIG_QUEUE_WAKEUP); spinning agents instead get poked through
// the enclave's poll-waiter list.
#ifndef GHOST_SIM_SRC_GHOST_MESSAGE_QUEUE_H_
#define GHOST_SIM_SRC_GHOST_MESSAGE_QUEUE_H_

#include <optional>

#include "src/base/ring_deque.h"
#include "src/base/time.h"
#include "src/ghost/message.h"

namespace gs {

class Task;
struct AgentStatusWord;

class MessageQueue {
 public:
  MessageQueue(int id, size_t capacity) : id_(id), capacity_(capacity) {}

  int id() const { return id_; }

  // Producer side, built in place: the new back slot for the caller to fill
  // in, or nullptr (queue unchanged) if the queue is full. The slot holds
  // stale bytes of an earlier message, so every field must be written.
  Message* Append() {
    if (ring_.size() >= capacity_) {
      return nullptr;
    }
    return &ring_.append_back();
  }
  std::optional<Message> Pop() {
    if (ring_.empty()) {
      return std::nullopt;
    }
    Message msg = ring_.front();
    ring_.pop_front();
    return msg;
  }
  // Drops the front message (the queue must not be empty).
  void PopFront() { ring_.pop_front(); }
  const Message* Peek() const { return ring_.empty() ? nullptr : &ring_.front(); }
  size_t size() const { return ring_.size(); }
  bool empty() const { return ring_.empty(); }
  size_t capacity() const { return capacity_; }

  // CONFIG_QUEUE_WAKEUP target: agent woken when a message lands while it is
  // blocked. nullptr = no wakeup (polled queue). The agent's status word is
  // cached with it, so a post bumps the Aseq without a lookup.
  Task* wakeup_agent() const { return wakeup_agent_; }
  AgentStatusWord* wakeup_status() const { return wakeup_status_; }
  void set_wakeup_agent(Task* agent, AgentStatusWord* status) {
    wakeup_agent_ = agent;
    wakeup_status_ = status;
  }

  // A message aimed at this queue was dropped (ring full or injected
  // overflow pressure). The consumer's view of the affected threads is now
  // stale; it must resync from the kernel's TaskDump (§3.1/§3.4).
  void NoteOverflow() { ++overflows_; }
  uint64_t overflows() const { return overflows_; }

  // Batched-delivery bookkeeping (producer side, mirrors group commit): the
  // virtual time at which the most recently armed wakeup event for this
  // queue will fire. Messages posted within the same event-loop dispatch
  // batch (same virtual instant, same wakeup delay) ride the already-armed
  // event instead of scheduling their own — one wakeup per batch. Wakeups
  // are idempotent ("wake if blocked"), and within one instant a just-woken
  // agent cannot have re-blocked (context switches cost > 0), so coalescing
  // is observationally identical to one event per message.
  Time armed_wakeup_at() const { return armed_wakeup_at_; }
  void set_armed_wakeup_at(Time t) { armed_wakeup_at_ = t; }

 private:
  const int id_;
  const size_t capacity_;
  RingDeque<Message> ring_;
  Task* wakeup_agent_ = nullptr;
  AgentStatusWord* wakeup_status_ = nullptr;
  uint64_t overflows_ = 0;
  Time armed_wakeup_at_ = -1;
};

}  // namespace gs

#endif  // GHOST_SIM_SRC_GHOST_MESSAGE_QUEUE_H_
