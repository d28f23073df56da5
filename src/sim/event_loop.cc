#include "src/sim/event_loop.h"

#include <algorithm>
#include <utility>

#include "src/stats/stats.h"

namespace gs {

EventLoop::EventLoop() { buckets_.fill(kNil); }

void EventLoopCounters::ExportTo(StatsRegistry* stats) const {
  stats->AddLayerCount("sim.events_scheduled", scheduled);
  stats->AddLayerCount("sim.zero_delay_appends", zero_delay_appends);
  stats->AddLayerCount("sim.wheel_inserts", wheel_inserts);
  stats->AddLayerCount("sim.cascade_reinserts", cascade_reinserts);
  stats->AddLayerCount("sim.buckets_collected", buckets_collected);
  stats->AddLayerCount("sim.singleton_fires", singleton_fires);
}

uint32_t EventLoop::AllocSlot() {
  if (free_head_ != kNil) {
    const uint32_t idx = free_head_;
    free_head_ = slots_[idx].next;
    return idx;
  }
  CHECK_LT(slots_.size(), static_cast<size_t>(kNil)) << "event slab exhausted";
  slots_.emplace_back();
  payloads_.emplace_back();
  return static_cast<uint32_t>(slots_.size() - 1);
}

// The slot's callback must already be empty (moved out to fire, or Reset by
// Cancel).
void EventLoop::FreeSlot(uint32_t idx) {
  SlotHeader& s = slots_[idx];
  if (++s.gen == 0) {
    s.gen = 1;  // keep MakeId(0, gen) != kInvalidEventId
  }
  s.state = SlotState::kFree;
  s.prev = kNil;
  s.next = free_head_;
  free_head_ = idx;
}

EventId EventLoop::ScheduleInternal(Time when, Duration period,
                                    InlineCallback&& fn, uint64_t tag) {
  CHECK_GE(when, now_) << "cannot schedule into the past";
  const uint32_t idx = AllocSlot();
  SlotPayload& p = payloads_[idx];
  p.fn = std::move(fn);
  p.period = period;
  p.tag = tag;
  SlotHeader& s = slots_[idx];
  s.when = when;
  s.seq = next_seq_++;
  s.cancel_while_firing = false;
  ++pending_count_;
  ++counters_.scheduled;
  if (when == ready_time_) {
    // The bucket for `when` has already left the wheel (collected, or fired
    // as a singleton), so no event for this instant is in the wheel; append
    // so the new event (highest seq) runs after whatever is left of it.
    s.state = SlotState::kInReady;
    ready_.push_back(ReadyEntry{idx, s.gen, s.seq});
    ++counters_.zero_delay_appends;
  } else {
    InsertIntoWheel(idx);
    ++counters_.wheel_inserts;
  }
  return MakeId(idx, s.gen);
}

void EventLoop::InsertIntoWheel(uint32_t idx) {
  if (wheel_count_ == 0 && now_ > wheel_time_) {
    // Re-anchor an empty wheel so sparse workloads don't pay cascades for
    // the full distance back to the last processed bucket. Forward only:
    // mid-cascade the wheel position can be ahead of now_, and rewinding it
    // would undo the cascade's progress.
    wheel_time_ = now_;
  }
  SlotHeader& s = slots_[idx];
  const uint64_t when = static_cast<uint64_t>(s.when);
  const uint64_t delta = when ^ static_cast<uint64_t>(wheel_time_);
  int b;
  if (delta < kL0Slots) {
    // Same 4096-aligned block as the cursor: the exact slot.
    b = static_cast<int>(when & (kL0Slots - 1));
    l0_occupied_[b >> 6] |= uint64_t{1} << (b & 63);
    l0_summary_ |= uint64_t{1} << (b >> 6);
  } else {
    // Level L >= 1 holds deltas whose highest set bit lies in
    // [12 + 6(L-1), 12 + 6L).
    const int level = 1 + ((63 - __builtin_clzll(delta)) - kL0Bits) / kLevelBits;
    const int shift = kL0Bits + kLevelBits * (level - 1);
    const int slot = static_cast<int>((when >> shift) & (kSlotsPerLevel - 1));
    b = kL0Slots + (level - 1) * kSlotsPerLevel + slot;
    upper_occupied_[level - 1] |= uint64_t{1} << slot;
  }
  s.state = SlotState::kInWheel;
  s.bucket = static_cast<uint16_t>(b);
  s.prev = kNil;
  s.next = buckets_[b];
  if (s.next != kNil) {
    slots_[s.next].prev = idx;
  }
  buckets_[b] = idx;
  ++wheel_count_;
}

void EventLoop::MarkBucketEmpty(int b) {
  if (b < kL0Slots) {
    uint64_t& word = l0_occupied_[b >> 6];
    word &= ~(uint64_t{1} << (b & 63));
    if (word == 0) {
      l0_summary_ &= ~(uint64_t{1} << (b >> 6));
    }
  } else {
    const int upper = b - kL0Slots;
    upper_occupied_[upper / kSlotsPerLevel] &=
        ~(uint64_t{1} << (upper % kSlotsPerLevel));
  }
}

uint32_t EventLoop::TakeBucket(int b) {
  const uint32_t head = buckets_[b];
  buckets_[b] = kNil;
  MarkBucketEmpty(b);
  return head;
}

void EventLoop::UnlinkFromWheel(uint32_t idx) {
  SlotHeader& s = slots_[idx];
  if (s.prev != kNil) {
    slots_[s.prev].next = s.next;
  } else {
    buckets_[s.bucket] = s.next;
  }
  if (s.next != kNil) {
    slots_[s.next].prev = s.prev;
  }
  if (buckets_[s.bucket] == kNil) {
    MarkBucketEmpty(s.bucket);
  }
  --wheel_count_;
}

EventLoop::WheelPos EventLoop::NextOccupiedSlot() const {
  // Lowest occupied level wins: level L-1 events all precede the next level-L
  // boundary, which every occupied level-L slot starts at or after. Every
  // resident event is at or after the cursor, so no occupied slot lies
  // behind it and the lowest set bit of a level is its next slot.
  if (l0_summary_ != 0) {
    const int word = __builtin_ctzll(l0_summary_);
    const int slot = word * 64 + __builtin_ctzll(l0_occupied_[word]);
    const Time start = static_cast<Time>(
        (static_cast<uint64_t>(wheel_time_) & ~uint64_t{kL0Slots - 1}) |
        static_cast<uint64_t>(slot));
    return WheelPos{0, slot, start};
  }
  for (int level = 1; level <= kUpperLevels; ++level) {
    const uint64_t occupied = upper_occupied_[level - 1];
    if (occupied == 0) {
      continue;
    }
    const int slot = __builtin_ctzll(occupied);
    const int shift = kL0Bits + kLevelBits * (level - 1);
    const int upper_shift = shift + kLevelBits;
    const uint64_t upper_mask =
        upper_shift >= 64 ? 0 : (~uint64_t{0} << upper_shift);
    const Time start = static_cast<Time>(
        (static_cast<uint64_t>(wheel_time_) & upper_mask) |
        (static_cast<uint64_t>(slot) << shift));
    return WheelPos{level, slot, start};
  }
  LOG(FATAL) << "wheel_count_=" << wheel_count_ << " but no occupied slot";
  return WheelPos{-1, -1, 0};
}

bool EventLoop::AdvanceTo(const WheelPos& pos) {
  if (pos.level > 0) {
    CascadeSlot(pos);
    return false;
  }
  if (oracle_ == nullptr && slots_[buckets_[pos.slot]].next == kNil) {
    // Singleton bucket: nothing to order, so fire it from the wheel. Events
    // the callback schedules for this instant join the ready list and fire
    // next, in seq order.
    wheel_time_ = pos.start;
    ready_time_ = pos.start;
    const uint32_t idx = TakeBucket(pos.slot);
    CHECK_EQ(slots_[idx].when, pos.start) << "level-0 bucket must be exact";
    --wheel_count_;
    ++counters_.buckets_collected;
    ++counters_.singleton_fires;
    FireSlot(idx);
    return true;
  }
  CollectBucket(pos);
  return false;
}

void EventLoop::CascadeSlot(const WheelPos& pos) {
  wheel_time_ = pos.start;
  uint32_t head =
      TakeBucket(kL0Slots + (pos.level - 1) * kSlotsPerLevel + pos.slot);
  while (head != kNil) {
    const uint32_t next = slots_[head].next;
    --wheel_count_;
    // Re-inserts relative to the advanced wheel_time_, landing at a strictly
    // lower level (every event here is within the slot's range).
    InsertIntoWheel(head);
    ++counters_.cascade_reinserts;
    head = next;
  }
}

void EventLoop::CollectBucket(const WheelPos& pos) {
  wheel_time_ = pos.start;
  ready_.clear();
  ready_pos_ = 0;
  ready_time_ = pos.start;
  ++counters_.buckets_collected;
  uint32_t head = TakeBucket(pos.slot);  // level 0
  while (head != kNil) {
    SlotHeader& s = slots_[head];
    const uint32_t next = s.next;
    CHECK_EQ(s.when, pos.start) << "level-0 bucket must be exact";
    s.state = SlotState::kInReady;
    ready_.push_back(ReadyEntry{head, s.gen, s.seq});
    --wheel_count_;
    head = next;
  }
  // Level-0 buckets are exact, so entries share a timestamp; seq order is
  // global FIFO order no matter which levels each event cascaded through.
  std::sort(ready_.begin(), ready_.end(),
            [](const ReadyEntry& a, const ReadyEntry& b) { return a.seq < b.seq; });
}

void EventLoop::SkipStaleReady() {
  while (ready_pos_ < ready_.size()) {
    const ReadyEntry& e = ready_[ready_pos_];
    const SlotHeader& s = slots_[e.slot];
    if (s.state == SlotState::kInReady && s.gen == e.gen) {
      return;
    }
    ++ready_pos_;  // cancelled after collection; slot already freed
  }
  ready_.clear();
  ready_pos_ = 0;
}

void EventLoop::FireReadyFront() { FireSlot(ready_[ready_pos_++].slot); }

void EventLoop::FireReadyNext() {
  if (oracle_ == nullptr) {
    FireReadyFront();
    return;
  }
  // Collect the live entries of the current batch (stale entries — cancelled
  // after collection — are skipped, exactly as SkipStaleReady would).
  oracle_cands_.clear();
  oracle_positions_.clear();
  for (size_t i = ready_pos_; i < ready_.size(); ++i) {
    const ReadyEntry& e = ready_[i];
    const SlotHeader& s = slots_[e.slot];
    if (s.state == SlotState::kInReady && s.gen == e.gen) {
      oracle_cands_.push_back(
          ScheduleOracle::Candidate{payloads_[e.slot].tag, e.seq});
      oracle_positions_.push_back(i);
    }
  }
  if (oracle_cands_.size() <= 1) {
    FireReadyFront();  // front is live (SkipStaleReady ran) — no choice here
    return;
  }
  const size_t choice = oracle_->Pick(ready_time_, oracle_cands_);
  CHECK_LT(choice, oracle_cands_.size()) << "oracle picked out of range";
  const size_t pos = oracle_positions_[choice];
  const uint32_t idx = ready_[pos].slot;
  // Detach the chosen entry; the rest of the batch keeps its seq order.
  ready_.erase(ready_.begin() + static_cast<ptrdiff_t>(pos));
  FireSlot(idx);
}

void EventLoop::FireSlot(uint32_t idx) {
  const Time fire_time = slots_[idx].when;
  CHECK_GE(fire_time, now_);
  now_ = fire_time;
  --pending_count_;
  ++executed_count_;
  SlotPayload& p = payloads_[idx];
  // Moved out: the callback may schedule events, which can reuse this slot
  // or grow the slab under it.
  InlineCallback fn = std::move(p.fn);
  if (p.period == 0) {
    // Free before invoking so Cancel(own id) inside the callback reports
    // "already fired" and the slot is immediately reusable.
    FreeSlot(idx);
    fn();
    return;
  }
  slots_[idx].state = SlotState::kFiring;
  slots_[idx].cancel_while_firing = false;
  fn();
  // Re-fetch: the callback may have scheduled events and grown the slab.
  SlotHeader& s = slots_[idx];
  if (s.cancel_while_firing) {
    FreeSlot(idx);
  } else {
    // Re-arm in place: same id, fresh seq drawn after the callback — the
    // same tie-break order a self-rescheduling callback would get.
    SlotPayload& rearm = payloads_[idx];
    rearm.fn = std::move(fn);
    s.when = fire_time + rearm.period;
    s.seq = next_seq_++;
    ++pending_count_;
    ++counters_.scheduled;
    ++counters_.wheel_inserts;
    InsertIntoWheel(idx);
  }
}

bool EventLoop::Cancel(EventId id) {
  const uint32_t idx = static_cast<uint32_t>(id);
  const uint32_t gen = static_cast<uint32_t>(id >> 32);
  if (idx >= slots_.size()) {
    return false;
  }
  SlotHeader& s = slots_[idx];
  if (s.gen != gen) {
    return false;  // already fired / cancelled / never existed
  }
  switch (s.state) {
    case SlotState::kInWheel:
      UnlinkFromWheel(idx);
      payloads_[idx].fn.Reset();  // release captures promptly
      FreeSlot(idx);
      --pending_count_;
      return true;
    case SlotState::kInReady:
      // Its ReadyEntry goes stale (generation mismatch) and is skipped.
      payloads_[idx].fn.Reset();
      FreeSlot(idx);
      --pending_count_;
      return true;
    case SlotState::kFiring:
      // Periodic event cancelled from inside its own callback: suppress the
      // re-arm. (Its pending_count_ share was already consumed by the fire.)
      if (s.cancel_while_firing) {
        return false;
      }
      s.cancel_while_firing = true;
      return true;
    case SlotState::kFree:
      return false;
  }
  return false;
}

bool EventLoop::RunOne() {
  for (;;) {
    SkipStaleReady();
    if (HaveLiveReady()) {
      FireReadyNext();
      return true;
    }
    if (wheel_count_ == 0) {
      return false;
    }
    if (AdvanceTo(NextOccupiedSlot())) {
      return true;
    }
  }
}

void EventLoop::RunUntil(Time deadline) {
  for (;;) {
    SkipStaleReady();
    if (HaveLiveReady()) {
      if (ready_time_ > deadline) {
        break;  // partially drained bucket past the deadline
      }
      FireReadyNext();
      continue;
    }
    if (wheel_count_ == 0) {
      break;
    }
    const WheelPos pos = NextOccupiedSlot();
    // pos.start lower-bounds every event in the slot, so nothing is due.
    if (pos.start > deadline) {
      break;
    }
    AdvanceTo(pos);
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
}

void EventLoop::RunUntilIdle() {
  while (RunOne()) {
  }
}

}  // namespace gs
