// Discrete-event simulation engine.
//
// The entire machine model runs on one virtual clock: every hardware and
// kernel action (timer tick, IPI delivery, context-switch completion, burst
// completion, watchdog scan) is an event. Events at equal timestamps fire in
// schedule order (stable FIFO), which together with seeded RNGs makes every
// experiment bit-for-bit reproducible.
//
// Implementation: a hierarchical timing wheel over a pooled slab of event
// slots, built for the simulator's delay distribution (1 ms periodic ticks,
// and most scheduler events less than 4.1 µs ahead):
//
//  * Scheduling never allocates in steady state: callbacks are stored inline
//    (InlineCallback, no heap fallback), and slots are recycled through a
//    free list.
//  * EventId = (slot generation << 32) | slot index, so Cancel() is a true
//    O(1) unlink — no hash lookups, no tombstones surfacing on the pop path.
//  * Level 0 is a near-horizon exact level: 4096 one-nanosecond slots over
//    the 4096-aligned block that holds the wheel cursor, found through a
//    two-level occupancy bitmap (64 words plus a summary word). An event
//    less than 4.1 µs ahead that stays inside the cursor's block is inserted
//    once and never cascades. Nine upper levels of 64 slots each start at
//    2^12 ns (level L has 2^(12 + 6(L-1)) ns resolution) and cover any int64
//    horizon; their events cascade down as the cursor reaches them. A level-0
//    bucket holds only events with identical timestamps, and firing order
//    within it is by sequence number, preserving global (time, seq) FIFO
//    regardless of which levels an event cascaded through.
//  * Singleton fire: with no ScheduleOracle installed, a level-0 bucket that
//    holds one event fires straight from the wheel, skipping the ready list
//    and its sort. Events the callback schedules for the same instant join
//    the ready list and run after it, in seq order.
//  * Hot/cold slots: the fields the wheel walks (time, seq, links, gen,
//    state) sit in a 32-byte header array; the callback, period and oracle
//    tag sit in a parallel payload array touched only at schedule and fire.
//    Schedule* takes the callback by rvalue reference, so it is relocated
//    into its slot once, and relocated out once when it fires; for the
//    byte-relocatable captures of every hot call site both are plain copies.
//  * SchedulePeriodic() re-arms in place after each firing (same id, fresh
//    seq), eliminating the per-period push/pop/alloc churn of self-
//    rescheduling callbacks. The re-arm draws its sequence number *after*
//    the callback returns, exactly as a self-rescheduling callback would,
//    so converting a call site does not perturb tie-break order.
//  * counters() are plain hardware-free work counts (EventLoopCounters),
//    which a bench exports to its StatsRegistry's "layers" block.
//
// The previous binary-heap engine survives as ReferenceEventLoop
// (src/sim/reference_event_loop.h) for differential testing.
#ifndef GHOST_SIM_SRC_SIM_EVENT_LOOP_H_
#define GHOST_SIM_SRC_SIM_EVENT_LOOP_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/base/inline_callback.h"
#include "src/base/logging.h"
#include "src/base/time.h"

namespace gs {

class StatsRegistry;

// Opaque handle for cancelling a scheduled event. 0 is never a valid id.
using EventId = uint64_t;
inline constexpr EventId kInvalidEventId = 0;

// Schedule-space exploration hook (src/verify/explorer). When installed on an
// EventLoop, the oracle — not the default FIFO tie-break — decides which of
// several events that are ready at the same timestamp fires next. Candidates
// are presented in seq (default FIFO) order, so an oracle that always returns
// 0 reproduces the default schedule exactly. The oracle must not mutate the
// loop from inside Pick().
class ScheduleOracle {
 public:
  struct Candidate {
    uint64_t tag = 0;  // dependence tag supplied at Schedule* time; 0 = none
    uint64_t seq = 0;  // global FIFO sequence number (strictly increasing)
  };

  virtual ~ScheduleOracle() = default;

  // Chooses which candidate fires next among >= 2 events ready at `when`.
  // Must return an index < candidates.size().
  virtual size_t Pick(Time when,
                      const std::vector<Candidate>& candidates) = 0;
};

// Work counts of one EventLoop. They depend only on the simulated program,
// never on the host, so runs compare them exactly.
struct EventLoopCounters {
  uint64_t scheduled = 0;           // Schedule* calls plus periodic re-arms
  uint64_t zero_delay_appends = 0;  // joined the current instant's ready list
  uint64_t wheel_inserts = 0;       // scheduled straight into the wheel
  uint64_t cascade_reinserts = 0;   // moved to a lower level by a cascade
  uint64_t buckets_collected = 0;   // level-0 buckets taken off the wheel
  uint64_t singleton_fires = 0;     // of those, fired without the ready list

  // Adds the counts to `stats` as "layers" work counts (sim.* names); a
  // no-op while `stats` is disabled.
  void ExportTo(StatsRegistry* stats) const;
};

class EventLoop {
 public:
  EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  Time now() const { return now_; }

  // Schedules `fn` to run at absolute time `when` (must be >= now()).
  //
  // `tag` is an optional dependence label handed to an installed
  // ScheduleOracle (see src/sim/sched_tag.h for the taxonomy); it has no
  // effect on execution and defaults to 0 (unclassified).
  EventId ScheduleAt(Time when, InlineCallback&& fn, uint64_t tag = 0) {
    return ScheduleInternal(when, /*period=*/0, std::move(fn), tag);
  }

  // Schedules `fn` to run `delay` from now.
  EventId ScheduleAfter(Duration delay, InlineCallback&& fn, uint64_t tag = 0) {
    CHECK_GE(delay, 0);
    return ScheduleInternal(now_ + delay, /*period=*/0, std::move(fn), tag);
  }

  // Schedules `fn` to fire first at `first` and then every `period` after
  // each firing, re-arming in place: the returned id stays valid (and
  // cancellable) across firings. Cancelling from inside the callback stops
  // the re-arm.
  EventId SchedulePeriodicAt(Time first, Duration period, InlineCallback&& fn,
                             uint64_t tag = 0) {
    CHECK_GT(period, 0);
    return ScheduleInternal(first, period, std::move(fn), tag);
  }

  EventId SchedulePeriodic(Duration initial_delay, Duration period,
                           InlineCallback&& fn, uint64_t tag = 0) {
    CHECK_GE(initial_delay, 0);
    return SchedulePeriodicAt(now_ + initial_delay, period, std::move(fn),
                              tag);
  }

  // Installs (or clears, with nullptr) the schedule-exploration oracle. The
  // oracle is consulted only when two or more live events are ready at the
  // same timestamp; with none installed the loop fires in (time, seq) order.
  void set_oracle(ScheduleOracle* oracle) { oracle_ = oracle; }
  ScheduleOracle* oracle() const { return oracle_; }

  // Cancels a pending event. Returns true if the event existed and had not
  // yet fired; false (and no effect) for already-fired, already-cancelled,
  // or unknown ids. For a periodic event, "fired" means fully cancelled:
  // cancelling during or after any individual firing still returns true and
  // stops future firings.
  bool Cancel(EventId id);

  // Runs the next pending event, advancing the clock. Returns false if idle.
  bool RunOne();

  // Runs until the clock reaches `deadline` (events at exactly `deadline`
  // included) or the queue drains.
  void RunUntil(Time deadline);

  void RunFor(Duration d) { RunUntil(now_ + d); }

  // Runs events until the queue is empty. (Never returns while a periodic
  // event is armed.)
  void RunUntilIdle();

  bool empty() const { return pending_count_ == 0; }
  size_t pending_count() const { return pending_count_; }
  uint64_t executed_count() const { return executed_count_; }

  const EventLoopCounters& counters() const { return counters_; }

 private:
  // Level 0: 2^12 exact 1 ns slots, tracked by 64 occupancy words.
  static constexpr int kL0Bits = 12;
  static constexpr int kL0Slots = 1 << kL0Bits;  // 4096
  static constexpr int kL0Words = kL0Slots / 64;
  // Upper levels 1..kUpperLevels: 64 slots each, level L's digit starting at
  // bit 12 + 6(L-1). 12 + 6*9 = 66 > 63 bits: any int64 timestamp fits.
  static constexpr int kLevelBits = 6;
  static constexpr int kSlotsPerLevel = 1 << kLevelBits;  // 64
  static constexpr int kUpperLevels = 9;
  static constexpr int kBuckets = kL0Slots + kUpperLevels * kSlotsPerLevel;
  static constexpr uint32_t kNil = 0xffffffffu;

  enum class SlotState : uint8_t {
    kFree,     // on the free list
    kInWheel,  // linked into a wheel bucket
    kInReady,  // in the ready list of the bucket being fired
    kFiring,   // periodic event currently running its callback
  };

  // What the wheel walks: 32 bytes, two slots per cache line.
  struct SlotHeader {
    Time when = 0;
    uint64_t seq = 0;      // tiebreaker: FIFO among equal timestamps
    uint32_t gen = 1;      // bumped on free; stale ids fail the match
    uint32_t next = kNil;  // bucket list when kInWheel; free list when kFree
    uint32_t prev = kNil;
    uint16_t bucket = 0;   // which wheel bucket holds this slot (for unlink)
    SlotState state = SlotState::kFree;
    bool cancel_while_firing = false;
  };
  static_assert(sizeof(SlotHeader) == 32);

  // Touched only when the event is scheduled or fires.
  struct SlotPayload {
    InlineCallback fn;
    Duration period = 0;  // > 0 => periodic
    uint64_t tag = 0;     // dependence label for ScheduleOracle (0 = none)
  };

  struct ReadyEntry {
    uint32_t slot;
    uint32_t gen;
    uint64_t seq;
  };

  struct WheelPos {
    int level;
    int slot;    // index within the level
    Time start;  // start of the slot's time range (== event time at level 0)
  };

  static EventId MakeId(uint32_t idx, uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) | idx;
  }

  EventId ScheduleInternal(Time when, Duration period, InlineCallback&& fn,
                           uint64_t tag);
  uint32_t AllocSlot();
  void FreeSlot(uint32_t idx);
  void InsertIntoWheel(uint32_t idx);
  void UnlinkFromWheel(uint32_t idx);
  // Clears bucket `b`'s occupancy bit (the bucket must be empty).
  void MarkBucketEmpty(int b);
  // Detaches bucket `b` from the wheel and returns its list head.
  uint32_t TakeBucket(int b);
  // Lowest-level occupied wheel slot (every occupied slot lies at or after
  // the cursor). Requires wheel_count_ > 0.
  WheelPos NextOccupiedSlot() const;
  // Takes one step at `pos`: cascades a level>0 slot, fires a singleton
  // level-0 bucket directly, or collects a level-0 bucket into the ready
  // list. Returns true iff it fired an event.
  bool AdvanceTo(const WheelPos& pos);
  // Moves the events of a level>0 slot to lower levels (exact wheel position
  // advances to the slot's start first).
  void CascadeSlot(const WheelPos& pos);
  // Detaches a level-0 bucket into the ready list, sorted by seq.
  void CollectBucket(const WheelPos& pos);
  // Advances ready_pos_ past cancelled entries.
  void SkipStaleReady();
  bool HaveLiveReady() const { return ready_pos_ < ready_.size(); }
  // Fires the front ready entry (must be live).
  void FireReadyFront();
  // Fires the live event in slot `idx`, already detached from the wheel and
  // the ready list.
  void FireSlot(uint32_t idx);
  // Fires the next ready event: the front in FIFO order, or whichever live
  // same-timestamp entry the installed oracle picks.
  void FireReadyNext();

  Time now_ = 0;
  // Wheel cursor time: <= every event resident in the wheel. Lags now_ when
  // the wheel is sparse; re-anchored to now_ whenever the wheel empties.
  Time wheel_time_ = 0;
  uint64_t next_seq_ = 0;
  size_t pending_count_ = 0;  // live (scheduled, unfired) events
  size_t wheel_count_ = 0;    // live events resident in the wheel
  uint64_t executed_count_ = 0;
  EventLoopCounters counters_;

  // Parallel arrays indexed by slot.
  std::vector<SlotHeader> slots_;
  std::vector<SlotPayload> payloads_;
  uint32_t free_head_ = kNil;

  // Bucket list heads: level 0's 4096 exact slots, then the upper levels.
  std::array<uint32_t, kBuckets> buckets_;
  // Level-0 occupancy: bit s%64 of word s/64 is set iff slot s is occupied;
  // bit w of the summary is set iff word w is non-zero.
  std::array<uint64_t, kL0Words> l0_occupied_{};
  uint64_t l0_summary_ = 0;
  std::array<uint64_t, kUpperLevels> upper_occupied_{};

  // The bucket currently being fired (all entries share ready_time_),
  // ascending seq from ready_pos_.
  std::vector<ReadyEntry> ready_;
  size_t ready_pos_ = 0;
  // The instant of the last level-0 bucket taken off the wheel. No event for
  // it is in the wheel, so events scheduled for it join ready_.
  Time ready_time_ = 0;

  ScheduleOracle* oracle_ = nullptr;
  // Scratch buffers for oracle candidate collection (avoid reallocation).
  std::vector<ScheduleOracle::Candidate> oracle_cands_;
  std::vector<size_t> oracle_positions_;
};

}  // namespace gs

#endif  // GHOST_SIM_SRC_SIM_EVENT_LOOP_H_
