// Unit tests for the discrete-event engine.
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/sim/event_loop.h"

namespace gs {
namespace {

TEST(EventLoopTest, RunsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.ScheduleAt(30, [&] { order.push_back(3); });
  loop.ScheduleAt(10, [&] { order.push_back(1); });
  loop.ScheduleAt(20, [&] { order.push_back(2); });
  loop.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), 30);
}

TEST(EventLoopTest, EqualTimesFifo) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.ScheduleAt(5, [&order, i] { order.push_back(i); });
  }
  loop.RunUntilIdle();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(EventLoopTest, CancelPreventsExecution) {
  EventLoop loop;
  bool ran = false;
  const EventId id = loop.ScheduleAt(10, [&] { ran = true; });
  EXPECT_TRUE(loop.Cancel(id));
  EXPECT_FALSE(loop.Cancel(id)) << "double cancel is a no-op";
  loop.RunUntilIdle();
  EXPECT_FALSE(ran);
  EXPECT_EQ(loop.pending_count(), 0u);
}

TEST(EventLoopTest, CancelInvalidId) {
  EventLoop loop;
  EXPECT_FALSE(loop.Cancel(kInvalidEventId));
  EXPECT_FALSE(loop.Cancel(12345));
}

TEST(EventLoopTest, EventsMayScheduleEvents) {
  EventLoop loop;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) {
      loop.ScheduleAfter(10, recurse);
    }
  };
  loop.ScheduleAfter(0, recurse);
  loop.RunUntilIdle();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(loop.now(), 40);
}

TEST(EventLoopTest, RunUntilStopsAtDeadline) {
  EventLoop loop;
  int count = 0;
  for (Time t = 10; t <= 100; t += 10) {
    loop.ScheduleAt(t, [&] { ++count; });
  }
  loop.RunUntil(50);
  EXPECT_EQ(count, 5) << "events at exactly the deadline are included";
  EXPECT_EQ(loop.now(), 50);
  loop.RunUntil(200);
  EXPECT_EQ(count, 10);
  EXPECT_EQ(loop.now(), 200) << "clock advances to the deadline even when idle";
}

TEST(EventLoopTest, RunOneReturnsFalseWhenEmpty) {
  EventLoop loop;
  EXPECT_FALSE(loop.RunOne());
  loop.ScheduleAfter(1, [] {});
  EXPECT_TRUE(loop.RunOne());
  EXPECT_FALSE(loop.RunOne());
}

TEST(EventLoopTest, CancelDuringExecution) {
  EventLoop loop;
  bool second_ran = false;
  EventId second = kInvalidEventId;
  loop.ScheduleAt(10, [&] { loop.Cancel(second); });
  second = loop.ScheduleAt(20, [&] { second_ran = true; });
  loop.RunUntilIdle();
  EXPECT_FALSE(second_ran);
}

TEST(EventLoopTest, CancelOfFiredIdFailsEvenAfterSlotReuse) {
  EventLoop loop;
  bool a_ran = false, b_ran = false;
  const EventId a = loop.ScheduleAt(10, [&] { a_ran = true; });
  loop.RunUntilIdle();
  EXPECT_TRUE(a_ran);
  EXPECT_FALSE(loop.Cancel(a)) << "fired id must be dead";
  // B reuses A's pooled slot; A's id must still be dead (generation bump).
  const EventId b = loop.ScheduleAt(20, [&] { b_ran = true; });
  EXPECT_FALSE(loop.Cancel(a)) << "stale id must not cancel the slot's new tenant";
  loop.RunUntilIdle();
  EXPECT_TRUE(b_ran);
  EXPECT_FALSE(loop.Cancel(b));
}

TEST(EventLoopTest, CancelInsideCallbackOfSameTimestampEvent) {
  // Both events sit in the same collected bucket; the first callback cancels
  // the second after it has already been pulled into the ready list.
  EventLoop loop;
  bool second_ran = false;
  EventId second = kInvalidEventId;
  loop.ScheduleAt(10, [&] { EXPECT_TRUE(loop.Cancel(second)); });
  second = loop.ScheduleAt(10, [&] { second_ran = true; });
  loop.RunUntilIdle();
  EXPECT_FALSE(second_ran);
  EXPECT_EQ(loop.executed_count(), 1u);
  EXPECT_EQ(loop.pending_count(), 0u);
}

TEST(EventLoopTest, SameTimestampFifoAcrossWheelLevels) {
  // Events landing in the same instant must fire in schedule order even when
  // they entered the wheel at different levels: the first is scheduled far
  // ahead (high level, cascades down), the second near (low level).
  EventLoop loop;
  std::vector<int> order;
  const Time target = 1 << 20;
  loop.ScheduleAt(target, [&] { order.push_back(0); });  // far: high level
  loop.RunUntil(target - 64);  // advance so the next insert is level 0/1
  loop.ScheduleAt(target, [&] { order.push_back(1); });  // near: low level
  loop.ScheduleAt(target, [&] { order.push_back(2); });
  loop.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}))
      << "cascades must not reorder same-timestamp events";
}

TEST(EventLoopTest, ScheduleZeroDelayInsideCallbackFiresSameInstant) {
  EventLoop loop;
  std::vector<int> order;
  loop.ScheduleAt(10, [&] {
    order.push_back(0);
    loop.ScheduleAfter(0, [&] { order.push_back(2); });  // after remaining t=10 work
  });
  loop.ScheduleAt(10, [&] { order.push_back(1); });
  loop.ScheduleAt(11, [&] { order.push_back(3); });
  loop.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(loop.now(), 11);
}

TEST(EventLoopTest, PeriodicFiresAtExactPeriods) {
  EventLoop loop;
  std::vector<Time> fires;
  loop.SchedulePeriodic(/*initial_delay=*/7, /*period=*/10,
                        [&] { fires.push_back(loop.now()); });
  loop.RunUntil(40);
  EXPECT_EQ(fires, (std::vector<Time>{7, 17, 27, 37}));
  EXPECT_EQ(loop.pending_count(), 1u) << "periodic stays armed";
}

TEST(EventLoopTest, PeriodicIdStaysValidAcrossFirings) {
  EventLoop loop;
  int fires = 0;
  const EventId id = loop.SchedulePeriodic(5, 5, [&] { ++fires; });
  loop.RunUntil(23);
  EXPECT_EQ(fires, 4);
  EXPECT_TRUE(loop.Cancel(id)) << "the handle must survive re-arms";
  EXPECT_FALSE(loop.Cancel(id));
  loop.RunUntil(100);
  EXPECT_EQ(fires, 4);
  EXPECT_EQ(loop.pending_count(), 0u);
}

TEST(EventLoopTest, PeriodicCancelInsideOwnCallbackStopsRearm) {
  EventLoop loop;
  int fires = 0;
  EventId id = kInvalidEventId;
  id = loop.SchedulePeriodic(5, 5, [&] {
    if (++fires == 3) {
      EXPECT_TRUE(loop.Cancel(id));
      EXPECT_FALSE(loop.Cancel(id)) << "second cancel while firing is a no-op";
    }
  });
  loop.RunUntil(1000);
  EXPECT_EQ(fires, 3);
  EXPECT_EQ(loop.pending_count(), 0u);
  EXPECT_FALSE(loop.Cancel(id));
}

TEST(EventLoopTest, SchedulePeriodicAtAbsoluteFirstFire) {
  EventLoop loop;
  std::vector<Time> fires;
  loop.RunUntil(100);
  const EventId id =
      loop.SchedulePeriodicAt(150, 25, [&] { fires.push_back(loop.now()); });
  loop.RunUntil(210);
  EXPECT_EQ(fires, (std::vector<Time>{150, 175, 200}));
  EXPECT_TRUE(loop.Cancel(id));
}

TEST(EventLoopTest, CallbackCapturesReleasedAfterFire) {
  EventLoop loop;
  auto token = std::make_shared<int>(42);
  std::weak_ptr<int> watch = token;
  loop.ScheduleAt(10, [token] { (void)*token; });
  token.reset();
  EXPECT_FALSE(watch.expired()) << "the pending event keeps the capture alive";
  loop.RunUntilIdle();
  EXPECT_TRUE(watch.expired()) << "fired events must drop captures promptly";
}

TEST(EventLoopTest, CallbackCapturesReleasedOnCancel) {
  EventLoop loop;
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> watch = token;
  const EventId id = loop.ScheduleAt(10, [token] { (void)*token; });
  token.reset();
  EXPECT_TRUE(loop.Cancel(id));
  EXPECT_TRUE(watch.expired()) << "cancelled events must drop captures promptly";
}

TEST(EventLoopTest, PendingCountTracksLiveEvents) {
  EventLoop loop;
  const EventId a = loop.ScheduleAfter(10, [] {});
  loop.ScheduleAfter(20, [] {});
  EXPECT_EQ(loop.pending_count(), 2u);
  loop.Cancel(a);
  EXPECT_EQ(loop.pending_count(), 1u);
  loop.RunUntilIdle();
  EXPECT_EQ(loop.pending_count(), 0u);
  EXPECT_EQ(loop.executed_count(), 1u);
}

// ---- Near-horizon level and singleton fire --------------------------------

// Records (now, label) at each fire.
struct FireLog {
  std::vector<std::pair<Time, int>> fires;
  InlineCallback At(EventLoop* loop, int label) {
    return [this, loop, label] { fires.push_back({loop->now(), label}); };
  }
};

TEST(EventLoopWheelTest, LevelZeroBoundaryDelays) {
  // From a cursor at 0, +4095 lands in level 0's last exact slot; +4096 and
  // +4097 fall in the next 4096-aligned block (level 1) and cascade once.
  EventLoop loop;
  FireLog log;
  loop.ScheduleAfter(4097, log.At(&loop, 3));
  loop.ScheduleAfter(4095, log.At(&loop, 1));
  loop.ScheduleAfter(4096, log.At(&loop, 2));
  loop.RunUntilIdle();
  EXPECT_EQ(log.fires, (std::vector<std::pair<Time, int>>{
                           {4095, 1}, {4096, 2}, {4097, 3}}));
  EXPECT_EQ(loop.counters().wheel_inserts, 3u);
  EXPECT_EQ(loop.counters().cascade_reinserts, 2u);
  EXPECT_EQ(loop.counters().singleton_fires, 3u);
}

TEST(EventLoopWheelTest, NearEventsInsideTheCursorBlockNeverCascade) {
  EventLoop loop;
  FireLog log;
  loop.RunUntil(8192);  // cursor at the start of a block
  for (int i = 0; i < 64; ++i) {
    loop.ScheduleAfter(1 + 63 * i, log.At(&loop, i));
  }
  loop.RunUntilIdle();
  ASSERT_EQ(log.fires.size(), 64u);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(log.fires[i], (std::pair<Time, int>{8192 + 1 + 63 * i, i}));
  }
  EXPECT_EQ(loop.counters().cascade_reinserts, 0u);
}

TEST(EventLoopWheelTest, EventsAcrossAlignedBlocksFireInTimeOrder) {
  EventLoop loop;
  FireLog log;
  loop.RunUntil(4000);
  // Straddles the 4096 and 8192 block boundaries, scheduled out of order.
  const std::vector<Time> times = {8200, 4095, 8191, 4096, 12288, 4000, 8192};
  for (size_t i = 0; i < times.size(); ++i) {
    loop.ScheduleAt(times[i], log.At(&loop, static_cast<int>(i)));
  }
  loop.RunUntilIdle();
  EXPECT_EQ(log.fires, (std::vector<std::pair<Time, int>>{
                           {4000, 5}, {4095, 1}, {4096, 3}, {8191, 2},
                           {8192, 6}, {8200, 0}, {12288, 4}}));
}

TEST(EventLoopWheelTest, CancelLastEventOfOccupancyWordThenReuseWord) {
  // Slots 64..127 share level 0's second occupancy word. Emptying it must
  // clear its summary bit, and scheduling into it again must set it back.
  EventLoop loop;
  FireLog log;
  const EventId only = loop.ScheduleAt(70, log.At(&loop, 0));
  loop.ScheduleAt(300, log.At(&loop, 1));
  EXPECT_TRUE(loop.Cancel(only));
  loop.ScheduleAt(100, log.At(&loop, 2));
  loop.ScheduleAt(65, log.At(&loop, 3));
  loop.RunUntilIdle();
  EXPECT_EQ(log.fires, (std::vector<std::pair<Time, int>>{
                           {65, 3}, {100, 2}, {300, 1}}));
  EXPECT_EQ(loop.pending_count(), 0u);
}

TEST(EventLoopWheelTest, PeriodicRearmLandsOnBlockBoundary) {
  EventLoop loop;
  std::vector<Time> fires;
  const EventId id =
      loop.SchedulePeriodicAt(2048, 2048, [&] { fires.push_back(loop.now()); });
  loop.RunUntil(12288);
  EXPECT_EQ(fires, (std::vector<Time>{2048, 4096, 6144, 8192, 10240, 12288}));
  EXPECT_TRUE(loop.Cancel(id));
}

TEST(EventLoopWheelTest, RunUntilDeadlineInsideLevelZero) {
  EventLoop loop;
  FireLog log;
  loop.ScheduleAt(100, log.At(&loop, 0));
  loop.ScheduleAt(200, log.At(&loop, 1));
  loop.ScheduleAt(5000, log.At(&loop, 2));
  loop.RunUntil(150);
  EXPECT_EQ(log.fires, (std::vector<std::pair<Time, int>>{{100, 0}}));
  EXPECT_EQ(loop.now(), 150);
  loop.ScheduleAt(160, log.At(&loop, 3));
  loop.RunUntil(200);
  EXPECT_EQ(log.fires, (std::vector<std::pair<Time, int>>{
                           {100, 0}, {160, 3}, {200, 1}}));
  EXPECT_EQ(loop.now(), 200);
  EXPECT_EQ(loop.pending_count(), 1u);
}

TEST(EventLoopWheelTest, ZeroDelayFromSingletonFireRunsAfterItInSeqOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.ScheduleAt(10, [&] {
    order.push_back(0);
    loop.ScheduleAfter(0, [&] {
      order.push_back(1);
      loop.ScheduleAfter(0, [&] { order.push_back(4); });
    });
    loop.ScheduleAt(10, [&] { order.push_back(2); });
    loop.ScheduleAfter(0, [&] { order.push_back(3); });
  });
  loop.ScheduleAt(11, [&] { order.push_back(5); });
  loop.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(loop.now(), 11);
  EXPECT_GE(loop.counters().singleton_fires, 2u) << "t=10 first, t=11 last";
}

TEST(EventLoopWheelTest, OracleKeepsBatchPathForSingletons) {
  // With an oracle installed no bucket skips the ready list.
  class FirstPick : public ScheduleOracle {
   public:
    size_t Pick(Time, const std::vector<Candidate>&) override { return 0; }
  };
  FirstPick oracle;
  EventLoop loop;
  loop.set_oracle(&oracle);
  int fired = 0;
  loop.ScheduleAt(10, [&] { ++fired; });
  loop.ScheduleAt(20, [&] { ++fired; });
  loop.RunUntilIdle();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(loop.counters().buckets_collected, 2u);
  EXPECT_EQ(loop.counters().singleton_fires, 0u);
}

// ---- Callback relocation and destruction ----------------------------------

// Counts destructions of the logical capture: a moved-from copy is hollow
// and does not count.
class DestroyProbe {
 public:
  explicit DestroyProbe(int* destroyed) : destroyed_(destroyed) {}
  DestroyProbe(DestroyProbe&& other) noexcept : destroyed_(other.destroyed_) {
    other.destroyed_ = nullptr;
  }
  DestroyProbe(const DestroyProbe&) = delete;
  DestroyProbe& operator=(const DestroyProbe&) = delete;
  ~DestroyProbe() {
    if (destroyed_ != nullptr) {
      ++*destroyed_;
    }
  }

 private:
  int* destroyed_;
};

struct HotCapture {
  EventLoop* loop;
  int cpu;
  void operator()() const {}
};
static_assert(InlineCallback::kByteRelocatable<HotCapture>,
              "pointer+int captures must take the byte-copy path");
static_assert(!InlineCallback::kByteRelocatable<std::shared_ptr<int>>);

TEST(InlineCallbackTest, TrivialCapturesAreByteRelocated) {
  EventLoop loop;
  int cpu = 3;
  auto hot = [&loop, cpu] { (void)loop.now(); (void)cpu; };
  static_assert(InlineCallback::kByteRelocatable<decltype(hot)>);
  InlineCallback a = hot;
  EXPECT_TRUE(a.byte_relocatable());
  InlineCallback b = std::move(a);
  EXPECT_TRUE(b.byte_relocatable());
  EXPECT_FALSE(a) << "moved-from callback is empty";

  int destroyed = 0;
  InlineCallback owning = [probe = DestroyProbe(&destroyed)] {};
  EXPECT_FALSE(owning.byte_relocatable());
  owning.Reset();
  EXPECT_EQ(destroyed, 1);
}

TEST(InlineCallbackTest, CaptureDestroyedOnceWhenFired) {
  int destroyed = 0;
  EventLoop loop;
  loop.ScheduleAt(10, [probe = DestroyProbe(&destroyed)] {});
  EXPECT_EQ(destroyed, 0);
  loop.RunUntilIdle();
  EXPECT_EQ(destroyed, 1);
}

TEST(InlineCallbackTest, CaptureDestroyedOnceWhenCancelled) {
  int destroyed = 0;
  EventLoop loop;
  const EventId id = loop.ScheduleAt(10, [probe = DestroyProbe(&destroyed)] {});
  EXPECT_TRUE(loop.Cancel(id));
  EXPECT_EQ(destroyed, 1);
  loop.RunUntilIdle();
  EXPECT_EQ(destroyed, 1);
}

TEST(InlineCallbackTest, PeriodicCaptureDestroyedOnceWhenCancelledInside) {
  int destroyed = 0;
  int fires = 0;
  EventLoop loop;
  EventId id = kInvalidEventId;
  id = loop.SchedulePeriodic(5, 5, [&, probe = DestroyProbe(&destroyed)] {
    if (++fires == 3) {
      loop.Cancel(id);
    }
  });
  loop.RunUntil(100);
  EXPECT_EQ(fires, 3);
  EXPECT_EQ(destroyed, 1);
}

TEST(InlineCallbackTest, PendingCapturesDestroyedOnceWithTheLoop) {
  int destroyed = 0;
  {
    EventLoop loop;
    loop.ScheduleAt(10, [probe = DestroyProbe(&destroyed)] {});
    loop.ScheduleAt(10, [probe = DestroyProbe(&destroyed)] {});
    loop.ScheduleAt(1 << 20, [probe = DestroyProbe(&destroyed)] {});
    loop.SchedulePeriodic(3, 7, [probe = DestroyProbe(&destroyed)] {});
    loop.RunUntil(5);
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(destroyed, 4);
}

}  // namespace
}  // namespace gs
