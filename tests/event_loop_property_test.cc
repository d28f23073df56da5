// Differential fuzz: the timing-wheel EventLoop against ReferenceEventLoop
// (the original binary-heap engine, kept for exactly this purpose).
//
// A random program of schedule/cancel/run operations — including periodic
// timers and callback-driven spawns and cancels — is generated up front and
// interpreted against both engines. Every observable must match exactly:
// the (time, tag) firing sequence, every Cancel return value, now(), and
// pending_count. Any divergence is a determinism bug in one of the engines.
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/sim/event_loop.h"
#include "src/sim/reference_event_loop.h"

namespace gs {
namespace {

// Everything a callback does is decided at generation time and recorded in
// the spec, so the two engines execute byte-identical programs.
struct EventSpec {
  Duration delta = 0;          // from now() at schedule (or spawn) time
  Duration period = 0;         // 0 = oneshot
  int cancel_self_after = 0;   // periodic: self-cancel after N fires (0 = never)
  int spawn_spec = -1;         // on first fire, schedule specs[spawn_spec]
  int cancel_tag = -1;         // on first fire, cancel the event with this tag
};

struct Op {
  enum Kind { kSchedule, kCancel, kRunUntil, kRunOne } kind;
  int spec = -1;        // kSchedule: index into specs
  int cancel_tag = -1;  // kCancel
  Duration run_delta = 0;  // kRunUntil
};

struct Program {
  std::vector<EventSpec> specs;
  std::vector<Op> ops;
  Time final_deadline = 0;
};

// kSpread spans every wheel level. kNearHorizon keeps most delays, periods
// and run deadlines inside [0, 8192) ns, where level 0's 4096 exact slots
// meet the first upper level: block crossings, the +4095/+4096/+4097
// boundary and deadlines inside level 0.
enum class DelayMix { kSpread, kNearHorizon };

Duration RandomDelta(Rng& rng, DelayMix mix) {
  if (mix == DelayMix::kNearHorizon) {
    switch (rng.NextBounded(10)) {
      case 0:
        return static_cast<Duration>(4095 + rng.NextBounded(3));
      case 1:
        return static_cast<Duration>(rng.NextBounded(1 << 20));
      default:
        return static_cast<Duration>(rng.NextBounded(8192));
    }
  }
  // Span the wheel levels: same-bucket, level-0..1, mid, and far deltas.
  switch (rng.NextBounded(5)) {
    case 0:
      return static_cast<Duration>(rng.NextBounded(4));
    case 1:
      return static_cast<Duration>(rng.NextBounded(64));
    case 2:
      return static_cast<Duration>(rng.NextBounded(4096));
    case 3:
      return static_cast<Duration>(rng.NextBounded(1 << 18));
    default:
      return static_cast<Duration>(rng.NextBounded(uint64_t{1} << 31));
  }
}

Program GenerateProgram(uint64_t seed, int num_ops,
                        DelayMix mix = DelayMix::kSpread) {
  const bool near = mix == DelayMix::kNearHorizon;
  Rng rng(seed);
  Program p;
  for (int i = 0; i < num_ops; ++i) {
    const uint64_t dice = rng.NextBounded(10);
    if (dice < 5) {
      EventSpec spec;
      spec.delta = RandomDelta(rng, mix);
      if (rng.NextBounded(5) == 0) {
        spec.period =
            static_cast<Duration>(1 + rng.NextBounded(near ? 8192 : 20000));
        if (rng.NextBounded(2) == 0) {
          spec.cancel_self_after = 1 + static_cast<int>(rng.NextBounded(5));
        }
      }
      if (rng.NextBounded(4) == 0) {
        // Callback schedules a oneshot (possibly delta 0: fires this instant).
        EventSpec spawned;
        spawned.delta = RandomDelta(rng, mix);
        p.specs.push_back(spawned);
        spec.spawn_spec = static_cast<int>(p.specs.size() - 1);
      }
      if (rng.NextBounded(4) == 0) {
        // Callback cancels a random earlier tag (any state: live/fired/...).
        spec.cancel_tag = static_cast<int>(rng.NextBounded(p.specs.size() + 1));
      }
      p.specs.push_back(spec);
      p.ops.push_back(Op{Op::kSchedule, static_cast<int>(p.specs.size() - 1), -1, 0});
    } else if (dice < 7) {
      p.ops.push_back(
          Op{Op::kCancel, -1, static_cast<int>(rng.NextBounded(p.specs.size() + 1)), 0});
    } else if (dice < 9) {
      p.ops.push_back(Op{Op::kRunUntil, -1, -1,
                         static_cast<Duration>(rng.NextBounded(near ? 8192 : 100000))});
    } else {
      p.ops.push_back(Op{Op::kRunOne, -1, -1, 0});
    }
  }
  p.final_deadline = 100000;  // relative: immortal periodics stay bounded
  return p;
}

// Interprets the program against one engine. All mutable state is per-driver
// so the two engines cannot contaminate each other.
template <typename Loop>
class Driver {
 public:
  explicit Driver(const Program& program) : program_(program) {}

  void Run() {
    for (const Op& op : program_.ops) {
      switch (op.kind) {
        case Op::kSchedule:
          Schedule(op.spec);
          break;
        case Op::kCancel:
          observations_.push_back(loop_.Cancel(IdForTag(op.cancel_tag)) ? 1 : 0);
          break;
        case Op::kRunUntil:
          loop_.RunUntil(loop_.now() + op.run_delta);
          observations_.push_back(static_cast<int64_t>(loop_.now()));
          observations_.push_back(static_cast<int64_t>(loop_.pending_count()));
          break;
        case Op::kRunOne:
          observations_.push_back(loop_.RunOne() ? 1 : 0);
          break;
      }
    }
    // Drain: periodics without a self-cancel would run forever, so run to a
    // fixed horizon instead of idle.
    loop_.RunUntil(loop_.now() + program_.final_deadline);
    observations_.push_back(static_cast<int64_t>(loop_.pending_count()));
  }

  const std::vector<std::pair<Time, int>>& fired() const { return fired_; }
  const std::vector<int64_t>& observations() const { return observations_; }

 private:
  EventId IdForTag(int tag) {
    auto it = ids_.find(tag);
    return it == ids_.end() ? kInvalidEventId : it->second;
  }

  void Schedule(int spec_index) {
    const EventSpec& spec = program_.specs[spec_index];
    const int tag = spec_index;  // specs are scheduled at most once per driver
    const Time when = loop_.now() + spec.delta;
    if (spec.period > 0) {
      ids_[tag] = loop_.SchedulePeriodicAt(when, spec.period,
                                           [this, tag] { OnFire(tag); });
    } else {
      ids_[tag] = loop_.ScheduleAt(when, [this, tag] { OnFire(tag); });
    }
  }

  void OnFire(int tag) {
    const EventSpec& spec = program_.specs[tag];
    fired_.push_back({loop_.now(), tag});
    const int count = ++fire_count_[tag];
    if (count == 1) {
      if (spec.spawn_spec >= 0) {
        Schedule(spec.spawn_spec);
      }
      if (spec.cancel_tag >= 0) {
        observations_.push_back(loop_.Cancel(IdForTag(spec.cancel_tag)) ? 1 : 0);
      }
    }
    if (spec.cancel_self_after > 0 && count == spec.cancel_self_after) {
      observations_.push_back(loop_.Cancel(ids_[tag]) ? 1 : 0);
    }
  }

  const Program& program_;
  Loop loop_;
  std::vector<std::pair<Time, int>> fired_;
  std::vector<int64_t> observations_;  // cancel results, now(), pending counts
  std::map<int, EventId> ids_;
  std::map<int, int> fire_count_;
};

void ExpectSameRun(const Program& program, uint64_t seed) {
  Driver<EventLoop> wheel(program);
  Driver<ReferenceEventLoop> reference(program);
  wheel.Run();
  reference.Run();

  ASSERT_EQ(wheel.fired().size(), reference.fired().size());
  for (size_t i = 0; i < wheel.fired().size(); ++i) {
    ASSERT_EQ(wheel.fired()[i], reference.fired()[i])
        << "firing sequence diverges at index " << i << " (seed " << seed
        << ")";
  }
  EXPECT_EQ(wheel.observations(), reference.observations())
      << "cancel results / clock / pending counts diverge (seed " << seed
      << ")";
}

class EventLoopDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EventLoopDifferentialTest, WheelMatchesReferenceHeap) {
  ExpectSameRun(GenerateProgram(GetParam(), 3000), GetParam());
}

TEST_P(EventLoopDifferentialTest, NearHorizonMixMatchesReferenceHeap) {
  ExpectSameRun(GenerateProgram(GetParam(), 3000, DelayMix::kNearHorizon),
                GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventLoopDifferentialTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89,
                                           144, 233, 377, 610, 987, 1597));

}  // namespace
}  // namespace gs
