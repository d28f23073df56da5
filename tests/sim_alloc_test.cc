// Steady-state allocation test for the whole simulation hot loop.
//
// The event engine test (event_alloc_test) proves the timing wheel is
// allocation-free; this test raises the bar to the full ghOSt stack. A
// fig5-shaped run — spinning global agent, workers that burst / block /
// re-wake, every cycle posting messages and committing transactions — must
// not touch the heap at all once slabs, rings, scratch vectors, and flat
// tables are warm. One heap hit per event is the difference between the
// pre-slab and post-slab profiles, so the budget here is exactly zero.
//
// Also holds the unit tests for the allocators themselves: Slab<T> reuse,
// generation-checked handles, deterministic Clear(), and TidMap's
// backward-shift deletion.
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/agent/agent_process.h"
#include "src/base/flat_map.h"
#include "src/base/slab.h"
#include "src/policies/centralized_fifo.h"
#include "src/sim/simulation.h"

namespace {

std::atomic<uint64_t> g_allocs{0};
std::atomic<uint64_t> g_frees{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return operator new(size); }

void operator delete(void* p) noexcept {
  if (p != nullptr) {
    g_frees.fetch_add(1, std::memory_order_relaxed);
    std::free(p);
  }
}

void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
void operator delete[](void* p) noexcept { operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { operator delete(p); }

namespace gs {
namespace {

// ---- Slab<T> ---------------------------------------------------------------

struct Tracked {
  explicit Tracked(int v = 0) : value(v) { ++live_count; }
  ~Tracked() { --live_count; }
  int value;
  static int live_count;
};
int Tracked::live_count = 0;

TEST(SlabTest, ReusesFreedSlotsLifo) {
  Slab<Tracked> slab;
  Tracked* a = slab.New(1);
  Tracked* b = slab.New(2);
  EXPECT_EQ(slab.live(), 2u);

  slab.Delete(a);
  EXPECT_EQ(slab.live(), 1u);
  // Freelist is LIFO: the very next New reuses a's slot.
  Tracked* c = slab.New(3);
  EXPECT_EQ(c, a);
  EXPECT_EQ(c->value, 3);
  EXPECT_EQ(slab.live(), 2u);
  slab.Delete(b);
  slab.Delete(c);
  EXPECT_EQ(Tracked::live_count, 0);
}

TEST(SlabTest, HandleGoesStaleOnFreeAndReuse) {
  Slab<Tracked> slab;
  Tracked* obj = slab.New(7);
  const Slab<Tracked>::Handle h = slab.HandleOf(obj);
  ASSERT_EQ(slab.Get(h), obj);

  slab.Delete(obj);
  EXPECT_EQ(slab.Get(h), nullptr) << "freed slot must invalidate the handle";

  // Reuse bumps the generation: the old handle stays stale, the new one works.
  Tracked* again = slab.New(8);
  ASSERT_EQ(again, obj);
  EXPECT_EQ(slab.Get(h), nullptr) << "reused slot must not resurrect old handle";
  EXPECT_EQ(slab.Get(slab.HandleOf(again)), again);
  slab.Delete(again);
}

TEST(SlabTest, NullHandleAndGarbageHandlesAreRejected) {
  Slab<Tracked> slab;
  EXPECT_EQ(slab.Get(Slab<Tracked>::kNullHandle), nullptr);
  EXPECT_EQ(slab.Get(0xdeadbeefdeadbeefull), nullptr);
}

TEST(SlabTest, ClearDestroysAndRestoresDeterministicOrder) {
  Slab<Tracked> slab;
  std::vector<Tracked*> first;
  for (int i = 0; i < 600; ++i) {  // spans multiple 256-slot chunks
    first.push_back(slab.New(i));
  }
  EXPECT_EQ(Tracked::live_count, 600);

  slab.Clear();
  EXPECT_EQ(Tracked::live_count, 0);
  EXPECT_EQ(slab.live(), 0u);
  EXPECT_GE(slab.capacity(), 600u);

  // A cleared slab hands out slots in the same order as a fresh one, so
  // allocation addresses — and anything keyed on them — stay deterministic.
  for (int i = 0; i < 600; ++i) {
    EXPECT_EQ(slab.New(i), first[i]) << "slot order diverged at " << i;
  }
  slab.Clear();
}

TEST(SlabTest, WarmSlabDoesNotAllocate) {
  Slab<Tracked> slab;
  std::vector<Tracked*> objs;
  objs.reserve(256);
  for (int i = 0; i < 256; ++i) {
    objs.push_back(slab.New(i));
  }
  for (Tracked* t : objs) {
    slab.Delete(t);
  }

  const uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int round = 0; round < 1000; ++round) {
    Tracked* a = slab.New(round);
    Tracked* b = slab.New(round + 1);
    slab.Delete(a);
    slab.Delete(b);
  }
  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed), before)
      << "warm New/Delete cycles must not touch the heap";
}

// ---- TidMap ----------------------------------------------------------------

TEST(TidMapTest, InsertFindEraseAcrossRehash) {
  TidMap<int> map;
  for (int64_t tid = 0; tid < 1000; ++tid) {
    map.Insert(tid, static_cast<int>(tid * 3));
  }
  EXPECT_EQ(map.size(), 1000u);
  for (int64_t tid = 0; tid < 1000; ++tid) {
    const int* v = map.Find(tid);
    ASSERT_NE(v, nullptr) << tid;
    EXPECT_EQ(*v, tid * 3);
  }
  // Erase every other key; survivors must stay reachable (backward-shift
  // deletion must not break probe chains).
  for (int64_t tid = 0; tid < 1000; tid += 2) {
    EXPECT_TRUE(map.Erase(tid));
  }
  EXPECT_EQ(map.size(), 500u);
  for (int64_t tid = 0; tid < 1000; ++tid) {
    const int* v = map.Find(tid);
    if (tid % 2 == 0) {
      EXPECT_EQ(v, nullptr) << tid;
    } else {
      ASSERT_NE(v, nullptr) << tid;
      EXPECT_EQ(*v, tid * 3);
    }
  }
  EXPECT_FALSE(map.Erase(0)) << "double erase must report absence";
}

TEST(TidMapTest, InsertOverwritesExistingKey) {
  TidMap<int> map;
  map.Insert(42, 1);
  map.Insert(42, 2);
  EXPECT_EQ(map.size(), 1u);
  ASSERT_NE(map.Find(42), nullptr);
  EXPECT_EQ(*map.Find(42), 2);
}

// ---- Full-stack steady state ----------------------------------------------

// Fig 5's worker shape: burst, block, re-wake 100ns later, forever.
void ArmWorkerBurst(Kernel* k, Task* t, Duration burst) {
  k->StartBurst(t, burst, [k, burst](Task* done) {
    k->Block(done);
    k->loop()->ScheduleAfter(Nanoseconds(100), [k, done, burst] {
      ArmWorkerBurst(k, done, burst);
      k->Wake(done);
    });
  });
}

TEST(SimAllocTest, GhostSteadyStateIsAllocationFree) {
  SimulationContext m({.topology = Topology::Make("t", 1, 8, 1, 8)});
  auto enclave = m.CreateEnclave(CpuMask::AllUpTo(8));
  CentralizedFifoPolicy::Options options;
  options.global_cpu = 0;
  AgentProcess process(&m.kernel(), m.ghost_class(), enclave.get(),
                       std::make_unique<CentralizedFifoPolicy>(options));
  process.Start();

  for (int i = 0; i < 14; ++i) {
    Task* t = m.kernel().CreateTask("spin/" + std::to_string(i));
    enclave->AddTask(t);
    ArmWorkerBurst(&m.kernel(), t, Microseconds(10));
    m.kernel().Wake(t);
  }

  // Warm up every pool the steady state touches: task/message slabs, event
  // slots, scratch vectors, flat tables, queue rings.
  m.RunFor(Milliseconds(5));
  ASSERT_GT(process.iterations(), 100u) << "agent must actually be scheduling";

  const uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  const uint64_t iters_before = process.iterations();

  m.RunFor(Milliseconds(20));

  const uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - allocs_before;
  const uint64_t iters = process.iterations() - iters_before;
  EXPECT_GT(iters, 500u) << "measurement window must cover real scheduling";
  EXPECT_EQ(allocs, 0u)
      << "steady-state scheduling (messages, wakeups, commits) must not "
         "allocate; "
      << allocs << " heap allocations leaked into " << iters << " iterations";
}

}  // namespace
}  // namespace gs
