// Tests for the workload substrates: MiniRocks, the request-service engine,
// load generation, batch apps, Snap, the VM workload.
#include <gtest/gtest.h>

#include "src/sim/simulation.h"
#include "src/workloads/batch.h"
#include "src/workloads/request_service.h"
#include "src/workloads/rocksdb.h"
#include "src/workloads/snap.h"
#include "src/workloads/vm_workload.h"
#include "tests/test_util.h"

namespace gs {
namespace {

// --- MiniRocks ------------------------------------------------------------------

TEST(MiniRocksTest, PutGetRoundTrip) {
  MiniRocks db;
  db.Put("alpha", "1");
  db.Put("beta", "2");
  EXPECT_EQ(db.Get("alpha"), "1");
  EXPECT_EQ(db.Get("beta"), "2");
  EXPECT_FALSE(db.Get("gamma").has_value());
  EXPECT_EQ(db.stats().gets, 3u);
  EXPECT_EQ(db.stats().hits, 2u);
}

TEST(MiniRocksTest, OverwriteBumpsSequence) {
  MiniRocks db;
  const uint64_t s1 = db.Put("k", "v1");
  const uint64_t s2 = db.Put("k", "v2");
  EXPECT_GT(s2, s1);
  EXPECT_EQ(db.Get("k"), "v2");
  EXPECT_EQ(db.ApproximateSize(), 1u);
}

TEST(MiniRocksTest, DeleteIsTombstone) {
  MiniRocks db;
  db.Put("k", "v");
  EXPECT_TRUE(db.Delete("k"));
  EXPECT_FALSE(db.Get("k").has_value());
  EXPECT_FALSE(db.Delete("k")) << "double delete";
  // Re-insert resurrects.
  db.Put("k", "v2");
  EXPECT_EQ(db.Get("k"), "v2");
}

TEST(MiniRocksTest, ScanOrderedAndBounded) {
  MiniRocks db;
  db.LoadSyntheticKeys(100, 8);
  db.Delete(MiniRocks::KeyFor(5));
  auto rows = db.Scan(MiniRocks::KeyFor(0), MiniRocks::KeyFor(10), 100);
  EXPECT_EQ(rows.size(), 9u) << "10 keys in range minus 1 tombstone";
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LT(rows[i - 1].first, rows[i].first) << "ordered";
  }
  auto limited = db.Scan(MiniRocks::KeyFor(0), MiniRocks::KeyFor(100), 7);
  EXPECT_EQ(limited.size(), 7u);
}

class MiniRocksSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(MiniRocksSweepTest, LoadAndFullScan) {
  const int n = GetParam();
  MiniRocks db;
  db.LoadSyntheticKeys(n, 16);
  EXPECT_EQ(db.ApproximateSize(), static_cast<size_t>(n));
  auto rows = db.Scan("", "~", n + 1);
  EXPECT_EQ(rows.size(), static_cast<size_t>(n));
  EXPECT_EQ(db.last_sequence(), static_cast<uint64_t>(n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, MiniRocksSweepTest, ::testing::Values(1, 10, 1000, 10000));

// --- PoissonLoadGen -----------------------------------------------------------------

class PoissonRateTest : public ::testing::TestWithParam<double> {};

TEST_P(PoissonRateTest, ArrivalRateMatches) {
  const double rate = GetParam();
  EventLoop loop;
  FixedServiceModel model(Microseconds(1));
  int64_t count = 0;
  PoissonLoadGen gen(&loop, &model, rate, 42, [&](Time, Duration) { ++count; });
  gen.Start(Seconds(2));
  loop.RunUntilIdle();
  const double measured = static_cast<double>(count) / 2.0;
  EXPECT_NEAR(measured / rate, 1.0, 0.05) << "rate " << rate;
}

INSTANTIATE_TEST_SUITE_P(Rates, PoissonRateTest, ::testing::Values(1e3, 1e4, 1e5, 5e5));

TEST(ServiceModelTest, BimodalMixture) {
  BimodalServiceModel model(Microseconds(10), Milliseconds(10), 0.01);
  Rng rng(5);
  int longs = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const Duration d = model.Sample(rng);
    if (d == Milliseconds(10)) {
      ++longs;
    } else {
      EXPECT_EQ(d, Microseconds(10));
    }
  }
  EXPECT_NEAR(static_cast<double>(longs) / n, 0.01, 0.003);
  EXPECT_NEAR(model.MeanNs(), 0.99 * 10e3 + 0.01 * 10e6, 1.0);
}

TEST(ServiceModelTest, ExponentialMean) {
  ExponentialServiceModel model(Microseconds(100));
  Rng rng(6);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    sum += static_cast<double>(model.Sample(rng));
  }
  EXPECT_NEAR(sum / n / 1e3, 100.0, 3.0);
}

// --- ThreadPoolServer ---------------------------------------------------------------

TEST(ThreadPoolServerTest, CompletesAllRequestsAndConservesWork) {
  SimulationContext m({.topology = Topology::Make("t", 1, 4, 1, 4)});
  ThreadPoolServer server(&m.kernel(), {.num_workers = 8});
  for (int i = 0; i < 100; ++i) {
    server.Submit(m.now(), Microseconds(50));
  }
  m.RunFor(Milliseconds(50));
  EXPECT_EQ(server.completed(), 100);
  EXPECT_EQ(server.pending(), 0u);
  EXPECT_EQ(server.free_workers(), 8);
  Duration total = 0;
  for (Task* w : server.workers()) {
    total += w->total_runtime();
  }
  EXPECT_EQ(total, 100 * Microseconds(50)) << "work conservation";
}

TEST(ThreadPoolServerTest, QueuesWhenPoolExhausted) {
  SimulationContext m({.topology = Topology::Make("t", 1, 2, 1, 2)});
  ThreadPoolServer server(&m.kernel(), {.num_workers = 2});
  for (int i = 0; i < 10; ++i) {
    server.Submit(m.now(), Milliseconds(1));
  }
  EXPECT_EQ(server.pending(), 8u);
  m.RunFor(Milliseconds(20));
  EXPECT_EQ(server.completed(), 10);
  // Latency grows with queue position: p99 >> p50.
  EXPECT_GT(server.latency().PercentileUs(99), server.latency().PercentileUs(10) * 2);
}

TEST(ThreadPoolServerTest, DropsBeyondMaxPending) {
  SimulationContext m({.topology = Topology::Make("t", 1, 1, 1, 1)});
  ThreadPoolServer server(&m.kernel(), {.num_workers = 1, .max_pending = 5});
  for (int i = 0; i < 20; ++i) {
    server.Submit(m.now(), Milliseconds(1));
  }
  EXPECT_EQ(server.dropped(), 14);  // 1 assigned + 5 queued
  m.RunFor(Milliseconds(20));
  EXPECT_EQ(server.completed(), 6);
}

// --- BatchApp --------------------------------------------------------------------------

TEST(BatchAppTest, SoaksIdleCpus) {
  SimulationContext m({.topology = Topology::Make("t", 1, 4, 1, 4)});
  BatchApp batch(&m.kernel(), {.num_threads = 4});
  batch.Start();
  batch.MarkWindow();
  const Time start = m.now();
  m.RunFor(Milliseconds(100));
  EXPECT_NEAR(batch.CpuShare(start, m.now(), 4), 1.0, 0.02);
}

TEST(BatchAppTest, WindowAccounting) {
  SimulationContext m({.topology = Topology::Make("t", 1, 2, 1, 2)});
  BatchApp batch(&m.kernel(), {.num_threads = 2});
  batch.Start();
  m.RunFor(Milliseconds(10));
  batch.MarkWindow();
  const Duration before = batch.TotalRuntime();
  m.RunFor(Milliseconds(10));
  EXPECT_NEAR(static_cast<double>(batch.RuntimeSinceMark()),
              static_cast<double>(batch.TotalRuntime() - before), 1.0);
}

// --- Snap --------------------------------------------------------------------------------

TEST(SnapTest, AllMessagesCompleteUnderCfs) {
  SimulationContext m({.topology = Topology::Make("t", 1, 8, 2, 8)});
  SnapSystem snap(&m.kernel(), {.msgs_per_sec_per_flow = 2000, .seed = 3});
  snap.Start(Milliseconds(200));
  m.RunFor(Milliseconds(250));
  // 6 flows x 2k/s x 0.2s = ~2400 expected.
  EXPECT_GT(snap.completed(), 2000);
  EXPECT_GT(snap.small_latency().count(), 300);
  EXPECT_GT(snap.large_latency().count(), 1500);
  // RTT >= wire constant + processing.
  EXPECT_GE(snap.small_latency().PercentileUs(0.1), 80.0);
}

TEST(SnapTest, LargeMessagesSlowerThanSmall) {
  SimulationContext m({.topology = Topology::Make("t", 1, 8, 2, 8)});
  SnapSystem snap(&m.kernel(), {.msgs_per_sec_per_flow = 2000, .seed = 4});
  snap.Start(Milliseconds(200));
  m.RunFor(Milliseconds(250));
  EXPECT_GT(snap.large_latency().PercentileUs(50), snap.small_latency().PercentileUs(50));
}

// --- VmWorkload ------------------------------------------------------------------------------

TEST(VmWorkloadTest, CookiesGroupVcpusByVm) {
  SimulationContext m({.topology = Topology::Make("t", 1, 4, 2, 4)});
  VmWorkload vms(&m.kernel(), {.num_vms = 3, .vcpus_per_vm = 2});
  ASSERT_EQ(vms.vcpus().size(), 6u);
  EXPECT_EQ(vms.CookieOf(vms.vcpus()[0]->tid()), vms.CookieOf(vms.vcpus()[1]->tid()));
  EXPECT_NE(vms.CookieOf(vms.vcpus()[1]->tid()), vms.CookieOf(vms.vcpus()[2]->tid()));
  EXPECT_EQ(vms.CookieOf(99999), 0) << "unknown tid";
}

TEST(VmWorkloadTest, CompletesExactWork) {
  SimulationContext m({.topology = Topology::Make("t", 1, 4, 2, 4)});
  VmWorkload vms(&m.kernel(),
                 {.num_vms = 2, .vcpus_per_vm = 2, .work_per_vcpu = Milliseconds(10)});
  vms.Start();
  m.RunFor(Milliseconds(100));
  EXPECT_TRUE(vms.AllDone());
  for (Task* vcpu : vms.vcpus()) {
    EXPECT_EQ(vcpu->state(), TaskState::kDead);
    EXPECT_EQ(vcpu->total_runtime(), Milliseconds(10));
  }
  for (Time t : vms.completions()) {
    EXPECT_GT(t, 0);
  }
}

// --- WindowedSeries -------------------------------------------------------------------

TEST(WindowedSeriesTest, BucketsByWindow) {
  WindowedSeries series(Seconds(1));
  series.Add(Milliseconds(100), Microseconds(5));
  series.Add(Milliseconds(900), Microseconds(10));
  series.Add(Milliseconds(1500), Microseconds(20));
  ASSERT_EQ(series.num_windows(), 2);
  EXPECT_EQ(series.CountAt(0), 2);
  EXPECT_EQ(series.CountAt(1), 1);
  EXPECT_DOUBLE_EQ(series.RateAt(0), 2.0);
  EXPECT_NEAR(series.PercentileUsAt(1, 99), 20.0, 1.0);
}

}  // namespace
}  // namespace gs
