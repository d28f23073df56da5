// SimulationContext ownership tests: whole-machine runs as owned values,
// byte-determinism of concurrent contexts, per-context registry isolation,
// and BatchRunner's deterministic fan-out. The battery doubles as
// the TSan target for the ownership redesign: two contexts on two threads
// share nothing, so a data-race report here means a global leaked back in.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/policies/per_cpu_fifo.h"
#include "src/scenario/registry.h"
#include "src/scenario/scenario_runner.h"
#include "src/sim/batch_runner.h"
#include "src/sim/simulation.h"
#include "src/verify/invariants.h"
#include "tests/test_util.h"

namespace gs {
namespace {

// One complete simulated-machine run: per-CPU FIFO agent over 2 CPUs, four
// block/wake workers, invariants checked throughout. Returns a digest that
// captures the whole observable outcome — enclave counters, per-task
// runtimes, and the full stats-registry JSON — so two digests are equal iff
// the runs were byte-identical.
std::string RunWorkload(uint64_t seed) {
  SimulationContext::Options options;
  options.topology = Topology::Make("simtest", 1, 2, 1, 2);
  options.seed = seed;
  options.enable_stats = true;
  Workers workers;
  SimulationContext sim(std::move(options));

  auto enclave = sim.CreateEnclave(CpuMask::AllUpTo(2));
  auto process =
      sim.CreateAgentProcess(enclave.get(), std::make_unique<PerCpuFifoPolicy>());
  process->Start();
  InvariantChecker checker(&sim.kernel());
  checker.Watch(enclave.get());
  checker.Start();

  constexpr Duration kBurst = Microseconds(200);
  std::vector<Task*> tasks;
  for (int i = 0; i < 4; ++i) {
    Task* task = sim.kernel().CreateTask("w" + std::to_string(i));
    enclave->AddTask(task);
    workers.Bursty(sim.kernel(), task, kBurst, Microseconds(50), 10 + static_cast<int>(seed % 5));
    tasks.push_back(task);
  }
  sim.RunFor(Milliseconds(50));

  std::string digest;
  digest += "committed=" + std::to_string(enclave->txns_committed());
  digest += " posted=" + std::to_string(enclave->messages_posted());
  digest += " checker=" + std::string(checker.ok() ? "ok" : "violated");
  for (Task* task : tasks) {
    digest += " " + task->name() + "=" +
              std::to_string(static_cast<long long>(task->total_runtime()));
  }
  digest += "\n" + sim.stats().ToJson();
  return digest;
}

// Two different-seed contexts running concurrently on two threads must each
// produce exactly the bytes their seed produces serially: contexts share
// nothing, so concurrency cannot perturb them.
TEST(SimulationContextTest, ConcurrentContextsMatchSerialByteForByte) {
  const std::string serial_a = RunWorkload(7);
  const std::string serial_b = RunWorkload(8);
  ASSERT_NE(serial_a, serial_b) << "seeds must differentiate the workload";

  std::string threaded_a, threaded_b;
  std::thread ta([&] { threaded_a = RunWorkload(7); });
  std::thread tb([&] { threaded_b = RunWorkload(8); });
  ta.join();
  tb.join();

  EXPECT_EQ(serial_a, threaded_a);
  EXPECT_EQ(serial_b, threaded_b);
}

// A context owns its registry: two back-to-back contexts never see each
// other's counters, and a borrowed registry accumulates across contexts.
TEST(SimulationContextTest, RegistriesArePerContext) {
  SimulationContext::Options options;
  options.enable_stats = true;
  int64_t first;
  {
    SimulationContext sim(options);
    sim.stats().GetCounter("widgets")->Inc(3);
    first = sim.stats().GetCounter("widgets")->value();
  }
  SimulationContext sim(options);
  EXPECT_EQ(first, 3);
  EXPECT_EQ(sim.stats().GetCounter("widgets")->value(), 0)
      << "a fresh context must start from a fresh registry";

  StatsRegistry shared;
  shared.Enable();
  for (int i = 0; i < 2; ++i) {
    SimulationContext::Options borrowed;
    borrowed.stats = &shared;
    SimulationContext inner(borrowed);
    inner.stats().GetCounter("widgets")->Inc(1);
  }
  EXPECT_EQ(shared.GetCounter("widgets")->value(), 2);
}

// Nested contexts on one thread are fully independent values: each owns its
// registry, and destroying the inner one leaves the outer untouched.
TEST(SimulationContextTest, NestedContextsStayIndependent) {
  SimulationContext outer(SimulationContext::Options{});
  StatsRegistry* outer_stats = &outer.stats();
  {
    SimulationContext inner(SimulationContext::Options{});
    EXPECT_NE(&inner.stats(), outer_stats);
  }
  EXPECT_EQ(&outer.stats(), outer_stats);
}

// The context builds the paper's class stack in strict priority order:
// agent > MicroQuanta > [core scheduling] > CFS (default) > ghOSt.
TEST(SimulationContextTest, BuildsClassStackInPriorityOrder) {
  SimulationContext plain(SimulationContext::Options{});
  Kernel& k = plain.kernel();
  ASSERT_EQ(k.num_classes(), 4);
  EXPECT_EQ(k.sched_class_at(0), plain.agent_class());
  EXPECT_EQ(k.sched_class_at(1), plain.mq_class());
  EXPECT_EQ(k.sched_class_at(2), plain.cfs_class());
  EXPECT_EQ(k.sched_class_at(3), plain.ghost_class());
  EXPECT_EQ(k.default_class(), plain.cfs_class());
  EXPECT_EQ(plain.core_sched_class(), nullptr);

  SimulationContext cored({.with_core_sched = true});
  Kernel& kc = cored.kernel();
  ASSERT_EQ(kc.num_classes(), 5);
  ASSERT_NE(cored.core_sched_class(), nullptr);
  EXPECT_EQ(kc.sched_class_at(0), cored.agent_class());
  EXPECT_EQ(kc.sched_class_at(1), cored.mq_class());
  EXPECT_EQ(kc.sched_class_at(2), cored.core_sched_class());
  EXPECT_EQ(kc.sched_class_at(3), cored.cfs_class());
  EXPECT_EQ(kc.sched_class_at(4), cored.ghost_class());
  EXPECT_EQ(kc.default_class(), cored.cfs_class());
}

// ---- BatchRunner ----------------------------------------------------------

TEST(BatchRunnerTest, JobsClampAndInlineMode) {
  EXPECT_EQ(BatchRunner(-3).jobs(), 1);
  EXPECT_EQ(BatchRunner(1).jobs(), 1);
  EXPECT_EQ(BatchRunner(5).jobs(), 5);
  EXPECT_GE(BatchRunner(0).jobs(), 1);  // hardware concurrency

  // jobs=1 runs inline on the calling thread.
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran(3);
  BatchRunner(1).Run(3, [&](int i) { ran[i] = std::this_thread::get_id(); });
  for (const std::thread::id& id : ran) {
    EXPECT_EQ(id, caller);
  }
}

TEST(BatchRunnerTest, EveryIndexRunsExactlyOnce) {
  constexpr int kRuns = 100;
  std::vector<int> counts(kRuns, 0);
  BatchRunner(8).Run(kRuns, [&](int i) { ++counts[i]; });
  for (int i = 0; i < kRuns; ++i) {
    EXPECT_EQ(counts[i], 1) << "index " << i;
  }
}

TEST(BatchRunnerTest, LowestIndexedExceptionWins) {
  try {
    BatchRunner(4).Run(16, [&](int i) {
      if (i == 3 || i == 11) {
        throw std::runtime_error("boom " + std::to_string(i));
      }
    });
    FAIL() << "expected the exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 3");
  }
}

// ---- BatchRunner persistent pool ---------------------------------------------

// A fleet calls Run once per lockstep epoch on one runner, thousands of times
// a run. Every call must still run each of its indices exactly once, and the
// pool must stay the same few threads rather than grow.
TEST(BatchRunnerTest, ReusedRunnerRunsEveryIndexOnceAcrossManyRuns) {
  constexpr int kCalls = 10000;
  constexpr int kMaxRuns = 13;
  const BatchRunner runner(4);
  std::mutex ids_mu;
  std::set<std::thread::id> ids;
  for (int call = 0; call < kCalls; ++call) {
    // 1..kMaxRuns indices: fewer, equal to and more than the 4 workers.
    const int num_runs = 1 + call % kMaxRuns;
    std::vector<int> counts(kMaxRuns, 0);
    runner.Run(num_runs, [&](int i) {
      ++counts[i];
      if (call % 1000 == 0) {
        std::lock_guard<std::mutex> lock(ids_mu);
        ids.insert(std::this_thread::get_id());
      }
    });
    for (int i = 0; i < kMaxRuns; ++i) {
      ASSERT_EQ(counts[i], i < num_runs ? 1 : 0) << "call " << call << " index " << i;
    }
  }
  EXPECT_LE(ids.size(), 4u);
}

TEST(BatchRunnerTest, CleanRunAfterAThrowingRunSeesNoStaleException) {
  const BatchRunner runner(4);
  for (int round = 0; round < 3; ++round) {
    EXPECT_THROW(runner.Run(16,
                            [](int i) {
                              if (i == 5) {
                                throw std::runtime_error("boom");
                              }
                            }),
                 std::runtime_error);
    std::vector<int> counts(16, 0);
    EXPECT_NO_THROW(runner.Run(16, [&](int i) { ++counts[i]; }));
    for (int i = 0; i < 16; ++i) {
      EXPECT_EQ(counts[i], 1) << "round " << round << " index " << i;
    }
  }
}

TEST(BatchRunnerTest, MoreJobsThanRunsOrHardwareThreads) {
  const int hw = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  for (int jobs : {8, 4 * hw + 3}) {
    const BatchRunner runner(jobs);
    for (int num_runs : {2, 7, 3 * jobs + 1}) {
      std::vector<int> counts(static_cast<size_t>(num_runs), 0);
      runner.Run(num_runs, [&](int i) { ++counts[i]; });
      for (int i = 0; i < num_runs; ++i) {
        EXPECT_EQ(counts[i], 1) << "jobs " << jobs << " runs " << num_runs
                                << " index " << i;
      }
    }
  }
}

TEST(BatchRunnerTest, IdlePoolJoinsPromptlyOnDestruction) {
  auto runner = std::make_unique<BatchRunner>(4);
  runner->Run(8, [](int) {});
  // Long past the spin budget: every helper is blocked, not spinning.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto start = std::chrono::steady_clock::now();
  runner.reset();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
}

// Seed sweeps can wrap a fleet: an outer runner's bodies each drive a
// cluster whose own runner fans its epochs out. Four 4-job fleets on a
// 4-job outer pool oversubscribe any small host; each must still match the
// serial run byte for byte.
TEST(BatchRunnerTest, NestedFleetRunnersMatchSerial) {
  const scenario::ScenarioSpec spec =
      scenario::GetBuiltinScenario("fleet_overload_brownout");
  const std::string serial =
      scenario::RenderGolden(scenario::RunScenario(spec, nullptr, 1));
  const std::vector<std::string> nested = BatchRunner(4).Map<std::string>(
      4, [&spec](int) {
        return scenario::RenderGolden(scenario::RunScenario(spec, nullptr, 4));
      });
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(nested[i], serial) << "outer run " << i;
  }
}

TEST(BatchRunnerDeathTest, ReentrantRunChecks) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        const BatchRunner runner(2);
        runner.Run(4, [&runner](int) { runner.Run(1, [](int) {}); });
      },
      "not re-entrant");
}

// The stress battery: many full machine runs across a pool, every outcome
// byte-compared against the same seed's inline run. This is the test TSan
// watches — any cross-context sharing shows up here as a race or a digest
// mismatch.
TEST(BatchRunnerTest, ParallelSimulationStressMatchesInline) {
  constexpr int kRuns = 12;
  std::vector<std::string> inline_digests(kRuns);
  BatchRunner(1).Run(kRuns,
                     [&](int i) { inline_digests[i] = RunWorkload(100 + i); });

  std::vector<std::string> parallel_digests(kRuns);
  BatchRunner(0).Run(kRuns,
                     [&](int i) { parallel_digests[i] = RunWorkload(100 + i); });

  for (int i = 0; i < kRuns; ++i) {
    EXPECT_EQ(inline_digests[i], parallel_digests[i]) << "run " << i;
  }
}

}  // namespace
}  // namespace gs
