// Dedicated MicroQuanta tests: budget enforcement across parameter choices,
// window semantics, blackout length, and interaction with blocking workers.
#include <gtest/gtest.h>

#include "src/sim/simulation.h"
#include "tests/test_util.h"

namespace gs {
namespace {

struct MqParams {
  Duration period;
  Duration quanta;
};

class MqBudgetTest : public ::testing::TestWithParam<MqParams> {};

TEST_P(MqBudgetTest, HogGetsExactlyItsBudgetShare) {
  const MqParams params = GetParam();
  // Need a custom-parameterized class: build a bespoke machine stack.
  Workers workers;
  EventLoop loop;
  Kernel kernel(&loop, Topology::Make("t", 1, 1, 1, 1));
  auto agent = std::make_unique<AgentClass>();
  auto mq = std::make_unique<MicroQuantaClass>(
      MicroQuantaClass::Params{params.period, params.quanta});
  auto cfs = std::make_unique<CfsClass>();
  MicroQuantaClass* mq_ptr = mq.get();
  std::vector<std::unique_ptr<SchedClass>> classes;
  classes.push_back(std::move(agent));
  classes.push_back(std::move(mq));
  classes.push_back(std::move(cfs));
  kernel.InstallClasses(std::move(classes), /*default_index=*/2);

  Task* hog = workers.SpawnHog(kernel, "mq-hog", mq_ptr, Milliseconds(50));
  Task* background = workers.SpawnHog(kernel, "cfs-hog", nullptr, Milliseconds(50));
  loop.RunUntil(Milliseconds(200));

  const double share = static_cast<double>(hog->total_runtime()) /
                       static_cast<double>(Milliseconds(200));
  const double expected = static_cast<double>(params.quanta) /
                          static_cast<double>(params.period);
  EXPECT_NEAR(share, expected, 0.06)
      << "period " << params.period << " quanta " << params.quanta;
  // The leftover goes to CFS.
  EXPECT_NEAR(static_cast<double>(background->total_runtime()) /
                  static_cast<double>(Milliseconds(200)),
              1.0 - expected, 0.06);
}

INSTANTIATE_TEST_SUITE_P(
    Budgets, MqBudgetTest,
    ::testing::Values(MqParams{Milliseconds(1), Nanoseconds(900'000)},
                      MqParams{Milliseconds(1), Nanoseconds(500'000)},
                      MqParams{Milliseconds(2), Nanoseconds(1'500'000)},
                      MqParams{Microseconds(500), Microseconds(400)}));

TEST(MicroQuantaTest, BlackoutBoundedByPeriodMinusQuanta) {
  // Measure the longest continuous interval the MQ hog is off-CPU while
  // runnable: it must be ~period - quanta (the §4.3 "networking blackout").
  Workers workers;
  SimulationContext m({.topology = Topology::Make("t", 1, 1, 1, 1)});
  m.kernel().trace().Enable();
  Task* hog = workers.SpawnHog(m.kernel(), "mq", m.mq_class(), Milliseconds(50));
  workers.SpawnHog(m.kernel(), "cfs", nullptr, Milliseconds(50));
  m.RunFor(Milliseconds(100));

  Duration longest_gap = 0;
  Time last_out = -1;
  for (const TraceEvent& event : m.kernel().trace().ForTask(hog->tid())) {
    if (event.type == TraceEventType::kSwitchOut) {
      last_out = event.when;
    } else if (event.type == TraceEventType::kSwitchIn && last_out >= 0) {
      longest_gap = std::max(longest_gap, event.when - last_out);
      last_out = -1;
    }
  }
  EXPECT_GE(longest_gap, Microseconds(90)) << "throttling must produce blackouts";
  EXPECT_LE(longest_gap, Microseconds(115)) << "but bounded by period - quanta";
}

TEST(MicroQuantaTest, BlockingWorkerUnaffectedByBudgetAtLowUtilization) {
  // A worker that needs only 10% CPU never hits its quanta: its wakeup
  // latency stays flat (no blackouts at low utilization).
  Workers workers;
  SimulationContext m({.topology = Topology::Make("t", 1, 1, 1, 1)});
  Task* worker = m.kernel().CreateTask("worker", m.mq_class());
  Duration max_latency = 0;
  Time wake_time = 0;
  workers.Chain(m.kernel(), worker, Microseconds(100), [&](Task*) {
    max_latency = std::max(max_latency, m.now() - wake_time - Microseconds(100));
    wake_time = m.now() + Microseconds(900);
    return Workers::Next{Microseconds(900), Microseconds(100)};
  });
  workers.SpawnHog(m.kernel(), "cfs", nullptr, Milliseconds(1));
  m.RunFor(Milliseconds(100));
  EXPECT_EQ(m.mq_class()->throttle_count(), 0u);
  EXPECT_LT(max_latency, Microseconds(5)) << "wakeup latency flat at low load";
}

}  // namespace
}  // namespace gs
