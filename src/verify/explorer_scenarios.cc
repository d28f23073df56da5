#include "src/verify/explorer_scenarios.h"

#include <memory>
#include <span>

#include "src/agent/agent_process.h"
#include "src/policies/per_cpu_fifo.h"
#include "src/sim/simulation.h"
#include "src/verify/invariants.h"

namespace gs {
namespace {

// The checker is pure observation, so its scan events merely add interleaving
// candidates. The period is chosen to not divide the scenarios' trigger times
// (50/100 us), keeping the scans out of the hand-crafted race batches in the
// default schedule while still bounding detection latency below any race
// window of interest.
constexpr Duration kScanPeriod = Nanoseconds(777);

InvariantChecker::Options CheckerOptions() {
  InvariantChecker::Options options;
  options.period = kScanPeriod;
  // Scenarios run agent-less phases and deliberately-stranded threads; the
  // time-based bounds would fire on benign schedules (and embed durations in
  // the message, defeating shrink comparison). Stranding is asserted by each
  // scenario's own end-state predicate instead.
  options.conservation_grace = 0;
  options.ghost_starvation_bound = 0;
  return options;
}

// All delegation-protocol costs zeroed: the entire kernel<->agent exchange
// around one wakeup collapses into a single same-timestamp event batch, which
// is exactly the adversarial freedom the explorer feeds on — every protocol
// step becomes reorderable against the racing event.
CostModel ZeroProtocolCosts() {
  CostModel cost;
  cost.syscall = 0;
  cost.context_switch = 0;
  cost.agent_context_switch = 0;
  cost.txn_commit_local = 0;
  cost.remote_commit_fixed = 0;
  cost.remote_commit_per_txn = 0;
  cost.ipi_flight = 0;
  cost.ipi_flight_cross_numa_extra = 0;
  cost.ipi_handle = 0;
  cost.msg_produce = 0;
  cost.msg_dequeue = 0;
  cost.poll_detect = 0;
  cost.agent_wakeup = 0;
  cost.agent_loop_fixed = 0;
  cost.agent_per_task_scan = 0;
  cost.agent_per_cpu_scan = 0;
  return cost;
}

// Retry helper for RunLostWakeupScenario: wakes the worker into its final
// 30 us burst once it has actually blocked; while it is still running,
// re-queues itself at the back of the current event batch.
void WakeWhenBlocked(Kernel& kernel, EventLoop& loop, Task* worker) {
  if (worker->state() == TaskState::kBlocked) {
    kernel.StartBurst(worker, Microseconds(30),
                      [&kernel](Task* task) { kernel.Exit(task); });
    kernel.Wake(worker);
  } else if (worker->state() == TaskState::kRunning) {
    loop.ScheduleAfter(0, [&kernel, &loop, worker] {
      WakeWhenBlocked(kernel, loop, worker);
    });
  }
}

}  // namespace

// A worker blocks at exactly t=50us; an external wakeup is aimed at the same
// instant. The agent that drained the THREAD_BLOCKED message decides to sleep
// in the same batch — the explorer searches for the order where the wakeup's
// message lands after the agent committed to blocking but before it actually
// slept. The check-then-sleep re-validation makes every order safe; the
// mutation removes it.
std::string RunLostWakeupScenario(ScheduleOracle* oracle, bool mutate) {
  SimulationContext machine({.topology = Topology::Make("t", 1, 1, 1, 1),
                             .cost = ZeroProtocolCosts()});
  EventLoop& loop = machine.loop();
  loop.set_oracle(oracle);
  Kernel& kernel = machine.kernel();
  std::unique_ptr<Enclave> enclave = machine.CreateEnclave(CpuMask::AllUpTo(1));

  AgentProcess process(&kernel, machine.ghost_class(), enclave.get(),
                       std::make_unique<PerCpuFifoPolicy>());
  process.Start();
  process.set_test_skip_sleep_recheck(mutate);

  Task* worker = kernel.CreateTask("w");
  enclave->AddTask(worker);
  kernel.StartBurst(worker, Microseconds(50),
                    [&kernel](Task* task) { kernel.Block(task); });
  kernel.Wake(worker);

  InvariantChecker checker(&kernel, CheckerOptions());
  checker.Watch(enclave.get());
  checker.Start();

  // Wake-with-retry: depending on the explored order the wake event can fire
  // while the worker is still mid-burst; re-queue at the back of the batch
  // until the block has happened (Kernel::Wake itself absorbs the
  // blocked-but-still-current window via wake_pending). The retry is a plain
  // recursive closure — kernel/loop/worker all outlive RunFor below, so the
  // old shared_ptr<std::function> self-capture (which leaked) is unneeded.
  loop.ScheduleAt(Microseconds(50), [&kernel, &loop, worker] {
    WakeWhenBlocked(kernel, loop, worker);
  });

  machine.RunFor(Milliseconds(1));
  checker.CheckNow();
  checker.Stop();
  const std::string report = checker.Report();
  if (!report.empty()) {
    return NormalizeViolation(report);
  }
  if (worker->state() != TaskState::kDead) {
    return "lost wakeup: worker stranded runnable behind a sleeping agent";
  }
  return "";
}

// A synchronized group {a->cpu1, b->cpu2} races an affinity change that
// invalidates b's placement. Committed first, the group wins and the late
// affinity change legitimately defeats b's latch (§3.3). Reordered, member b
// fails validation mid-group and the all-or-nothing protocol must roll a back
// untouched; the mutation delivers already-latched members anyway.
std::string RunSyncGroupScenario(ScheduleOracle* oracle, bool mutate) {
  SimulationContext machine({.topology = Topology::Make("t", 1, 3, 1, 3)});
  EventLoop& loop = machine.loop();
  loop.set_oracle(oracle);
  Kernel& kernel = machine.kernel();
  std::unique_ptr<Enclave> enclave = machine.CreateEnclave(CpuMask::AllUpTo(3));
  enclave->set_test_partial_sync_groups(mutate);

  Task* a = kernel.CreateTask("a");
  enclave->AddTask(a);
  kernel.StartBurst(a, Microseconds(50), [&kernel](Task* task) { kernel.Exit(task); });
  kernel.Wake(a);
  Task* b = kernel.CreateTask("b");
  enclave->AddTask(b);
  kernel.StartBurst(b, Microseconds(50), [&kernel](Task* task) { kernel.Exit(task); });
  kernel.Wake(b);

  InvariantChecker checker(&kernel, CheckerOptions());
  checker.Watch(enclave.get());
  checker.Start();

  Transaction ta;
  ta.tid = a->tid();
  ta.target_cpu = 1;
  ta.sync_group = 1;
  Transaction tb;
  tb.tid = b->tid();
  tb.target_cpu = 2;
  tb.sync_group = 1;
  std::string group_violation;

  // Both racers are deferred by one zero-delay hop so they land as sibling
  // candidates in the same batch; the wrapper order fixes the benign default
  // (commit first), the oracle is free to flip them.
  const Time kRace = Microseconds(100);
  loop.ScheduleAt(kRace, [&loop, &enclave, &ta, &tb, &group_violation] {
    loop.ScheduleAfter(0, [&enclave, &ta, &tb, &group_violation] {
      Transaction* txns[] = {&ta, &tb};
      enclave->TxnsCommit(std::span<Transaction*>(txns, 2), nullptr,
                          [](int) { return Microseconds(5); });
      const bool any_fail = ta.status != TxnStatus::kCommitted ||
                            tb.status != TxnStatus::kCommitted;
      const bool any_commit = ta.status == TxnStatus::kCommitted ||
                              tb.status == TxnStatus::kCommitted;
      if (any_fail && any_commit) {
        group_violation =
            "sync group partially committed: one member failed while a "
            "sibling was delivered";
      }
    });
  });
  loop.ScheduleAt(kRace, [&loop, &kernel, b] {
    loop.ScheduleAfter(0, [&kernel, b] {
      if (b->state() != TaskState::kDead) {
        kernel.SetAffinity(b, CpuMask::Single(0));
      }
    });
  });

  machine.RunFor(Microseconds(400));
  checker.CheckNow();
  checker.Stop();
  const std::string report = checker.Report();
  if (!report.empty()) {
    return NormalizeViolation(report);
  }
  return group_violation;
}

// The agent publishes a runnable tid into the BPF fast-path ring, then
// commits the same thread to cpu 0 while cpu 1 goes idle and consults the
// ring. Pick first: the commit must fail (the thread is mid-switch
// elsewhere). Commit first: the pick must skip the latched tid. The mutation
// removes the pick-side revalidation, so the reordered schedule runs the
// thread on cpu 1 while its latch on cpu 0 is still pending delivery.
std::string RunFastpathScenario(ScheduleOracle* oracle, bool mutate) {
  SimulationContext machine({.topology = Topology::Make("t", 1, 2, 1, 2)});
  EventLoop& loop = machine.loop();
  loop.set_oracle(oracle);
  Kernel& kernel = machine.kernel();
  std::unique_ptr<Enclave> enclave = machine.CreateEnclave(CpuMask::AllUpTo(2));
  machine.ghost_class()->set_test_unsafe_fastpath(mutate);

  std::shared_ptr<RingFastPath> ring = RingFastPath::Global(2);
  enclave->InstallFastPath(ring);

  Task* worker = kernel.CreateTask("w");
  enclave->AddTask(worker);
  kernel.StartBurst(worker, Microseconds(200),
                    [&kernel](Task* task) { kernel.Exit(task); });
  kernel.Wake(worker);
  ring->Publish(0, worker->tid());

  InvariantChecker checker(&kernel, CheckerOptions());
  checker.Watch(enclave.get());
  checker.Start();

  Transaction txn;
  txn.tid = worker->tid();
  txn.target_cpu = 0;
  const Time kRace = Microseconds(100);
  loop.ScheduleAt(kRace, [&loop, &kernel] {
    loop.ScheduleAfter(0, [&kernel] { kernel.ReschedCpu(1); });
  });
  loop.ScheduleAt(kRace, [&loop, &enclave, &txn] {
    // Double hop: ReschedCpu is itself one event deep (it only queues the
    // resched), while TxnsCommit latches synchronously. The extra deferral
    // lines the two chains up so the benign order — idle pick before the
    // remote commit — is the default schedule, and the race fires only when
    // the oracle reorders the batch.
    loop.ScheduleAfter(0, [&loop, &enclave, &txn] {
      loop.ScheduleAfter(0, [&enclave, &txn] {
        Transaction* ptr = &txn;
        // A generous agent-side delay keeps the latch pending long enough
        // for the checker to observe the latched-but-running-elsewhere
        // window.
        enclave->TxnsCommit(std::span<Transaction*>(&ptr, 1), nullptr,
                            [](int) { return Microseconds(20); });
      });
    });
  });

  machine.RunFor(Microseconds(500));
  checker.CheckNow();
  checker.Stop();
  const std::string report = checker.Report();
  if (!report.empty()) {
    return NormalizeViolation(report);
  }
  return "";
}

const std::vector<ExplorerScenarioInfo>& AllExplorerScenarios() {
  static const std::vector<ExplorerScenarioInfo> scenarios = {
      {"lost_wakeup",
       "agent check-then-sleep vs wakeup arriving mid-iteration",
       RunLostWakeupScenario},
      {"sync_group_partial",
       "synchronized group commit vs racing affinity change",
       RunSyncGroupScenario},
      {"fastpath_stale_pick",
       "BPF fast-path pick vs remote commit of the published tid",
       RunFastpathScenario},
  };
  return scenarios;
}

Explorer::Scenario MakeExplorerScenario(const std::string& name, bool mutate) {
  for (const ExplorerScenarioInfo& info : AllExplorerScenarios()) {
    if (name == info.name) {
      auto run = info.run;
      return [run, mutate](ScheduleOracle* oracle) { return run(oracle, mutate); };
    }
  }
  return nullptr;
}

}  // namespace gs
