// Fig 7 reproduction (§4.3): Google Snap round-trip tail latencies under
// MicroQuanta (the production soft real-time scheduler) vs a ghOSt
// centralized FIFO policy, in quiet and loaded (40 antagonist threads)
// modes, for 64 B and 64 kB messages.
//
// Expected shape (paper): ghOSt tracks MicroQuanta through ~p99; for 64 kB
// messages ghOSt is 5-30% better at p99.9+ (it relocates workers instead of
// waiting out MicroQuanta's up-to-0.1 ms throttling blackouts); for 64 B
// messages ghOSt can be worse at extreme percentiles (per-message scheduling
// overhead shows when packets are tiny).
#include <cstdio>
#include <memory>
#include <set>

#include "bench/harness.h"
#include "bench/machine_trace.h"
#include "src/agent/agent_process.h"
#include "src/policies/shinjuku.h"
#include "src/sim/simulation.h"
#include "src/workloads/batch.h"
#include "src/workloads/snap.h"

namespace gs {
namespace {

constexpr int kAntagonists = 40;

Duration kWarmup = Seconds(1);
Duration kMeasure = Seconds(19);

Topology SnapTopo() {
  // Single socket of the Skylake machine: 28 cores / 56 CPUs.
  return Topology::Make("skylake1s-56", 1, 28, 2, 28);
}

struct Tails {
  double p[6];  // 50, 90, 99, 99.9, 99.99, 99.999
};

Tails Collect(const LatencyRecorder& rec) {
  return Tails{{rec.PercentileUs(50), rec.PercentileUs(90), rec.PercentileUs(99),
                rec.PercentileUs(99.9), rec.PercentileUs(99.99),
                rec.PercentileUs(99.999)}};
}

struct RunResult {
  Tails small;
  Tails large;
};

RunResult RunMicroQuanta(bench::Run& run, bool loaded, uint64_t seed) {
  SimulationContext m({.topology = SnapTopo(), .stats = &run.stats()});
  SnapSystem snap(&m.kernel(), {.seed = seed});
  for (Task* engine : snap.engine_threads()) {
    m.kernel().SetSchedClass(engine, m.mq_class());
  }
  BatchApp antagonists(&m.kernel(), {.num_threads = kAntagonists, .name_prefix = "antag"});
  if (loaded) {
    antagonists.Start();
  }
  snap.Start(kWarmup + kMeasure);
  m.RunFor(kWarmup);
  snap.ResetLatency();
  m.RunFor(kMeasure + Milliseconds(100));
  return RunResult{Collect(snap.small_latency()), Collect(snap.large_latency())};
}

RunResult RunGhost(bench::Run& run, bool loaded, uint64_t seed) {
  SimulationContext m({.topology = SnapTopo(), .stats = &run.stats()});
  bench::ScopedMachineTrace trace_scope(run, m.kernel());
  auto enclave = m.CreateEnclave(m.kernel().topology().AllCpus());
  SnapSystem snap(&m.kernel(), {.seed = seed});
  BatchApp antagonists(&m.kernel(), {.num_threads = kAntagonists, .name_prefix = "antag"});

  auto engine_tids = std::make_shared<std::set<int64_t>>();
  for (Task* engine : snap.engine_threads()) {
    engine_tids->insert(engine->tid());
  }
  // §4.3: "a simple, yet effective centralized FIFO policy ... giving Snap
  // worker threads strict priority over antagonist threads".
  AgentProcess process(
      &m.kernel(), m.ghost_class(), enclave.get(),
      MakeSnapPolicy([engine_tids](int64_t tid) { return engine_tids->count(tid) ? 0 : 1; },
                     /*global_cpu=*/0));
  process.Start();
  for (Task* engine : snap.engine_threads()) {
    enclave->AddTask(engine);
  }
  if (loaded) {
    for (Task* t : antagonists.threads()) {
      enclave->AddTask(t);
    }
    antagonists.Start();
  }
  snap.Start(kWarmup + kMeasure);
  m.RunFor(kWarmup);
  snap.ResetLatency();
  m.RunFor(kMeasure + Milliseconds(100));
  return RunResult{Collect(snap.small_latency()), Collect(snap.large_latency())};
}

void RecordRows(bench::Run& run, const char* system, bool loaded, const RunResult& r) {
  auto add = [&](const char* size, const Tails& t) {
    run.AddRow()
        .Set("system", system)
        .Set("loaded", loaded)
        .Set("msg_size", size)
        .Set("p50_us", t.p[0])
        .Set("p90_us", t.p[1])
        .Set("p99_us", t.p[2])
        .Set("p999_us", t.p[3])
        .Set("p9999_us", t.p[4])
        .Set("p99999_us", t.p[5]);
  };
  add("64B", r.small);
  add("64kB", r.large);
}

void PrintMode(const char* title, const RunResult& mq, const RunResult& ghost) {
  static const char* kPcts[] = {"50%", "90%", "99%", "99.9%", "99.99%", "99.999%"};
  std::printf("\n== %s ==\n", title);
  std::printf("%-10s %12s %12s %12s %12s\n", "pct", "MicroQ 64B", "ghOSt 64B",
              "MicroQ 64kB", "ghOSt 64kB");
  for (int i = 0; i < 6; ++i) {
    std::printf("%-10s %10.1fus %10.1fus %10.1fus %10.1fus\n", kPcts[i], mq.small.p[i],
                ghost.small.p[i], mq.large.p[i], ghost.large.p[i]);
  }
}

}  // namespace
}  // namespace gs

int main(int argc, char** argv) {
  using namespace gs;
  bench::Harness harness("fig7_snap", argc, argv);
  if (harness.quick()) {
    kWarmup = Milliseconds(200);
    kMeasure = Seconds(2);
  }
  harness.Param("antagonists", kAntagonists);
  harness.Param("warmup_ms", static_cast<int64_t>(kWarmup / 1000000));
  harness.Param("measure_ms", static_cast<int64_t>(kMeasure / 1000000));
  std::printf("Fig 7 reproduction: Snap packet-processing latencies, 56-CPU socket.\n"
              "6 flows x 10k msg/s (1x64B + 5x64kB); engines under MicroQuanta vs ghOSt.\n");
  harness.RunAll(11, [](bench::Run& run) {
    const uint64_t base_seed = run.seed();
    {
      RunResult mq = RunMicroQuanta(run, /*loaded=*/false, base_seed);
      RunResult ghost = RunGhost(run, /*loaded=*/false, base_seed);
      PrintMode("Fig 7a: quiet (networking load only)", mq, ghost);
      RecordRows(run, "microquanta", false, mq);
      RecordRows(run, "ghost", false, ghost);
    }
    {
      RunResult mq = RunMicroQuanta(run, /*loaded=*/true, base_seed + 1);
      RunResult ghost = RunGhost(run, /*loaded=*/true, base_seed + 1);
      PrintMode("Fig 7b: loaded (40 antagonist threads)", mq, ghost);
      RecordRows(run, "microquanta", true, mq);
      RecordRows(run, "ghost", true, ghost);
    }
  });
  return harness.Finish();
}
