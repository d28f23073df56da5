// Ablation (§4.2): preemption-timeslice sensitivity of the ghOSt-Shinjuku
// policy on the dispersive workload.
//
// The Shinjuku design's core knob: too large a slice and rare 10 ms requests
// head-of-line-block the 10 µs ones (the CFS-Shinjuku failure mode); too
// small a slice and preemption overhead eats throughput. 30 µs — the paper's
// choice — sits in the flat basin.
#include <cstdio>
#include <memory>
#include <set>

#include "bench/harness.h"
#include "bench/machine_trace.h"
#include "src/agent/agent_process.h"
#include "src/policies/shinjuku.h"
#include "src/sim/simulation.h"
#include "src/workloads/request_service.h"

namespace gs {
namespace {

constexpr Duration kShort = Microseconds(10);
constexpr Duration kLong = Milliseconds(10);
constexpr double kPLong = 0.005;
constexpr double kLoadKqps = 240;
constexpr Duration kWarmup = Milliseconds(100);
Duration kMeasure = Milliseconds(900);

CpuMask ServerCpus() {
  CpuMask mask;
  for (int cpu = 2; cpu <= 11; ++cpu) {
    mask.Set(cpu);
  }
  for (int cpu = 14; cpu <= 23; ++cpu) {
    mask.Set(cpu);
  }
  return mask;
}

struct Result {
  double p50_us = 0;
  double p99_us = 0;
  double achieved_kqps = 0;
  uint64_t preemptions = 0;
};

Result Run(bench::Run& run, Duration timeslice) {
  CostModel cost;
  cost.smt_contention_factor = 1.0;
  cost.agent_smt_contention_factor = 1.0;
  SimulationContext m({.topology = Topology::IntelE5_24(), .cost = cost, .stats = &run.stats()});
  bench::ScopedMachineTrace trace_scope(run, m.kernel());
  CpuMask enclave_cpus = ServerCpus();
  enclave_cpus.Set(1);
  auto enclave = m.CreateEnclave(enclave_cpus);
  auto policy = MakeShinjukuPolicy(timeslice, /*global_cpu=*/1);
  CentralizedFifoPolicy* policy_ptr = policy.get();
  AgentProcess process(&m.kernel(), m.ghost_class(), enclave.get(), std::move(policy));
  process.Start();

  ThreadPoolServer server(&m.kernel(), {.num_workers = 200});
  for (Task* worker : server.workers()) {
    enclave->AddTask(worker);
  }
  BimodalServiceModel model(kShort, kLong, kPLong);
  PoissonLoadGen gen(&m.loop(), &model, kLoadKqps * 1e3, run.seed(),
                     [&server](Time t, Duration s) { server.Submit(t, s); });
  gen.Start(kWarmup + kMeasure);
  int64_t at_warmup = 0;
  m.loop().ScheduleAt(kWarmup, [&] {
    server.latency().Reset();
    at_warmup = server.completed();
  });
  m.RunFor(kWarmup + kMeasure + Milliseconds(50));

  Result r;
  r.p50_us = server.latency().PercentileUs(50);
  r.p99_us = server.latency().PercentileUs(99);
  r.achieved_kqps = static_cast<double>(server.completed() - at_warmup) /
                    ToSeconds(kMeasure + Milliseconds(50)) / 1e3;
  r.preemptions = policy_ptr->preemptions();
  return r;
}

}  // namespace
}  // namespace gs

int main(int argc, char** argv) {
  using namespace gs;
  bench::Harness harness("ablation_timeslice", argc, argv);
  if (harness.quick()) {
    kMeasure = Milliseconds(300);
  }
  harness.Param("load_kqps", kLoadKqps);
  harness.Param("measure_ms", static_cast<int64_t>(kMeasure / 1000000));
  std::printf("Ablation: ghOSt-Shinjuku preemption timeslice on the dispersive\n"
              "workload (240 kqps; 99.5%% x 10us + 0.5%% x 10ms). The paper uses 30us.\n\n");
  std::printf("%12s %10s %10s %10s %12s\n", "slice_us", "p50_us", "p99_us", "ach_kqps",
              "preemptions");
  harness.RunAll(99, [](bench::Run& run) {
    const std::vector<Duration> slices =
        run.quick()
            ? std::vector<Duration>{Microseconds(30), Milliseconds(5), 0}
            : std::vector<Duration>{Microseconds(5),   Microseconds(15), Microseconds(30),
                                    Microseconds(100), Microseconds(500), Milliseconds(5), 0};
    for (Duration slice : slices) {
      const Result r = Run(run, slice);
      if (slice > 0) {
        std::printf("%12lld %10.1f %10.1f %10.1f %12llu\n",
                    static_cast<long long>(slice / 1000), r.p50_us, r.p99_us,
                    r.achieved_kqps, (unsigned long long)r.preemptions);
      } else {
        std::printf("%12s %10.1f %10.1f %10.1f %12llu   (run-to-completion)\n", "inf",
                    r.p50_us, r.p99_us, r.achieved_kqps,
                    (unsigned long long)r.preemptions);
      }
      std::fflush(stdout);
      run.AddRow()
          .Set("slice_us", static_cast<int64_t>(slice / 1000))
          .Set("run_to_completion", slice == 0)
          .Set("p50_us", r.p50_us)
          .Set("p99_us", r.p99_us)
          .Set("achieved_kqps", r.achieved_kqps)
          .Set("preemptions", r.preemptions);
    }
  });
  return harness.Finish();
}
