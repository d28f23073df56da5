// Ablation (§4.4): the Search policy's placement optimizations.
//
// The paper: "The NUMA and CCX optimizations were critical in achieving
// parity with CFS as they delivered 27% and 10% throughput improvements",
// plus the bespoke keep-pending-100us-instead-of-migrating rule discovered
// through rapid iteration. This bench runs the Fig 8 workload under the full
// Search policy and with each placement feature disabled.
#include <cstdio>
#include <memory>

#include "bench/harness.h"
#include "bench/machine_trace.h"
#include "src/agent/agent_process.h"
#include "src/policies/search.h"
#include "src/sim/simulation.h"
#include "src/workloads/search_workload.h"

namespace gs {
namespace {

Duration kRun = Seconds(20);

struct Result {
  double p99_a = 0, p99_b = 0, p99_c = 0;
  uint64_t deferred = 0;
};

Result Run(bench::Run& run, bool ccx_aware, Duration max_pending) {
  SimulationContext m({.topology = Topology::AmdRome256(), .cost = CostModel().WithCacheWarmth(),
                       .stats = &run.stats()});
  bench::ScopedMachineTrace trace_scope(run, m.kernel());
  auto enclave = m.CreateEnclave(m.kernel().topology().AllCpus());
  SearchPolicy::Options options;
  options.global_cpu = 0;
  options.ccx_aware = ccx_aware;
  options.max_pending_before_migrate = max_pending;
  auto policy = std::make_unique<SearchPolicy>(options);
  SearchPolicy* policy_ptr = policy.get();
  AgentProcess process(&m.kernel(), m.ghost_class(), enclave.get(), std::move(policy));
  process.Start();

  SearchWorkload workload(&m.kernel(), {.seed = run.seed()});
  for (Task* worker : workload.workers()) {
    enclave->AddTask(worker);
  }
  workload.Start(kRun);
  m.RunFor(kRun + Milliseconds(200));

  Result r;
  r.p99_a = workload.latency(SearchWorkload::kA).PercentileUs(99);
  r.p99_b = workload.latency(SearchWorkload::kB).PercentileUs(99);
  r.p99_c = workload.latency(SearchWorkload::kC).PercentileUs(99);
  r.deferred = policy_ptr->deferred_for_warmth();
  return r;
}

void Print(bench::Run& run, const char* name, const Result& r) {
  std::printf("%-34s %10.0f %10.0f %10.0f %12llu\n", name, r.p99_a, r.p99_b, r.p99_c,
              (unsigned long long)r.deferred);
  std::fflush(stdout);
  run.AddRow()
      .Set("variant", name)
      .Set("p99_a_us", r.p99_a)
      .Set("p99_b_us", r.p99_b)
      .Set("p99_c_us", r.p99_c)
      .Set("deferred", r.deferred);
}

}  // namespace
}  // namespace gs

int main(int argc, char** argv) {
  using namespace gs;
  bench::Harness harness("ablation_search_placement", argc, argv);
  if (harness.quick()) {
    kRun = Seconds(3);
  }
  harness.Param("run_s", static_cast<int64_t>(kRun / 1000000000));
  std::printf("Ablation: Search policy placement features (Fig 8 workload, %lld s).\n\n",
              static_cast<long long>(kRun / 1000000000));
  std::printf("%-34s %10s %10s %10s %12s\n", "variant", "p99_A_us", "p99_B_us", "p99_C_us",
              "deferred");
  harness.RunAll(33, [](bench::Run& run) {
    Print(run, "full policy", Run(run, true, Microseconds(100)));
    Print(run, "no 100us pending rule", Run(run, true, 0));
    Print(run, "no CCX tiers (first-idle)", Run(run, false, 0));
  });
  return harness.Finish();
}
