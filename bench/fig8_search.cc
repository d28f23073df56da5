// Fig 8 reproduction (§4.4): Google Search on a 256-CPU AMD Rome machine,
// CFS vs the ghOSt Search policy, over 60 seconds.
//
// Panels (a-c): normalized per-second QPS for query types A, B, C.
// Panels (d-f): normalized per-second 99% latency.
//
// Expected shape (paper): comparable QPS; ghOSt reduces p99 by ~40-50% for
// types A and B (µs-scale rebalancing + CCX/NUMA-aware placement on warm
// caches) and is comparable for type C (compute-bound, long runs).
#include <algorithm>
#include <cstdio>
#include <memory>

#include "bench/harness.h"
#include "bench/machine_trace.h"
#include "src/agent/agent_process.h"
#include "src/policies/factory.h"
#include "src/sim/simulation.h"
#include "src/workloads/search_workload.h"

namespace gs {
namespace {

Duration kRun = Seconds(60);

struct Series {
  std::vector<double> qps[3];
  std::vector<double> p99_us[3];
  double overall_p99[3];
  double total_qps[3];
};

Series Collect(bench::Run& run, SearchWorkload& workload, const char* system) {
  const int seconds = static_cast<int>(ToSeconds(kRun));
  Series out;
  for (int type = 0; type < 3; ++type) {
    auto q = static_cast<SearchWorkload::QueryType>(type);
    WindowedSeries& series = workload.series(q);
    for (int s = 0; s < seconds && s < series.num_windows(); ++s) {
      out.qps[type].push_back(series.RateAt(s));
      out.p99_us[type].push_back(series.PercentileUsAt(s, 99));
    }
    out.overall_p99[type] = workload.latency(q).PercentileUs(99);
    out.total_qps[type] =
        static_cast<double>(workload.completed(q)) / ToSeconds(kRun);
    static const char* kNames[3] = {"A", "B", "C"};
    run.AddRow()
        .Set("system", system)
        .Set("query_type", kNames[type])
        .Set("total_qps", out.total_qps[type])
        .Set("overall_p99_us", out.overall_p99[type]);
    run.HistogramJson(
        std::string("windows_") + system + "_" + kNames[type], series.ToJson());
  }
  return out;
}

Series RunCfs(bench::Run& run, uint64_t seed) {
  SimulationContext m({.topology = Topology::AmdRome256(), .cost = CostModel().WithCacheWarmth(),
                       .stats = &run.stats()});
  SearchWorkload workload(&m.kernel(), {.seed = seed});
  workload.Start(kRun);
  m.RunFor(kRun + Milliseconds(200));
  return Collect(run, workload, "cfs");
}

Series RunGhost(bench::Run& run, uint64_t seed) {
  SimulationContext m({.topology = Topology::AmdRome256(), .cost = CostModel().WithCacheWarmth(),
                       .stats = &run.stats()});
  bench::ScopedMachineTrace trace_scope(run, m.kernel());
  auto enclave = m.CreateEnclave(m.kernel().topology().AllCpus());
  // Construct through the factory — the same path the scenario runner uses.
  scenario::PolicySpec spec;
  spec.kind = "search";
  spec.global_cpu = 0;
  AgentProcess process(&m.kernel(), m.ghost_class(), enclave.get(),
                       MakeScenarioPolicy(spec, PolicyEnv{}));
  process.Start();

  SearchWorkload workload(&m.kernel(), {.seed = seed});
  for (Task* worker : workload.workers()) {
    enclave->AddTask(worker);
  }
  workload.Start(kRun);
  m.RunFor(kRun + Milliseconds(200));
  return Collect(run, workload, "ghost");
}

void PrintPanels(const Series& cfs, const Series& ghost) {
  static const char* kNames[3] = {"A", "B", "C"};
  for (int type = 0; type < 3; ++type) {
    // Normalize as the paper does: to the run's max.
    double max_qps = 1e-9, max_p99 = 1e-9;
    const size_t n = std::min(cfs.qps[type].size(), ghost.qps[type].size());
    for (size_t s = 0; s < n; ++s) {
      max_qps = std::max({max_qps, cfs.qps[type][s], ghost.qps[type][s]});
      max_p99 = std::max({max_p99, cfs.p99_us[type][s], ghost.p99_us[type][s]});
    }
    std::printf("\n== Fig 8: query type %s (per-5s samples, normalized) ==\n",
                kNames[type]);
    std::printf("%6s %10s %10s %12s %12s\n", "t(s)", "QPS cfs", "QPS ghost", "p99 cfs",
                "p99 ghost");
    for (size_t s = 0; s < n; s += 5) {
      std::printf("%6zu %10.2f %10.2f %12.2f %12.2f\n", s, cfs.qps[type][s] / max_qps,
                  ghost.qps[type][s] / max_qps, cfs.p99_us[type][s] / max_p99,
                  ghost.p99_us[type][s] / max_p99);
    }
    std::printf("  totals: QPS cfs=%.0f ghost=%.0f (ratio %.3f) | overall p99 "
                "cfs=%.0fus ghost=%.0fus (ghost/cfs = %.2f)\n",
                cfs.total_qps[type], ghost.total_qps[type],
                ghost.total_qps[type] / cfs.total_qps[type], cfs.overall_p99[type],
                ghost.overall_p99[type],
                ghost.overall_p99[type] / cfs.overall_p99[type]);
    std::fflush(stdout);
  }
}

}  // namespace
}  // namespace gs

int main(int argc, char** argv) {
  using namespace gs;
  bench::Harness harness("fig8_search", argc, argv);
  if (harness.quick()) {
    kRun = Seconds(5);
  }
  harness.Param("run_s", static_cast<int64_t>(kRun / 1000000000));
  std::printf("Fig 8 reproduction: Google Search on AMD Rome (256 CPUs), %lld s.\n"
              "Query A: 25k qps x 3ms (NUMA-tied); B: 50k qps x 0.4ms + 2ms SSD;\n"
              "C: 8k qps x 8ms (long-living workers).\n",
              static_cast<long long>(kRun / 1000000000));
  harness.RunAll(21, [](bench::Run& run) {
    Series cfs = RunCfs(run, run.seed());
    std::printf("[cfs run done]\n");
    Series ghost = RunGhost(run, run.seed());
    std::printf("[ghost run done]\n");
    PrintPanels(cfs, ghost);
  });
  return harness.Finish();
}
