// Fleet-scale sweep: offered load vs achieved throughput / tail latency /
// shed fraction for an 8-machine cluster (--machines=N for another size)
// behind each front-end balancing strategy (round_robin, least_loaded,
// consistent_hash).
//
// Every machine runs the same ghOSt stack as the single-machine benches
// (Shinjuku policy on a small SMT box); each root request fans one leaf RPC
// to the next machine, so the sweep exercises the cross-machine RPC path and
// the network model under rising load until the balancer browns out
// (shed_outstanding). The whole cluster is deterministic: the JSON produced
// for a given seed is byte-identical for any --jobs value.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/scenario/scenario.h"
#include "src/scenario/scenario_runner.h"

namespace gs {
namespace {

int kMachines = 8;
constexpr int kRpcFanout = 2;
constexpr int kShedOutstanding = 48;
constexpr double kServiceMeanUs = 100;

double kWarmupMs = 20;
double kMeasureMs = 200;
double kDrainMs = 30;

scenario::ScenarioSpec MakeSpec(double offered_kqps, const std::string& strategy,
                                uint64_t seed) {
  scenario::ScenarioSpec spec;
  spec.name = "fig_fleet";
  spec.description = "fleet load sweep";
  spec.seed = seed;
  spec.warmup_ms = kWarmupMs;
  spec.measure_ms = kMeasureMs;
  spec.drain_ms = kDrainMs;
  spec.topology.preset = "custom";
  spec.topology.sockets = 1;
  spec.topology.cores_per_socket = 2;
  spec.topology.smt = 2;
  spec.topology.cores_per_ccx = 2;
  spec.policy.kind = "shinjuku";
  spec.policy.timeslice_us = 30;
  spec.enclave.cpu_first = 1;
  spec.workload.kind = "request_service";
  spec.workload.num_workers = 24;
  spec.workload.service.model = "exponential";
  spec.workload.service.mean_us = kServiceMeanUs;
  spec.workload.phases.clear();
  spec.workload.phases.push_back(
      {kWarmupMs + kMeasureMs + kDrainMs, offered_kqps * 1e3});
  spec.fleet.emplace();
  spec.fleet->machines = kMachines;
  spec.fleet->sessions = 512;
  spec.fleet->rpc_fanout = kRpcFanout;
  spec.fleet->balancer.policy = strategy;
  spec.fleet->balancer.shed_outstanding = kShedOutstanding;
  return spec;
}

void RunSweep(bench::Harness& harness, bench::Run& run) {
  // Aggregate capacity: 8 machines x 2 worker CPUs x (1 / 100 us) = 160 k
  // requests/s = 80 k arrivals/s at fan-out 2. Sweep through saturation;
  // other fleet sizes scale the offered loads with the machine count.
  std::vector<double> loads =
      run.quick() ? std::vector<double>{20, 60, 100}
                  : std::vector<double>{10, 20, 40, 60, 70, 80, 90, 100, 120};
  for (double& load : loads) {
    load = load * kMachines / 8;
  }
  std::printf("%-16s %10s %10s %10s %10s %10s %10s\n", "balancer", "offer_kqps",
              "ach_kqps", "p99_us", "shed", "rpcs", "maxshare");
  for (const char* strategy : {"round_robin", "least_loaded", "consistent_hash"}) {
    for (double load : loads) {
      const uint64_t seed = run.seed() + static_cast<uint64_t>(load);
      const scenario::ScenarioSpec spec = MakeSpec(load, strategy, seed);
      const scenario::ScenarioResult result =
          scenario::RunScenario(spec, &run.stats(), harness.jobs());
      const double achieved = result.envelopes.at("achieved_kqps");
      const double p99 = result.envelopes.at("p99_us");
      const double max_share = result.envelopes.count("lb_max_share")
                                   ? result.envelopes.at("lb_max_share")
                                   : 0.0;
      const int64_t shed = result.exact.at("shed");
      const int64_t rpcs = result.exact.at("rpcs");
      std::printf("%-16s %10.0f %10.1f %10.1f %10lld %10lld %10.3f\n", strategy,
                  load, achieved, p99, static_cast<long long>(shed),
                  static_cast<long long>(rpcs), max_share);
      std::fflush(stdout);
      run.AddRow()
          .Set("balancer", strategy)
          .Set("offered_kqps", load)
          .Set("achieved_kqps", achieved)
          .Set("p50_us", result.envelopes.at("p50_us"))
          .Set("p99_us", p99)
          .Set("p999_us", result.envelopes.at("p999_us"))
          .Set("generated", result.exact.at("generated"))
          .Set("completed", result.exact.at("completed"))
          .Set("shed", shed)
          .Set("rpcs", rpcs)
          .Set("net_messages", result.exact.at("net_messages"))
          .Set("lb_max_share", max_share)
          .Set("invariants_ok", result.exact.at("invariants_ok"));
    }
  }
}

}  // namespace
}  // namespace gs

int main(int argc, char** argv) {
  gs::bench::Harness::Options options;
  options.passthrough_prefixes = {"--machines="};
  gs::bench::Harness harness("fig_fleet", argc, argv, options);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--machines=", 11) == 0) {
      char* end = nullptr;
      const long machines = std::strtol(argv[i] + 11, &end, 10);
      if (*end != '\0' || machines < 2 || machines > 1024) {
        std::fprintf(stderr, "fig_fleet: --machines wants an integer in [2, 1024]\n");
        return 2;
      }
      gs::kMachines = static_cast<int>(machines);
    } else {
      std::fprintf(stderr, "usage: fig_fleet [--machines=N] [harness flags]\n");
      return 2;
    }
  }
  if (harness.quick()) {
    gs::kWarmupMs = 10;
    gs::kMeasureMs = 60;
    gs::kDrainMs = 20;
  }
  harness.Param("machines", gs::kMachines);
  harness.Param("rpc_fanout", gs::kRpcFanout);
  harness.Param("shed_outstanding", gs::kShedOutstanding);
  harness.Param("service_mean_us", gs::kServiceMeanUs);
  harness.Param("warmup_ms", gs::kWarmupMs);
  harness.Param("measure_ms", gs::kMeasureMs);

  std::printf("Fleet sweep: %d machines, fan-out %d, exp(%g us) service\n",
              gs::kMachines, gs::kRpcFanout, gs::kServiceMeanUs);
  harness.RunAll(42, [&harness](gs::bench::Run& run) {
    gs::RunSweep(harness, run);
  });
  return harness.Finish();
}
