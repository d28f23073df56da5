// The Fig 6 experiment (§4.2), shared by fig6_shinjuku and fig_predict: the
// machine, its CPU plan, the dispersive RocksDB-style workload, and the one
// function that offers the load to a server and measures it.
//
// Machine: one socket of a 2-socket Xeon E5-2658 (12 cores / 24 CPUs), as in
// the paper. Workload: open-loop Poisson; 99.5% of requests ~10 us (6 us
// RocksDB GET + 4 us processing), 0.5% take 10 ms; 200 worker threads.
#ifndef GHOST_SIM_BENCH_FIG6_EXPERIMENT_H_
#define GHOST_SIM_BENCH_FIG6_EXPERIMENT_H_

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>

#include "bench/harness.h"
#include "src/sim/simulation.h"
#include "src/workloads/batch.h"
#include "src/workloads/request_service.h"

namespace gs {
namespace fig6 {

constexpr Duration kShort = Microseconds(10);  // 6 us GET + 4 us processing
constexpr Duration kLong = Milliseconds(10);
constexpr double kPLong = 0.005;
constexpr int kNumWorkers = 200;
// Load stops at the end of the measure window; the run goes on this long
// so requests still in flight finish and land in the latency distribution.
constexpr Duration kDrain = Milliseconds(50);
// Below this offered load every system is far from saturation, so achieved
// throughput must match offered to within kThroughputTolerance.
constexpr double kUnsaturatedKqps = 100;
constexpr double kThroughputTolerance = 0.03;

// Warm-up and measure windows: the full paper sweep, or the CI smoke sizing.
struct Windows {
  Duration warmup = Milliseconds(100);
  Duration measure = Milliseconds(900);
};

inline Windows WindowsFor(bool quick) {
  return quick ? Windows{Milliseconds(50), Milliseconds(200)} : Windows{};
}

// CPU plan on the 24-CPU socket: core 0 (CPUs 0,12) belongs to the load
// generator. The agent/dispatcher takes core 1 (CPUs 1,13); request
// processing gets the remaining 20 hyperthread CPUs.
inline CpuMask ServerCpus() {
  CpuMask mask;
  for (int cpu = 2; cpu <= 11; ++cpu) {
    mask.Set(cpu);
  }
  for (int cpu = 14; cpu <= 23; ++cpu) {
    mask.Set(cpu);
  }
  return mask;
}

// The 24-CPU host, recording into `run`'s registry. The paper's service
// times were measured end-to-end on the SMT machine, so SMT effects are
// folded into them rather than double-counted.
inline SimulationContext::Options MachineOptions(bench::Run& run) {
  CostModel cost;
  cost.smt_contention_factor = 1.0;
  cost.agent_smt_contention_factor = 1.0;
  return {.topology = Topology::IntelE5_24(), .cost = cost, .stats = &run.stats()};
}

struct Result {
  double offered_kqps = 0;
  double achieved_kqps = 0;
  double p50_us = 0;
  double p99_us = 0;
  double p999_us = 0;
  double batch_share = 0;
};

// Offers Poisson bimodal load at `offered_kqps` to `server` (a
// ThreadPoolServer or a ShinjukuDataplane) through the measure window,
// resets the latency record when warm-up ends, then drains. Throughput is
// the completions after warm-up over the measure window, the span the load
// was offered in. `batch`, when non-null, is a co-located BatchApp whose
// CPU share since warm-up is reported.
template <typename Server>
Result Drive(SimulationContext& m, Server& server, const Windows& windows,
             double offered_kqps, uint64_t seed, BatchApp* batch = nullptr) {
  BimodalServiceModel model(kShort, kLong, kPLong);
  PoissonLoadGen gen(&m.loop(), &model, offered_kqps * 1e3, seed,
                     [&server](Time t, Duration s) { server.Submit(t, s); });
  gen.Start(windows.warmup + windows.measure);

  int64_t completed_at_warmup = 0;
  m.loop().ScheduleAt(windows.warmup, [&] {
    server.latency().Reset();
    completed_at_warmup = server.completed();
    if (batch != nullptr) {
      batch->MarkWindow();
    }
  });
  m.RunFor(windows.warmup + windows.measure + kDrain);

  Result r;
  r.offered_kqps = offered_kqps;
  r.achieved_kqps = static_cast<double>(server.completed() - completed_at_warmup) /
                    ToSeconds(windows.measure) / 1e3;
  r.p50_us = server.latency().PercentileUs(50);
  r.p99_us = server.latency().PercentileUs(99);
  r.p999_us = server.latency().PercentileUs(99.9);
  if (batch != nullptr) {
    r.batch_share =
        batch->CpuShare(windows.warmup, m.now(), m.kernel().topology().num_cpus());
  }
  return r;
}

// Unsaturated runs that missed their offered load, over the whole process
// (repetitions may run on several threads).
inline std::atomic<int> throughput_misses{0};

// Records a miss when `r` is an unsaturated run whose achieved throughput is
// off its offered load by more than the tolerance.
inline void CheckThroughput(const char* system, const Result& r) {
  if (r.offered_kqps <= kUnsaturatedKqps &&
      std::abs(r.achieved_kqps - r.offered_kqps) > kThroughputTolerance * r.offered_kqps) {
    std::fprintf(stderr, "%s: achieved %.1f kqps of %.0f offered (tolerance %.0f%%)\n",
                 system, r.achieved_kqps, r.offered_kqps, kThroughputTolerance * 100);
    throughput_misses.fetch_add(1);
  }
}

// The process exit code: `harness_code` unless it is 0 and a run missed its
// offered load.
inline int ExitCode(int harness_code) {
  return harness_code != 0 ? harness_code : (throughput_misses.load() > 0 ? 1 : 0);
}

}  // namespace fig6
}  // namespace gs

#endif  // GHOST_SIM_BENCH_FIG6_EXPERIMENT_H_
