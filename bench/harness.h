// Unified bench harness: one flag surface and one result schema for every
// benchmark binary in bench/.
//
// Flags (stripped from argc/argv; anything else starting with "--" that the
// benchmark did not declare as a passthrough prefix is rejected with usage):
//
//   --json=<path>       write a machine-readable result file (schema below)
//   --seed=<N>          override the benchmark's base RNG seed
//   --seeds=<N>         run N independent repetitions, seeds base..base+N-1
//   --jobs=<N>          worker threads for the repetitions (0 = one per
//                       hardware thread; default 1)
//   --scale=quick|paper run a CI-sized subset or the full paper-scale sweep
//   --trace-out=<path>  write a Chrome-trace/Perfetto JSON of the run; a run
//                       that would write 0 events (no machine attached the
//                       exporter) writes nothing and exits non-zero
//   --wall-clock        record a "wall_clock_s" metric in the result file
//                       (off by default: wall time is nondeterministic, and
//                       several CI gates byte-compare result files)
//
// Result schema (schema_version 1):
//
//   {
//     "schema_version": 1,
//     "benchmark": "fig6_shinjuku",
//     "seed": 1000,
//     "scale": "paper",
//     "params": {<flag/config key-values>},
//     "series": [{<one row per sweep point>}, ...],
//     "metrics": {<scalar name: value>},
//     "histograms": {<name>: {count,min,max,mean,p50,...}},
//     "stats": {<StatsRegistry snapshot>},
//     "layers": {<hardware-free work counts, e.g. "sim.cascade_reinserts">}
//   }
//
// "layers" sums the work counts of every EventLoop the run built (its
// SimulationContexts export them on destruction; see EventLoopCounters).
// They depend only on the simulated program, so runs compare them exactly.
//
// With --seeds=N (N > 1) every seed writes its own standalone file of the
// schema above — the --json path with ".seed<SEED>" spliced in before the
// extension — and the --json path itself receives an aggregate document:
// same schema, plus "seeds"/"jobs" keys, a seed column prefixed onto every
// series row, per-run metrics/histograms suffixed "{seed=N}", a
// "wall_clock_s" metric, and the per-run stats registries (layers included)
// merged. Per-seed
// files depend only on the seed, never on --jobs: a parallel sweep is
// byte-identical to a serial one.
//
// Each repetition runs against its own `Run` — per-run rows, metrics, and a
// per-run StatsRegistry the benchmark passes (Options::stats) to the
// SimulationContext it builds. Passing --json enables those registries, so
// the "stats" block carries the kernel/ghost/agent counters for the run;
// without --json (and without --trace-out) the instrumentation stays
// disabled and the benchmark measures the zero-overhead path.
#ifndef GHOST_SIM_BENCH_HARNESS_H_
#define GHOST_SIM_BENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/base/json.h"
#include "src/sim/chrome_trace.h"
#include "src/stats/stats.h"

namespace gs {

class Trace;

namespace bench {

enum class Scale { kQuick, kPaper };

class Harness;

// One row of the "series" array: ordered key -> value pairs.
class Row {
 public:
  Row& Set(const std::string& key, int64_t v);
  Row& Set(const std::string& key, int v) { return Set(key, static_cast<int64_t>(v)); }
  Row& Set(const std::string& key, uint64_t v);
  Row& Set(const std::string& key, double v);
  Row& Set(const std::string& key, const std::string& v);
  Row& Set(const std::string& key, const char* v) { return Set(key, std::string(v)); }
  Row& Set(const std::string& key, bool v);
  // Splices a pre-rendered JSON value (e.g. Histogram::ToJson()).
  Row& SetRaw(const std::string& key, std::string json);

 private:
  friend class Harness;
  // Values are pre-rendered JSON, kept in insertion order.
  std::vector<std::pair<std::string, std::string>> cells_;
};

// One repetition of the benchmark: the sinks for its rows/metrics/histograms
// and the StatsRegistry its simulated machine writes to. Handed to the
// Harness::RunAll body, one Run per seed. A Run is used by exactly one
// worker thread; nothing in it is synchronized.
class Run {
 public:
  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;

  uint64_t seed() const { return seed_; }
  // 0-based repetition index (seed() == base seed + index()).
  int index() const { return index_; }
  Scale scale() const;
  bool quick() const;

  // The registry for this run's machine(s): pass `&stats()` as
  // SimulationContext::Options::stats. Enabled iff --json or --trace-out was
  // given (results without counters would be hollow; plain stdout runs keep
  // the zero-overhead path).
  StatsRegistry& stats() { return stats_; }

  Row& AddRow();
  void Metric(const std::string& name, double v);
  void Metric(const std::string& name, int64_t v);
  // `json` must be a pre-rendered JSON value (Histogram/LatencyRecorder/
  // WindowedSeries ToJson() all qualify).
  void HistogramJson(const std::string& name, std::string json);

  // Attaches the Chrome-trace exporter to `trace` when --trace-out was given
  // — only for run 0 (virtual time restarts at 0 for every run, so tracing
  // one keeps the exported timestamps monotonic), and only on the FIRST call
  // (a sweep of many machines traces its first). Returns true iff this call
  // attached.
  bool MaybeAttachTrace(Trace& trace);
  // Exporter when this run is the traced one, nullptr otherwise.
  ChromeTraceExporter* trace_exporter();

 private:
  friend class Harness;
  Run(Harness* harness, uint64_t seed, int index);

  Harness* harness_;
  uint64_t seed_;
  int index_;
  StatsRegistry stats_;
  std::vector<Row> rows_;
  std::vector<std::pair<std::string, std::string>> metrics_;
  std::vector<std::pair<std::string, std::string>> histograms_;
};

class Harness {
 public:
  struct Options {
    // Unknown "--" flags matching one of these prefixes are left in argv for
    // a wrapped framework to consume (e.g. "--benchmark_" for
    // google-benchmark binaries, or a benchmark's own "--scenario="). Flags
    // matching nothing are rejected with usage and exit(2).
    std::vector<std::string> passthrough_prefixes;
    // Benchmarks built on frameworks with process-global state cannot fan
    // out; false rejects --seeds/--jobs values other than 1.
    bool allow_parallel = true;
  };

  // Parses and removes the harness flags from argc/argv. Malformed or
  // unknown flags print usage and exit(2); passthrough-prefixed flags and
  // positional arguments are left in place for the benchmark (or its
  // framework) to consume.
  Harness(std::string benchmark_name, int& argc, char** argv);
  Harness(std::string benchmark_name, int& argc, char** argv, Options options);

  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  // The benchmark's base seed: `fallback` unless --seed was given. Also
  // records the value for the "seed" field of the result file.
  uint64_t SeedOr(uint64_t fallback);

  Scale scale() const { return scale_; }
  bool quick() const { return scale_ == Scale::kQuick; }
  bool json_requested() const { return !json_path_.empty(); }
  int num_seeds() const { return num_seeds_; }
  // Worker threads requested via --jobs (0 = one per hardware thread).
  int jobs() const { return jobs_; }

  // Records a benchmark parameter into the "params" block (shared by every
  // repetition; call before RunAll).
  void Param(const std::string& key, int64_t v);
  void Param(const std::string& key, int v) { Param(key, static_cast<int64_t>(v)); }
  void Param(const std::string& key, double v);
  void Param(const std::string& key, const std::string& v);
  void Param(const std::string& key, bool v);

  // Runs `body` once per seed (base = SeedOr(fallback_seed), then
  // base+1, ...) on a BatchRunner with --jobs workers. Each invocation gets
  // its own Run; results aggregate by run index, so the output is
  // independent of --jobs. Call once; mutually exclusive with the
  // single-run sinks below.
  void RunAll(uint64_t fallback_seed, const std::function<void(Run&)>& body);

  // Single-run compatibility sinks for benchmarks that cannot fan out
  // (frameworks with global state, LOC counters): forward to an implicit
  // lone Run. Mutually exclusive with RunAll.
  Row& AddRow();
  void Metric(const std::string& name, double v);
  void Metric(const std::string& name, int64_t v);
  void HistogramJson(const std::string& name, std::string json);
  bool MaybeAttachTrace(Trace& trace);
  ChromeTraceExporter* trace_exporter() { return exporter_.get(); }

  // Writes the result file(s) (--json) and the trace (--trace-out). Returns
  // the process exit code (non-zero on I/O failure or an empty trace). Call
  // once, at the end of main.
  int Finish();

 private:
  friend class Run;

  Run& DefaultRun();
  bool AttachTrace(const Run& run, Trace& trace);
  // Renders one run's "series"/"metrics"/"histograms"/"stats" blocks. A
  // non-negative `wall_clock_s` is spliced in as the first metric (top-level
  // document only — per-seed files must stay --jobs-independent).
  void AppendRunBlocks(JsonWriter& w, const Run& run,
                       double wall_clock_s = -1) const;
  void AppendAggregateBlocks(JsonWriter& w) const;
  void AppendDocHeader(JsonWriter& w, uint64_t seed) const;
  int WriteJsonFile(const std::string& path, const std::string& json) const;
  // The --json path with ".seed<SEED>" spliced in before the extension.
  std::string SeedPath(uint64_t seed) const;

  std::string name_;
  Options options_;
  std::string json_path_;
  std::string trace_path_;
  Scale scale_ = Scale::kPaper;
  int num_seeds_ = 1;
  int jobs_ = 1;
  bool seed_overridden_ = false;
  uint64_t seed_override_ = 0;
  uint64_t seed_used_ = 0;
  bool seed_recorded_ = false;
  bool ran_all_ = false;
  bool finished_ = false;
  bool record_wall_clock_ = false;
  double wall_clock_s_ = 0;
  std::chrono::steady_clock::time_point start_ = std::chrono::steady_clock::now();

  std::vector<std::pair<std::string, std::string>> params_;
  std::vector<std::unique_ptr<Run>> runs_;
  std::unique_ptr<ChromeTraceExporter> exporter_;
  bool trace_attached_ = false;
};

}  // namespace bench
}  // namespace gs

#endif  // GHOST_SIM_BENCH_HARNESS_H_
