// simbench: host-speed benchmark of the simulator on three fixed workloads.
//
//   simbench --input <file> --seconds <n> --trace <0|1> [--trace-out <path>]
//
// The input file is produced by run.py from the workload seed. Its first line
// is a JSON object of workload parameters; the rest is the generated input:
// per-worker start offsets (txn_storm), the request arrival list (tail_rpc) or
// the scenario spec (fleet_rpc). The program draws no random numbers itself.
//
// One repetition ("rep") builds the simulated system, warms it up, advances a
// fixed simulated window and checks the outcome. Reps repeat until --seconds
// of host time have passed, and every rep of one input must produce the same
// simulated-outcome digest. Host-time metrics are medians over reps, except
// sim_s_per_wall_s (see WindowHostS).
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates untraced reps
// with traced reps (stats registry on, host-time spans around every call the
// benchmark makes into a layer) and prints the per-layer metrics; the spans
// are written to --trace-out as a Chrome-trace file.
//
// The last stdout line is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "span_ledger.h"
#include "src/agent/agent_process.h"
#include "src/base/json.h"
#include "src/fleet/cluster.h"
#include "src/policies/factory.h"
#include "src/scenario/scenario.h"
#include "src/scenario/scenario_runner.h"
#include "src/sim/simulation.h"
#include "src/verify/invariants.h"
#include "src/workloads/request_service.h"

namespace simbench {
namespace {

using gs::Duration;
using gs::Time;

constexpr size_t kKeptSpans = 100'000;

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "simbench: %s\n", message.c_str());
  std::exit(2);
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Nearest-rank percentile; p = 0 gives the minimum.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  return v[std::clamp<size_t>(static_cast<size_t>(rank), 1, v.size()) - 1];
}

uint64_t Fnv1a(const std::string& text) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : text) {
    h = (h ^ c) * 1099511628211ULL;
  }
  return h;
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

// Peak resident memory of this program image. VmHWM restarts at exec, unlike
// getrusage's ru_maxrss, which would also count the launching process.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // reported in kB
    }
  }
  Die("VmHWM not found in /proc/self/status");
}

// ---- Input -------------------------------------------------------------------

struct Input {
  gs::JsonValue params;
  std::string body;  // everything after the first line

  double Num(const std::string& key) const {
    const gs::JsonValue* v = params.Find(key);
    if (v == nullptr || !v->is_number()) {
      Die("input parameter \"" + key + "\" missing or not a number");
    }
    return v->number;
  }
  std::string Str(const std::string& key) const {
    const gs::JsonValue* v = params.Find(key);
    if (v == nullptr || !v->is_string()) {
      Die("input parameter \"" + key + "\" missing or not a string");
    }
    return v->string;
  }
  // Every buffer of the parse is sized once, so that peak memory follows the
  // input's length rather than the power of two a growing vector rounds it
  // up to: tail_rpc's arrival list sits near such a step, and a few more
  // arrivals would otherwise add megabytes to peak_rss_mb.
  std::vector<int64_t> Ints() const {
    size_t tokens = 0;
    for (size_t i = 0; i < body.size(); ++i) {
      if (!std::isspace(static_cast<unsigned char>(body[i])) &&
          (i == 0 || std::isspace(static_cast<unsigned char>(body[i - 1])))) {
        ++tokens;
      }
    }
    std::vector<int64_t> out;
    out.reserve(tokens);
    const char* p = body.c_str();
    while (true) {
      while (std::isspace(static_cast<unsigned char>(*p))) {
        ++p;
      }
      if (*p == '\0') {
        return out;
      }
      char* end = nullptr;
      errno = 0;
      const long long x = std::strtoll(p, &end, 10);
      if (end == p || errno != 0 ||
          (*end != '\0' && !std::isspace(static_cast<unsigned char>(*end)))) {
        Die("input body holds a non-integer token");
      }
      out.push_back(x);
      p = end;
    }
  }
};

Input LoadInput(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    Die("cannot read input " + path);
  }
  std::string first;
  std::getline(file, first);
  Input input;
  std::string error;
  std::optional<gs::JsonValue> params = gs::JsonValue::Parse(first, &error);
  if (!params || !params->is_object()) {
    Die("input header is not a JSON object: " + error);
  }
  input.params = std::move(*params);
  const std::streampos body_start = file.tellg();
  file.seekg(0, std::ios::end);
  input.body.resize(static_cast<size_t>(file.tellg() - body_start));
  file.seekg(body_start);
  if (!file.read(input.body.data(), static_cast<std::streamsize>(input.body.size()))) {
    Die("cannot read input " + path);
  }
  return input;
}

// ---- What one rep reports ------------------------------------------------------

// Untraced reps give the end-to-end metrics. A traced run alternates them with
// traced reps and, for fleet_rpc, traced reps of the same spec on one job, so
// that all phases see the same host load.
enum class Phase { kUntraced, kTraced, kSerial };

const char* PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kUntraced: return "untraced";
    case Phase::kTraced: return "traced";
    case Phase::kSerial: return "traced-j1";
  }
  return "?";
}

struct Rep {
  Phase phase = Phase::kUntraced;
  double setup_s = 0;
  double window_host_s = 0;
  double window_sim_s = 0;
  std::vector<double> slice_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;
  double kops = 0;
  double p50_us = 0;
  double p99_us = 0;
  int64_t latency_samples = 0;
  std::string outcome;  // human-readable simulated outcome
  uint64_t digest = 0;
  // Per-layer values: simulated counts and, in traced reps, host times.
  std::map<std::string, double> layer;

  void Check(bool ok, const std::string& what) {
    if (!ok) {
      problems.push_back(what);
    }
  }
};

// Exact simulated latencies of the window's operations, in nanoseconds.
class Latencies {
 public:
  void Reset() { ns_.clear(); }
  void Reserve(size_t samples) { ns_.reserve(samples); }
  void Add(Duration latency) { ns_.push_back(latency); }

  // Fills the rep's percentiles (nearest rank) and returns the digest fields,
  // which cover every sample.
  std::string Summarize(Rep& rep) {
    std::sort(ns_.begin(), ns_.end());
    uint64_t hash = 1469598103934665603ULL;
    for (Duration v : ns_) {
      hash = (hash ^ static_cast<uint64_t>(v)) * 1099511628211ULL;
    }
    rep.latency_samples = static_cast<int64_t>(ns_.size());
    rep.p50_us = static_cast<double>(At(50)) / 1e3;
    rep.p99_us = static_cast<double>(At(99)) / 1e3;
    char text[200];
    std::snprintf(text, sizeof(text),
                  "latency_ns n=%zu p50=%" PRId64 " p90=%" PRId64 " p99=%" PRId64
                  " p99.9=%" PRId64 " max=%" PRId64 " hash=%016" PRIx64,
                  ns_.size(), At(50), At(90), At(99), At(99.9), At(100), hash);
    return text;
  }

 private:
  Duration At(double p) const {
    if (ns_.empty()) {
      return 0;
    }
    const double rank = std::ceil(p / 100.0 * static_cast<double>(ns_.size()));
    return ns_[std::clamp<size_t>(static_cast<size_t>(rank), 1, ns_.size()) - 1];
  }

  std::vector<Duration> ns_;
};

// ---- Single-machine workloads ----------------------------------------------------

// Forwards every call to the factory-built policy and counts its iterations
// from outside (traced mode only).
class LedgerPolicy : public gs::Policy {
 public:
  LedgerPolicy(std::unique_ptr<gs::Policy> inner, SpanLedger* ledger)
      : inner_(std::move(inner)), ledger_(ledger) {}

  const char* name() const override { return inner_->name(); }
  void Attached(gs::AgentProcess* process, gs::Enclave* enclave,
                gs::Kernel* kernel) override {
    enclave_ = enclave;
    inner_->Attached(process, enclave, kernel);
  }
  void Restore(const std::vector<gs::Enclave::TaskInfo>& dump) override {
    inner_->Restore(dump);
  }
  gs::AgentAction RunAgent(gs::AgentContext& ctx) override {
    const uint64_t committed = enclave_->txns_committed();
    gs::AgentAction action;
    {
      Span span(ledger_, SpanKind::kRunAgent);
      action = inner_->RunAgent(ctx);
    }
    ++iterations_;
    if (enclave_->txns_committed() != committed) {
      ++useful_iterations_;
    }
    depth_max_ = std::max(depth_max_, inner_->RunqueueDepth());
    return action;
  }
  int RunqueueDepth() const override { return inner_->RunqueueDepth(); }

  void ResetCounts() {
    iterations_ = 0;
    useful_iterations_ = 0;
    depth_max_ = -1;
  }
  uint64_t iterations() const { return iterations_; }
  uint64_t useful_iterations() const { return useful_iterations_; }
  int depth_max() const { return depth_max_; }

 private:
  std::unique_ptr<gs::Policy> inner_;
  SpanLedger* ledger_;
  gs::Enclave* enclave_ = nullptr;
  uint64_t iterations_ = 0;
  uint64_t useful_iterations_ = 0;
  int depth_max_ = -1;
};

// Common frame: a SimulationContext with one enclave and one agent process
// running a factory-built policy. Subclasses add the workload.
class SingleMachine {
 public:
  virtual ~SingleMachine() = default;

  // Builds the system; `ledger` (may be null) receives setup-step spans and,
  // through the forwarding policy, RunAgent spans.
  virtual void Build(SpanLedger* ledger, bool enable_stats) = 0;
  // Called at each slice boundary inside the window.
  virtual void SampleSlice(Rep& rep) {}
  // Marks the window start: latency and throughput count from here.
  virtual void BeginWindow(Time start, Time end) = 0;
  // Fills ops, latency and the workload's own checks after the drain, and
  // returns the workload's part of the simulated-outcome digest.
  virtual std::string Finish(Rep& rep) = 0;

  gs::SimulationContext& ctx() { return *ctx_; }
  gs::Enclave& enclave() { return *enclave_; }
  LedgerPolicy* ledger_policy() { return ledger_policy_; }

 protected:
  void BuildAgent(SpanLedger* ledger, gs::SimulationContext::Options options,
                  const gs::CpuMask& cpus, const gs::scenario::PolicySpec& spec,
                  const gs::PolicyEnv& env) {
    {
      Span span(ledger, SpanKind::kSetupStep, "SimulationContext");
      ctx_ = std::make_unique<gs::SimulationContext>(std::move(options));
    }
    {
      Span span(ledger, SpanKind::kSetupStep, "CreateEnclave");
      enclave_ = ctx_->CreateEnclave(cpus);
    }
    Span span(ledger, SpanKind::kSetupStep, "AgentProcess::Start");
    std::unique_ptr<gs::Policy> policy = gs::MakeScenarioPolicy(spec, env);
    if (ledger != nullptr) {
      auto forwarding = std::make_unique<LedgerPolicy>(std::move(policy), ledger);
      ledger_policy_ = forwarding.get();
      policy = std::move(forwarding);
    }
    process_ = ctx_->CreateAgentProcess(enclave_.get(), std::move(policy));
    process_->Start();
  }

 private:
  // Declaration order is destruction order in reverse: the process goes
  // before its enclave, and both before the context that owns the kernel.
  std::unique_ptr<gs::SimulationContext> ctx_;
  std::unique_ptr<gs::Enclave> enclave_;
  std::unique_ptr<gs::AgentProcess> process_;
  LedgerPolicy* ledger_policy_ = nullptr;
};

// txn_storm: fig5's peak point. Skylake-112, a centralized_fifo global agent
// on CPU 0 over `cpus` CPUs in fig5's fill order, and closed-loop workers that
// run a burst, block, and wake again `rewake_ns` later.
class TxnStorm : public SingleMachine {
 public:
  // Parsed once per run and shared by every rep.
  struct Config {
    int cpus;
    Duration burst;
    Duration rewake;
    uint64_t seed;
    std::vector<int64_t> offsets;  // each worker's first wake-up time

    static Config Parse(const Input& input) {
      Config c{static_cast<int>(input.Num("cpus")),
               static_cast<Duration>(input.Num("burst_ns")),
               static_cast<Duration>(input.Num("rewake_ns")),
               static_cast<uint64_t>(input.Num("seed")), input.Ints()};
      if (c.offsets.empty() || c.offsets.size() > 100'000 || c.burst <= 0 || c.rewake < 0 ||
          *std::min_element(c.offsets.begin(), c.offsets.end()) < 0) {
        Die("txn_storm: need 1..100000 non-negative worker start offsets and a positive burst");
      }
      return c;
    }
  };

  explicit TxnStorm(const Config& config) : config_(config) {}

  void Build(SpanLedger* ledger, bool enable_stats) override {
    gs::SimulationContext::Options options;
    options.topology = gs::Topology::IntelSkylake112();
    options.seed = config_.seed;
    options.enable_stats = enable_stats;
    const gs::CpuMask cpus = EnclaveCpus(options.topology);
    gs::scenario::PolicySpec spec;
    spec.kind = "centralized_fifo";
    spec.global_cpu = kAgentCpu;
    spec.timeslice_us = 0;
    BuildAgent(ledger, std::move(options), cpus, spec, gs::PolicyEnv{});

    Span span(ledger, SpanKind::kSetupStep, "workers");
    gs::Kernel& kernel = ctx().kernel();
    workers_.assign(config_.offsets.size(), Worker{});
    for (size_t i = 0; i < config_.offsets.size(); ++i) {
      Worker* w = &workers_[i];
      w->owner = this;
      w->task = kernel.CreateTask("spin/" + std::to_string(i));
      enclave().AddTask(w->task);
      ctx().loop().ScheduleAt(config_.offsets[i], [w] { w->owner->WakeWorker(w); });
    }
  }

  void BeginWindow(Time start, Time end) override {
    window_start_ = start;
    window_end_ = end;
    latencies_.Reset();
    for (Worker& w : workers_) {
      w.window_bursts = 0;
    }
  }

  std::string Finish(Rep& rep) override {
    int idle_workers = 0;
    for (const Worker& w : workers_) {
      idle_workers += w.window_bursts == 0 ? 1 : 0;
    }
    rep.Check(idle_workers == 0,
              std::to_string(idle_workers) + " workers completed no burst in the window");
    // Closed-loop conservation: every started burst completed or is one of
    // the at most one-per-worker bursts still in flight.
    rep.Check(started_ >= completed_ && started_ - completed_ <= workers_.size(),
              "burst conservation: started " + std::to_string(started_) +
                  ", completed " + std::to_string(completed_));
    return "bursts=" + std::to_string(completed_) + " " + latencies_.Summarize(rep);
  }

 private:
  static constexpr int kAgentCpu = 0;

  struct Worker {
    TxnStorm* owner = nullptr;
    gs::Task* task = nullptr;
    Time woke = 0;
    int64_t window_bursts = 0;
  };

  // Agent CPU first, then `cpus` CPUs in fig5's order: the agent's socket
  // cores, its hyperthreads (agent's sibling included), then the remote
  // socket's cores and hyperthreads.
  gs::CpuMask EnclaveCpus(const gs::Topology& topo) const {
    std::vector<int> order;
    const int agent_numa = topo.cpu(kAgentCpu).numa;
    auto add = [&](bool primary, int numa) {
      for (const gs::CpuInfo& cpu : topo.cpus()) {
        if (cpu.id != kAgentCpu && cpu.numa == numa && (cpu.smt_index == 0) == primary) {
          order.push_back(cpu.id);
        }
      }
    };
    add(true, agent_numa);
    add(false, agent_numa);
    for (int numa = 0; numa < topo.num_numa_nodes(); ++numa) {
      if (numa != agent_numa) {
        add(true, numa);
        add(false, numa);
      }
    }
    if (config_.cpus < 1 || config_.cpus > static_cast<int>(order.size())) {
      Die("txn_storm: cpus out of range");
    }
    gs::CpuMask mask = gs::CpuMask::Single(kAgentCpu);
    for (int i = 0; i < config_.cpus; ++i) {
      mask.Set(order[i]);
    }
    return mask;
  }

  void WakeWorker(Worker* w) {
    gs::Kernel& kernel = ctx().kernel();
    ++started_;
    w->woke = kernel.now();
    kernel.StartBurst(w->task, config_.burst, [w](gs::Task*) { w->owner->BurstDone(w); });
    kernel.Wake(w->task);
  }

  void BurstDone(Worker* w) {
    gs::Kernel& kernel = ctx().kernel();
    ++completed_;
    if (w->woke >= window_start_ && w->woke < window_end_) {
      latencies_.Add(kernel.now() - w->woke);
      ++w->window_bursts;
    }
    kernel.Block(w->task);
    kernel.loop()->ScheduleAfter(config_.rewake, [w] { w->owner->WakeWorker(w); });
  }

  const Config& config_;
  std::vector<Worker> workers_;
  uint64_t started_ = 0;
  uint64_t completed_ = 0;
  Time window_start_ = 0;
  Time window_end_ = 0;
  Latencies latencies_;
};

// tail_rpc: fig6's ghOSt-Shinjuku setup. E5-24, the shinjuku policy with its
// global agent on CPU 1, a ThreadPoolServer whose workers run on the 20
// hyperthreads outside cores 0 and 1, fed the pre-generated arrival list.
class TailRpc : public SingleMachine {
 public:
  struct Arrival {
    Time at;
    Duration service;
  };

  // Parsed once per run and shared by every rep.
  struct Config {
    int workers;
    double timeslice_us;
    uint64_t seed;
    std::vector<Arrival> arrivals;

    static Config Parse(const Input& input) {
      Config c{static_cast<int>(input.Num("workers")), input.Num("timeslice_us"),
               static_cast<uint64_t>(input.Num("seed")), {}};
      const std::vector<int64_t> ints = input.Ints();
      if (c.workers < 1 || ints.empty() || ints.size() % 2 != 0) {
        Die("tail_rpc: need workers and a list of (time_ns, service_ns) pairs");
      }
      Time last = 0;
      c.arrivals.reserve(ints.size() / 2);
      for (size_t i = 0; i < ints.size(); i += 2) {
        if (ints[i] < last || ints[i + 1] <= 0) {
          Die("tail_rpc: arrivals must be time-ordered with positive service");
        }
        last = ints[i];
        c.arrivals.push_back(Arrival{ints[i], ints[i + 1]});
      }
      return c;
    }
  };

  explicit TailRpc(const Config& config) : config_(config) {}

  void Build(SpanLedger* ledger, bool enable_stats) override {
    ledger_ = ledger;
    gs::SimulationContext::Options options;
    options.topology = gs::Topology::IntelE5_24();
    // fig6's service times already include SMT effects.
    options.cost.smt_contention_factor = 1.0;
    options.cost.agent_smt_contention_factor = 1.0;
    options.seed = config_.seed;
    options.enable_stats = enable_stats;
    gs::CpuMask cpus = ServerCpus();
    cpus.Set(kAgentCpu);
    gs::scenario::PolicySpec spec;
    spec.kind = "shinjuku";
    spec.timeslice_us = config_.timeslice_us;
    gs::PolicyEnv env;
    env.default_global_cpu = kAgentCpu;
    BuildAgent(ledger, std::move(options), cpus, spec, env);

    Span span(ledger, SpanKind::kSetupStep, "workers");
    server_ = std::make_unique<gs::ThreadPoolServer>(
        &ctx().kernel(), gs::ThreadPoolServer::Options{.num_workers = config_.workers});
    for (gs::Task* worker : server_->workers()) {
      enclave().AddTask(worker);
    }
    next_ = 0;
    ScheduleNextArrival();
  }

  void SampleSlice(Rep& rep) override {
    double& pending = rep.layer["workloads.pending_max"];
    pending = std::max(pending, static_cast<double>(server_->pending()));
    const double free_workers = server_->free_workers();
    auto it = rep.layer.find("workloads.free_workers_min");
    if (it == rep.layer.end() || free_workers < it->second) {
      rep.layer["workloads.free_workers_min"] = free_workers;
    }
  }

  void BeginWindow(Time start, Time end) override {
    window_start_ = start;
    window_end_ = end;
    latencies_.Reset();
    // At most one sample per arrival in the window.
    const auto by_time = [](const Arrival& a, Time t) { return a.at < t; };
    const auto first = std::lower_bound(config_.arrivals.begin(), config_.arrivals.end(),
                                        start, by_time);
    latencies_.Reserve(static_cast<size_t>(
        std::lower_bound(first, config_.arrivals.end(), end, by_time) - first));
    window_arrivals_ = 0;
    window_completed_ = 0;
  }

  std::string Finish(Rep& rep) override {
    const int64_t in_service = config_.workers - server_->free_workers();
    const int64_t pending = static_cast<int64_t>(server_->pending());
    const int64_t generated = static_cast<int64_t>(next_);
    rep.Check(generated == server_->completed() + pending + in_service + server_->dropped(),
              "request conservation: generated " + std::to_string(generated) +
                  " != completed " + std::to_string(server_->completed()) + " + pending " +
                  std::to_string(pending) + " + in service " + std::to_string(in_service) +
                  " + dropped " + std::to_string(server_->dropped()));
    rep.layer["workloads.dropped"] = static_cast<double>(server_->dropped());
    // Requests that arrived in the window and did not complete by the end of
    // the drain were dropped, lost or stuck: each counts as failed.
    rep.attempted = window_arrivals_;
    rep.failed = window_arrivals_ - window_completed_;
    rep.kops = static_cast<double>(window_completed_) /
               gs::ToSeconds(window_end_ - window_start_) / 1e3;
    return "generated=" + std::to_string(next_) +
           " completed=" + std::to_string(server_->completed()) +
           " window_arrivals=" + std::to_string(window_arrivals_) + " " +
           latencies_.Summarize(rep);
  }

 private:
  static constexpr int kAgentCpu = 1;

  // Core 0 (CPUs 0, 12) is the load generator's and core 1 (CPUs 1, 13) the
  // agent's; requests run on the remaining 20 hyperthreads.
  static gs::CpuMask ServerCpus() {
    gs::CpuMask mask;
    for (int cpu = 2; cpu <= 11; ++cpu) {
      mask.Set(cpu);
    }
    for (int cpu = 14; cpu <= 23; ++cpu) {
      mask.Set(cpu);
    }
    return mask;
  }

  // One arrival event outstanding at a time, like PoissonLoadGen.
  void ScheduleNextArrival() {
    if (next_ < config_.arrivals.size()) {
      ctx().loop().ScheduleAt(config_.arrivals[next_].at, [this] { OnArrival(); });
    }
  }

  void OnArrival() {
    const Arrival& a = config_.arrivals[next_];
    const uint64_t id = ++next_;
    const Time at = a.at;
    if (at >= window_start_ && at < window_end_) {
      ++window_arrivals_;
    }
    {
      Span span(ledger_, SpanKind::kSubmit, nullptr, id);
      server_->Submit(at, a.service,
                      [this, id, at](Time, Duration latency) { OnComplete(id, at, latency); });
    }
    ScheduleNextArrival();
  }

  void OnComplete(uint64_t id, Time arrival, Duration latency) {
    Span span(ledger_, SpanKind::kComplete, nullptr, id);
    if (arrival >= window_start_ && arrival < window_end_) {
      latencies_.Add(latency);
      ++window_completed_;
    }
  }

  const Config& config_;
  SpanLedger* ledger_ = nullptr;
  std::unique_ptr<gs::ThreadPoolServer> server_;
  size_t next_ = 0;
  Time window_start_ = 0;
  Time window_end_ = 0;
  uint64_t window_arrivals_ = 0;
  uint64_t window_completed_ = 0;
  Latencies latencies_;
};

struct WindowPlan {
  Duration warmup;
  Duration window;
  Duration drain;
  Duration slice;
};

// Builds and times one system, then drops it; used for extra setup samples.
double SetupOnly(const std::function<std::unique_ptr<SingleMachine>()>& make) {
  std::unique_ptr<SingleMachine> m = make();
  const int64_t t0 = HostNowNs();
  m->Build(nullptr, false);
  const double seconds = Seconds(HostNowNs() - t0);
  // An agent process can only shut down once its agents have been scheduled.
  m->ctx().RunFor(gs::Microseconds(100));
  return seconds;
}

Rep RunSingleMachineRep(const std::function<std::unique_ptr<SingleMachine>()>& make,
                        const WindowPlan& plan, SpanLedger* ledger, bool is_txn_storm) {
  Rep rep;
  std::unique_ptr<SingleMachine> m = make();
  const int64_t setup_start = HostNowNs();
  m->Build(ledger, /*enable_stats=*/ledger != nullptr);
  rep.setup_s = Seconds(HostNowNs() - setup_start);

  gs::SimulationContext& ctx = m->ctx();
  gs::EventLoop& loop = ctx.loop();
  gs::Kernel& kernel = ctx.kernel();
  gs::Enclave& enclave = m->enclave();
  const int num_cpus = kernel.topology().num_cpus();

  loop.RunUntil(plan.warmup);

  // ---- Window start snapshot --------------------------------------------------
  const Time w0 = plan.warmup;
  const Time w1 = plan.warmup + plan.window;
  m->BeginWindow(w0, w1);
  ctx.stats().Reset();
  if (ledger != nullptr) {
    ledger->ResetTotals();
    m->ledger_policy()->ResetCounts();
  }
  const uint64_t events0 = loop.executed_count();
  const uint64_t switches0 = kernel.total_context_switches();
  const uint64_t msgs0 = enclave.messages_posted();
  const uint64_t txns0 = enclave.txns_committed();
  const uint64_t txn_failed0 = enclave.txns_failed();
  const uint64_t wake_sched0 = enclave.queue_wakeups_scheduled();
  const uint64_t wake_coal0 = enclave.queue_wakeups_coalesced();
  uint64_t ticks0 = 0;
  for (int cpu = 0; cpu < num_cpus; ++cpu) {
    ticks0 += kernel.ticks_delivered(cpu);
  }
  Duration busy0 = 0;
  const gs::CpuMask& cpus = enclave.cpus();
  for (int cpu = cpus.First(); cpu >= 0; cpu = cpus.NextAfter(cpu)) {
    busy0 += kernel.CpuBusyTime(cpu);
  }

  // ---- Measured window, in fixed simulated slices ------------------------------
  double pending_max = 0;
  const int64_t window_start = HostNowNs();
  for (Time t = w0; t < w1;) {
    const Time next = std::min(t + plan.slice, w1);
    const int64_t slice_start = HostNowNs();
    {
      Span span(ledger, SpanKind::kSlice);
      loop.RunUntil(next);
    }
    rep.slice_ms.push_back(static_cast<double>(HostNowNs() - slice_start) / 1e6);
    pending_max = std::max(pending_max, static_cast<double>(loop.pending_count()));
    m->SampleSlice(rep);
    t = next;
  }
  rep.window_host_s = Seconds(HostNowNs() - window_start);
  rep.window_sim_s = gs::ToSeconds(plan.window);

  // ---- Window end snapshot ------------------------------------------------------
  const double events = static_cast<double>(loop.executed_count() - events0);
  const double txns = static_cast<double>(enclave.txns_committed() - txns0);
  const double txn_failed = static_cast<double>(enclave.txns_failed() - txn_failed0);
  const double wake_sched =
      static_cast<double>(enclave.queue_wakeups_scheduled() - wake_sched0);
  const double wake_coal =
      static_cast<double>(enclave.queue_wakeups_coalesced() - wake_coal0);
  uint64_t ticks1 = 0;
  for (int cpu = 0; cpu < num_cpus; ++cpu) {
    ticks1 += kernel.ticks_delivered(cpu);
  }
  Duration busy1 = 0;
  for (int cpu = cpus.First(); cpu >= 0; cpu = cpus.NextAfter(cpu)) {
    busy1 += kernel.CpuBusyTime(cpu);
  }
  std::map<std::string, double>& L = rep.layer;
  L["sim.events"] = events;
  L["sim.pending_max"] = pending_max;
  L["kernel.ticks"] = static_cast<double>(ticks1 - ticks0);
  L["kernel.cpu_busy_frac"] = static_cast<double>(busy1 - busy0) /
                              static_cast<double>(plan.window * cpus.Count());
  L["ghost.txn_fail_frac"] = txns + txn_failed > 0 ? txn_failed / (txns + txn_failed) : 0;
  L["ghost.wakeup_coalesce_frac"] =
      wake_sched + wake_coal > 0 ? wake_coal / (wake_sched + wake_coal) : 0;
  const double switches = static_cast<double>(kernel.total_context_switches() - switches0);
  const double msgs = static_cast<double>(enclave.messages_posted() - msgs0);
  if (ledger != nullptr) {
    const int64_t slice_ns = ledger->totals(SpanKind::kSlice).inclusive_ns;
    const int64_t sim_ns = ledger->LayerSelfNs(Layer::kSim);
    const int64_t agent_ns = ledger->LayerSelfNs(Layer::kAgent);
    const int64_t workloads_ns = ledger->LayerSelfNs(Layer::kWorkloads);
    const SpanLedger::KindTotals& run_agent = ledger->totals(SpanKind::kRunAgent);
    L["sim.self_ns_per_event"] = static_cast<double>(sim_ns) / events;
    L["ledger.unaccounted_ns"] =
        static_cast<double>(slice_ns - sim_ns - agent_ns - workloads_ns);
    L["ledger.agent_ms"] = static_cast<double>(agent_ns) / 1e6;
    L["workloads.busy_ms"] = static_cast<double>(workloads_ns) / 1e6;
    L["agent.ns_per_iteration"] =
        run_agent.count > 0 ? static_cast<double>(run_agent.inclusive_ns) /
                                  static_cast<double>(run_agent.count)
                            : 0;
    const LedgerPolicy* policy = m->ledger_policy();
    L["agent.iterations"] = static_cast<double>(policy->iterations());
    L["agent.useful_iteration_frac"] =
        policy->iterations() > 0 ? static_cast<double>(policy->useful_iterations()) /
                                       static_cast<double>(policy->iterations())
                                 : 0;
    L["agent.runqueue_depth_max"] = std::max(0, policy->depth_max());
    const gs::Histogram& commits =
        ctx.stats().GetHistogram("ghost_group_commit_size")->histogram();
    L["ghost.group_commit_p50"] = static_cast<double>(commits.Percentile(50));
  }

  // ---- Drain, then check ----------------------------------------------------------
  loop.RunUntil(w1 + plan.drain);
  const std::string workload_outcome = m->Finish(rep);
  if (is_txn_storm) {
    rep.attempted = static_cast<uint64_t>(txns);
    rep.kops = txns / gs::ToSeconds(plan.window) / 1e3;
  }
  gs::InvariantChecker checker(&kernel);
  checker.Watch(&enclave);
  checker.CheckNow();
  rep.Check(checker.ok(), "invariants: " + checker.Report());
  rep.Check(rep.attempted > 0, "no operation completed in the window");

  const double ops =
      std::max(1.0, is_txn_storm ? txns : static_cast<double>(rep.attempted - rep.failed));
  L["sim.events_per_op"] = events / ops;
  L["kernel.switches_per_op"] = switches / ops;
  L["ghost.msgs_per_op"] = msgs / ops;
  if (ledger != nullptr) {
    L["agent.iterations_per_op"] = L["agent.iterations"] / ops;
  }

  char line[256];
  std::snprintf(line, sizeof(line),
                "events=%" PRIu64 " txns=%" PRIu64 " txn_failed=%" PRIu64
                " switches=%" PRIu64 " msgs=%" PRIu64 " ",
                loop.executed_count(), enclave.txns_committed(), enclave.txns_failed(),
                kernel.total_context_switches(), enclave.messages_posted());
  rep.outcome = line + workload_outcome;
  rep.digest = Fnv1a(rep.outcome);
  return rep;
}

// ---- fleet_rpc ------------------------------------------------------------------------

struct FleetPlan {
  std::string spec_text;
  int jobs;
  double offered_kqps;
  double load_ms;  // arrivals happen in [0, load_ms)
};

Rep RunFleetRep(const FleetPlan& plan, int jobs, SpanLedger* ledger) {
  Rep rep;
  const int64_t t0 = HostNowNs();
  std::optional<gs::scenario::ScenarioSpec> spec;
  std::string error;
  {
    Span span(ledger, SpanKind::kParse);
    spec = gs::scenario::ScenarioSpec::Parse(plan.spec_text, &error);
  }
  if (!spec || !spec->fleet) {
    Die("fleet_rpc: spec does not parse as a fleet scenario: " + error);
  }
  const int64_t t1 = HostNowNs();
  gs::StatsRegistry registry;
  std::unique_ptr<gs::fleet::Cluster> cluster;
  {
    Span span(ledger, SpanKind::kClusterBuild);
    cluster = std::make_unique<gs::fleet::Cluster>(*spec, ledger != nullptr ? &registry : nullptr,
                                                   jobs);
  }
  const int64_t t2 = HostNowNs();
  gs::scenario::ScenarioResult result;
  {
    Span span(ledger, SpanKind::kClusterRun);
    result = cluster->Run();
  }
  const int64_t t3 = HostNowNs();
  rep.setup_s = Seconds(t2 - t0);
  rep.window_host_s = Seconds(t3 - t2);
  rep.window_sim_s = (spec->warmup_ms + spec->measure_ms + spec->drain_ms) / 1e3;

  auto exact = [&result](const std::string& key) -> int64_t {
    auto it = result.exact.find(key);
    if (it == result.exact.end()) {
      Die("fleet_rpc: result has no \"" + key + "\"");
    }
    return it->second;
  };
  auto envelope = [&result](const std::string& key) -> double {
    auto it = result.envelopes.find(key);
    return it == result.envelopes.end() ? 0 : it->second;
  };
  const int64_t generated = exact("generated");
  const int64_t completed = exact("completed");
  const int64_t shed = exact("shed");
  const int64_t lost = generated - completed - shed;
  int64_t dropped = 0;
  for (int m = 0; m < spec->fleet->machines; ++m) {
    dropped += exact("m" + std::to_string(m) + "_dropped");
  }
  rep.Check(exact("invariants_ok") == 1, "fleet invariants failed");
  rep.Check(lost == 0 && dropped == 0,
            "fleet conservation: generated " + std::to_string(generated) + " = completed " +
                std::to_string(completed) + " + shed " + std::to_string(shed) +
                " + in flight " + std::to_string(lost) + " (dropped " +
                std::to_string(dropped) + ")");
  // Every front-end request is an operation; one that was shed, dropped or
  // is still in flight after the drain failed.
  rep.attempted = static_cast<uint64_t>(generated);
  rep.failed = static_cast<uint64_t>(generated - completed);
  // Arrivals stop at load_ms and the drain completes them, so completions
  // divided by the arrival window is the achieved rate.
  rep.kops = static_cast<double>(completed) / plan.load_ms;
  rep.p50_us = envelope("p50_us");
  rep.p99_us = envelope("p99_us");
  rep.latency_samples = completed;

  std::map<std::string, double>& L = rep.layer;
  L["scenario.parse_ms"] = static_cast<double>(t1 - t0) / 1e6;
  L["fleet.build_s"] = Seconds(t2 - t1);
  L["fleet.run_s"] = Seconds(t3 - t2);
  const double ops = std::max<double>(1, static_cast<double>(completed));
  L["fleet.net_msgs_per_op"] = static_cast<double>(exact("net_messages")) / ops;
  L["fleet.net_parked"] = static_cast<double>(exact("net_parked"));
  L["fleet.shed"] = static_cast<double>(shed);
  L["fleet.lb_max_share"] = envelope("lb_max_share");
  if (ledger != nullptr) {
    L["fleet.agent_switches_per_op"] =
        static_cast<double>(
            registry.GetCounter("kernel_context_switch_total", {{"kind", "agent"}})->value()) /
        ops;
  }

  const std::string golden = gs::scenario::RenderGolden(result);
  rep.outcome = golden.substr(0, golden.find_last_not_of('\n') + 1);
  rep.digest = Fnv1a(golden);
  return rep;
}

// ---- Run ---------------------------------------------------------------------------

struct Options {
  std::string input;
  double seconds = 0;
  bool trace = false;
  std::string trace_out;
};

Options ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--input") {
      o.input = value;
    } else if (flag == "--seconds") {
      o.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--trace-out") {
      o.trace_out = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (argc % 2 != 1 || o.input.empty() || o.seconds <= 0) {
    Die("usage: simbench --input <file> --seconds <n> --trace <0|1> [--trace-out <path>]");
  }
  return o;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Run {
 public:
  explicit Run(const Options& options) : options_(options), start_ns_(HostNowNs()) {}

  bool TimeLeft() const { return Seconds(HostNowNs() - start_ns_) < options_.seconds; }

  // Records a rep: checks its digest against the first rep's and folds its
  // failures into the run's counts. A rep that fails any check has all of
  // its operations counted as failed.
  void Add(Phase phase, Rep rep) {
    rep.phase = phase;
    if (reps_.empty()) {
      reference_digest_ = rep.digest;
      std::printf("outcome: %s\n", rep.outcome.c_str());
    }
    rep.Check(rep.digest == reference_digest_, "simulated outcome differs from the first rep");
    if (!rep.problems.empty()) {
      rep.failed = rep.attempted;
      for (const std::string& p : rep.problems) {
        std::printf("FAILED %s rep %zu: %s\n", PhaseName(phase), reps_.size(), p.c_str());
      }
    }
    std::printf("rep %-9s %3zu  setup %.4f s  window %.3f s host / %.3f s sim  digest %016" PRIx64
                "\n",
                PhaseName(phase), reps_.size(), rep.setup_s, rep.window_host_s, rep.window_sim_s,
                rep.digest);
    std::fflush(stdout);
    attempted_ += rep.attempted;
    failed_ += rep.failed;
    correct_ = correct_ && rep.problems.empty();
    reps_.push_back(std::move(rep));
  }

  void Fail(const std::string& why) {
    std::printf("FAILED %s\n", why.c_str());
    correct_ = false;
  }

  const std::vector<Rep>& reps() const { return reps_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  void Print(const std::vector<Metric>& metrics) const {
    for (const Metric& m : metrics) {
      std::printf("metric %-30s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    gs::JsonWriter w;
    w.BeginObject();
    w.KV("correct", correct_);
    w.KV("attempted", attempted_);
    w.KV("failed", failed_);
    w.Key("metrics");
    w.BeginObject();
    for (const Metric& m : metrics) {
      w.Key(m.name);
      w.BeginObject();
      w.KV("value", m.value);
      w.KV("unit", m.unit);
      w.EndObject();
    }
    w.EndObject();
    w.EndObject();
    std::printf("%s\n", w.str().c_str());
  }

 private:
  Options options_;
  int64_t start_ns_;
  std::vector<Rep> reps_;
  uint64_t reference_digest_ = 0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
};

std::vector<double> Collect(const std::vector<const Rep*>& reps,
                            const std::function<double(const Rep&)>& f) {
  std::vector<double> out;
  for (const Rep* r : reps) {
    out.push_back(f(*r));
  }
  return out;
}

// Host seconds the window takes when other tenants of a shared host leave
// it alone. They only ever slow a rep down, for stretches of seconds to
// minutes that can halve the speed, so a median over reps drifts with their
// load. Every rep simulates the same slices; the estimate sums, over the
// slices, each slice's fastest host time across reps. Workloads that cannot
// be sliced from outside (fleet_rpc) take the fastest whole window.
double WindowHostS(const std::vector<const Rep*>& reps) {
  const size_t slices = reps.front()->slice_ms.size();
  if (slices == 0) {
    return Percentile(Collect(reps, [](const Rep& r) { return r.window_host_s; }), 0);
  }
  double ms = 0;
  for (size_t i = 0; i < slices; ++i) {
    ms += Percentile(Collect(reps, [i](const Rep& r) { return r.slice_ms.at(i); }), 0);
  }
  return ms / 1e3;
}

std::vector<Metric> EndToEnd(const Run& run, const std::vector<const Rep*>& reps,
                             const std::vector<double>& setup_samples) {
  const Rep& first = *reps.front();
  const double failed_frac =
      static_cast<double>(run.failed()) / static_cast<double>(std::max<uint64_t>(1, run.attempted()));
  std::printf("latency samples per rep: %" PRId64 "\n", first.latency_samples);
  std::printf("sim_s_per_wall_s: median rep %.4f, fastest slices %.4f\n",
              Median(Collect(reps, [](const Rep& r) { return r.window_sim_s / r.window_host_s; })),
              first.window_sim_s / WindowHostS(reps));
  std::printf("failed_frac %.6f (%" PRIu64 " of %" PRIu64 ")\n", failed_frac, run.failed(),
              run.attempted());
  return {
      {"sim_s_per_wall_s", first.window_sim_s / WindowHostS(reps), "sim-s/s"},
      {"setup_s", Median(setup_samples), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"sim_kops", first.kops, "kops/sim-s"},
      {"sim_p50_us", first.p50_us, "sim-us"},
      {"sim_p99_us", first.p99_us, "sim-us"},
      {"ok_frac", 1.0 - failed_frac, "ratio"},
  };
}

// Every per-layer metric, in BENCHMARK.json order. A layer the workload does
// not exercise reads 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerNames() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"sim.events", "count"},
      {"sim.events_per_op", "events/op"},
      {"sim.slice_ms_p50", "ms"},
      {"sim.slice_ms_p99", "ms"},
      {"sim.pending_max", "count"},
      {"sim.self_ns_per_event", "ns"},
      {"kernel.switches_per_op", "switches/op"},
      {"kernel.ticks", "count"},
      {"kernel.cpu_busy_frac", "ratio"},
      {"ghost.msgs_per_op", "msgs/op"},
      {"ghost.txn_fail_frac", "ratio"},
      {"ghost.wakeup_coalesce_frac", "ratio"},
      {"ghost.group_commit_p50", "txns"},
      {"agent.iterations_per_op", "iters/op"},
      {"agent.ns_per_iteration", "ns"},
      {"agent.useful_iteration_frac", "ratio"},
      {"agent.runqueue_depth_max", "count"},
      {"workloads.busy_ms", "ms"},
      {"workloads.pending_max", "count"},
      {"workloads.free_workers_min", "count"},
      {"workloads.dropped", "count"},
      {"fleet.build_s", "s"},
      {"fleet.run_s", "s"},
      {"fleet.jobs_speedup", "x"},
      {"fleet.net_msgs_per_op", "msgs/op"},
      {"fleet.net_parked", "count"},
      {"fleet.shed", "count"},
      {"fleet.lb_max_share", "ratio"},
      {"fleet.agent_switches_per_op", "switches/op"},
      {"scenario.parse_ms", "ms"},
      {"stats.trace_overhead_frac", "ratio"},
  };
  return names;
}

// Per-layer metrics from the traced reps: simulated counts from the first
// traced rep (they repeat exactly), host times as medians over traced reps.
std::vector<Metric> PerLayer(const std::vector<const Rep*>& untraced,
                             const std::vector<const Rep*>& traced,
                             const std::vector<const Rep*>& serial) {
  const Rep& first = *traced.front();
  std::map<std::string, double> values = first.layer;
  for (const char* timed :
       {"sim.self_ns_per_event", "agent.ns_per_iteration", "workloads.busy_ms",
        "ledger.agent_ms", "ledger.unaccounted_ns", "fleet.build_s", "fleet.run_s",
        "scenario.parse_ms"}) {
    if (values.count(timed) != 0) {
      values[timed] = Median(Collect(traced, [timed](const Rep& r) { return r.layer.at(timed); }));
    }
  }
  std::vector<double> slices;
  for (const Rep* r : untraced) {
    slices.insert(slices.end(), r->slice_ms.begin(), r->slice_ms.end());
  }
  if (!slices.empty()) {
    values["sim.slice_ms_p50"] = Percentile(slices, 50);
    values["sim.slice_ms_p99"] = Percentile(slices, 99);
    std::printf("slices timed: %zu\n", slices.size());
  }
  values["stats.trace_overhead_frac"] = WindowHostS(traced) / WindowHostS(untraced) - 1;
  if (!serial.empty()) {
    values["fleet.jobs_speedup"] = WindowHostS(serial) / WindowHostS(traced);
  }
  if (values.count("ledger.unaccounted_ns") != 0) {
    const double slice_ms = Median(Collect(traced, [](const Rep& r) {
      double s = 0;
      for (double ms : r.slice_ms) s += ms;
      return s;
    }));
    const double sim_ms = values["sim.self_ns_per_event"] * values["sim.events"] / 1e6;
    std::printf("ledger: slice time %.2f ms = sim.self %.2f + agent %.2f + workloads %.2f ms"
                " (unaccounted %.0f ns)\n",
                slice_ms, sim_ms, values["ledger.agent_ms"], values["workloads.busy_ms"],
                values["ledger.unaccounted_ns"]);
  }
  std::vector<Metric> metrics;
  for (const auto& [name, unit] : PerLayerNames()) {
    auto it = values.find(name);
    metrics.push_back({name, it == values.end() ? 0.0 : it->second, unit});
  }
  return metrics;
}

int Main(int argc, char** argv) {
  const Options options = ParseArgs(argc, argv);
  const Input input = LoadInput(options.input);
  const std::string workload = input.Str("workload");
  Run run(options);
  std::vector<double> setup_samples;
  std::unique_ptr<SpanLedger> ledger;
  if (options.trace) {
    ledger = std::make_unique<SpanLedger>(kKeptSpans);
  }

  if (workload == "txn_storm" || workload == "tail_rpc") {
    const bool storm = workload == "txn_storm";
    std::optional<TxnStorm::Config> storm_config;
    std::optional<TailRpc::Config> rpc_config;
    if (storm) {
      storm_config = TxnStorm::Config::Parse(input);
    } else {
      rpc_config = TailRpc::Config::Parse(input);
    }
    std::function<std::unique_ptr<SingleMachine>()> make = [&]() -> std::unique_ptr<SingleMachine> {
      if (storm) {
        return std::make_unique<TxnStorm>(*storm_config);
      }
      return std::make_unique<TailRpc>(*rpc_config);
    };
    const WindowPlan plan{
        static_cast<Duration>(input.Num("warmup_ms") * 1e6),
        static_cast<Duration>(input.Num("window_ms") * 1e6),
        static_cast<Duration>(input.Num("drain_ms") * 1e6),
        static_cast<Duration>(input.Num("slice_us") * 1e3),
    };
    if (plan.window <= 0 || plan.slice <= 0 || plan.warmup < 0 || plan.drain < 0) {
      Die("window_ms and slice_us must be positive");
    }
    if (!storm && input.Num("offered_kqps") <= 0) {
      Die("offered_kqps must be positive");
    }
    do {
      run.Add(Phase::kUntraced, RunSingleMachineRep(make, plan, nullptr, storm));
      if (options.trace) {
        run.Add(Phase::kTraced, RunSingleMachineRep(make, plan, ledger.get(), storm));
      } else {
        // A second set-up sample per rep, spread over the run like the reps.
        setup_samples.push_back(SetupOnly(make));
      }
    } while (run.TimeLeft());
    if (!storm) {
      const double offered = input.Num("offered_kqps");
      const double achieved = run.reps().front().kops;
      std::printf("throughput: achieved %.2f kqps of %.2f offered\n", achieved, offered);
      if (std::abs(achieved / offered - 1) > input.Num("throughput_tolerance")) {
        run.Fail("achieved throughput is not within tolerance of the offered load");
      }
    }
  } else if (workload == "fleet_rpc") {
    const FleetPlan plan{input.body, static_cast<int>(input.Num("jobs")),
                         input.Num("offered_kqps"), input.Num("load_ms")};
    if (plan.jobs < 1 || plan.load_ms <= 0) {
      Die("fleet_rpc: jobs and load_ms must be positive");
    }
    do {
      run.Add(Phase::kUntraced, RunFleetRep(plan, plan.jobs, nullptr));
      if (options.trace) {
        run.Add(Phase::kTraced, RunFleetRep(plan, plan.jobs, ledger.get()));
        // The same spec on one job: Add() requires the outcome to match the
        // parallel reps' exactly.
        run.Add(Phase::kSerial, RunFleetRep(plan, 1, ledger.get()));
      }
    } while (run.TimeLeft());
    const double achieved = run.reps().front().kops;
    std::printf("throughput: achieved %.2f kqps of %.2f offered\n", achieved, plan.offered_kqps);
    if (std::abs(achieved / plan.offered_kqps - 1) > input.Num("throughput_tolerance")) {
      run.Fail("achieved throughput is not within tolerance of the offered load");
    }
  } else {
    Die("unknown workload " + workload);
  }

  std::vector<const Rep*> untraced;
  std::vector<const Rep*> traced;
  std::vector<const Rep*> serial;
  for (const Rep& r : run.reps()) {
    switch (r.phase) {
      case Phase::kUntraced:
        untraced.push_back(&r);
        setup_samples.push_back(r.setup_s);
        break;
      case Phase::kTraced:
        traced.push_back(&r);
        break;
      case Phase::kSerial:
        serial.push_back(&r);
        break;
    }
  }
  if (options.trace) {
    if (!options.trace_out.empty() && !ledger->WriteChromeTrace(options.trace_out)) {
      Die("cannot write " + options.trace_out);
    }
    run.Print(PerLayer(untraced, traced, serial));
  } else {
    run.Print(EndToEnd(run, untraced, setup_samples));
  }
  return 0;
}

}  // namespace
}  // namespace simbench

int main(int argc, char** argv) { return simbench::Main(argc, argv); }
