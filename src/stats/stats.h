// Metrics registry: named counters, gauges, and histograms with label
// support, instrumented at the hot seams of the simulated stack.
//
// The paper's §2 argument is that userspace schedulers can finally be
// observed with ordinary tooling. This registry is the simulator's
// equivalent of /proc/schedstat + tracefs counters: the kernel, the ghOSt
// module, agents, policies, and the fault injector register metrics like
// `txn_commit_total{status=ESTALE}` once at construction and bump them on
// the hot path.
//
// Cost contract: metric updates are a pointer-chase plus a predictable
// branch on the registry's enabled flag — *zero side effects* and no
// allocation when disabled (the default). Lookup (`GetCounter` etc.) is a
// map operation intended for construction time only; hot paths must cache
// the returned pointer. Metric objects live as long as the registry and are
// never invalidated by later registrations.
//
// Ownership model: there is no process-wide registry. Every
// SimulationContext owns its registry and hands it to the components it
// constructs (Kernel -> Enclave/AgentProcess, FaultInjector), so independent
// simulations share nothing and can run on concurrent threads. A registry is
// single-threaded, like the context that owns it. Explicit `StatsRegistry*`
// injection is the only path — the transitional GlobalStats()/
// StatsRegistry::Global() shims are gone.
#ifndef GHOST_SIM_SRC_STATS_STATS_H_
#define GHOST_SIM_SRC_STATS_STATS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/base/histogram.h"

namespace gs {

class JsonWriter;
class StatsRegistry;

// Sorted key=value label set, e.g. {{"status", "ESTALE"}}.
using Labels = std::vector<std::pair<std::string, std::string>>;

class Counter {
 public:
  void Inc(int64_t n = 1) {
    if (*enabled_) {
      value_ += n;
    }
  }
  int64_t value() const { return value_; }

 private:
  friend class StatsRegistry;
  explicit Counter(const bool* enabled) : enabled_(enabled) {}
  const bool* enabled_;
  int64_t value_ = 0;
};

class Gauge {
 public:
  void Set(int64_t v) {
    if (*enabled_) {
      value_ = v;
    }
  }
  void Add(int64_t n) {
    if (*enabled_) {
      value_ += n;
    }
  }
  int64_t value() const { return value_; }

 private:
  friend class StatsRegistry;
  explicit Gauge(const bool* enabled) : enabled_(enabled) {}
  const bool* enabled_;
  int64_t value_ = 0;
};

// Distribution metric backed by the log-bucketed Histogram.
class HistogramMetric {
 public:
  void Observe(int64_t v) {
    if (*enabled_) {
      hist_.Add(v);
    }
  }
  const Histogram& histogram() const { return hist_; }

 private:
  friend class StatsRegistry;
  explicit HistogramMetric(const bool* enabled) : enabled_(enabled) {}
  const bool* enabled_;
  Histogram hist_;
};

class StatsRegistry {
 public:
  StatsRegistry() = default;
  StatsRegistry(const StatsRegistry&) = delete;
  StatsRegistry& operator=(const StatsRegistry&) = delete;

  void Enable() { enabled_ = true; }
  void Disable() { enabled_ = false; }
  bool enabled() const { return enabled_; }

  // Returns the metric registered under `name` + `labels`, creating it on
  // first use. Repeated calls with the same name/labels return the same
  // object. A name must stay one kind (counter vs gauge vs histogram);
  // mixing kinds CHECK-fails.
  Counter* GetCounter(const std::string& name, const Labels& labels = {});
  Gauge* GetGauge(const std::string& name, const Labels& labels = {});
  HistogramMetric* GetHistogram(const std::string& name, const Labels& labels = {});

  // Zeroes every metric value (registrations survive).
  void Reset();

  // Folds `other`'s values into this registry: counters/gauges add, histogram
  // buckets merge; metrics missing here are registered first. Used to
  // aggregate per-SimulationContext registries into a sweep-level one
  // (deterministic as long as merge order is deterministic).
  void MergeFrom(const StatsRegistry& other);

  // Deterministic snapshot of every registered metric:
  //   {"counters": {"name{k=v}": 123, ...},
  //    "gauges": {...},
  //    "histograms": {"name": {"count":..,"mean":..,"p50":..,...}, ...}}
  // Key order is sorted; two identical seeded runs produce identical bytes.
  std::string ToJson() const;
  // Same snapshot, spliced into an existing writer in value position.
  void AppendJson(JsonWriter& writer) const;

  // Fully-qualified metric key, e.g. `txn_commit_total{status=ESTALE}`.
  static std::string FullName(const std::string& name, const Labels& labels);

  // Hardware-free work counts of the simulator's own layers, such as the
  // event engine's wheel operations (EventLoopCounters::ExportTo). They stay
  // out of ToJson()/AppendJson(); the bench harness writes them as a result
  // file's "layers" block. Adds are no-ops while disabled; MergeFrom sums
  // them and Reset zeroes them.
  void AddLayerCount(const std::string& name, uint64_t n);
  // {"name": count, ...} in sorted key order, in value position.
  void AppendLayersJson(JsonWriter& writer) const;

 private:
  bool enabled_ = false;
  // Stable addresses: values are unique_ptrs, maps are keyed by full name.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<HistogramMetric>> histograms_;
  std::map<std::string, uint64_t> layer_counts_;
};

}  // namespace gs

#endif  // GHOST_SIM_SRC_STATS_STATS_H_
