#include "src/stats/stats.h"

#include <algorithm>

#include "src/base/json.h"
#include "src/base/logging.h"

namespace gs {

std::string StatsRegistry::FullName(const std::string& name, const Labels& labels) {
  if (labels.empty()) {
    return name;
  }
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string full = name + "{";
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0) {
      full += ',';
    }
    full += sorted[i].first + "=" + sorted[i].second;
  }
  full += '}';
  return full;
}

Counter* StatsRegistry::GetCounter(const std::string& name, const Labels& labels) {
  const std::string full = FullName(name, labels);
  CHECK_EQ(gauges_.count(full), 0u) << full << " already registered as a gauge";
  CHECK_EQ(histograms_.count(full), 0u) << full << " already registered as a histogram";
  auto& slot = counters_[full];
  if (slot == nullptr) {
    slot.reset(new Counter(&enabled_));
  }
  return slot.get();
}

Gauge* StatsRegistry::GetGauge(const std::string& name, const Labels& labels) {
  const std::string full = FullName(name, labels);
  CHECK_EQ(counters_.count(full), 0u) << full << " already registered as a counter";
  CHECK_EQ(histograms_.count(full), 0u) << full << " already registered as a histogram";
  auto& slot = gauges_[full];
  if (slot == nullptr) {
    slot.reset(new Gauge(&enabled_));
  }
  return slot.get();
}

HistogramMetric* StatsRegistry::GetHistogram(const std::string& name,
                                             const Labels& labels) {
  const std::string full = FullName(name, labels);
  CHECK_EQ(counters_.count(full), 0u) << full << " already registered as a counter";
  CHECK_EQ(gauges_.count(full), 0u) << full << " already registered as a gauge";
  auto& slot = histograms_[full];
  if (slot == nullptr) {
    slot.reset(new HistogramMetric(&enabled_));
  }
  return slot.get();
}

void StatsRegistry::Reset() {
  for (auto& [name, counter] : counters_) {
    counter->value_ = 0;
  }
  for (auto& [name, gauge] : gauges_) {
    gauge->value_ = 0;
  }
  for (auto& [name, hist] : histograms_) {
    hist->hist_.Reset();
  }
  for (auto& [name, count] : layer_counts_) {
    count = 0;
  }
}

void StatsRegistry::AddLayerCount(const std::string& name, uint64_t n) {
  if (enabled_) {
    layer_counts_[name] += n;
  }
}

void StatsRegistry::AppendLayersJson(JsonWriter& w) const {
  w.BeginObject();
  for (const auto& [name, count] : layer_counts_) {
    w.Key(name);
    w.UInt(count);
  }
  w.EndObject();
}

void StatsRegistry::MergeFrom(const StatsRegistry& other) {
  // Maps are keyed by full name, so metrics transfer without re-deriving
  // labels. Slots are created on demand with this registry's enabled flag.
  for (const auto& [full, counter] : other.counters_) {
    CHECK_EQ(gauges_.count(full), 0u) << full << " already registered as a gauge";
    CHECK_EQ(histograms_.count(full), 0u) << full << " already registered as a histogram";
    auto& slot = counters_[full];
    if (slot == nullptr) {
      slot.reset(new Counter(&enabled_));
    }
    slot->value_ += counter->value_;
  }
  for (const auto& [full, gauge] : other.gauges_) {
    CHECK_EQ(counters_.count(full), 0u) << full << " already registered as a counter";
    CHECK_EQ(histograms_.count(full), 0u) << full << " already registered as a histogram";
    auto& slot = gauges_[full];
    if (slot == nullptr) {
      slot.reset(new Gauge(&enabled_));
    }
    slot->value_ += gauge->value_;
  }
  for (const auto& [full, hist] : other.histograms_) {
    CHECK_EQ(counters_.count(full), 0u) << full << " already registered as a counter";
    CHECK_EQ(gauges_.count(full), 0u) << full << " already registered as a gauge";
    auto& slot = histograms_[full];
    if (slot == nullptr) {
      slot.reset(new HistogramMetric(&enabled_));
    }
    slot->hist_.Merge(hist->hist_);
  }
  for (const auto& [name, count] : other.layer_counts_) {
    layer_counts_[name] += count;
  }
}

void StatsRegistry::AppendJson(JsonWriter& w) const {
  w.BeginObject();
  w.Key("counters");
  w.BeginObject();
  for (const auto& [name, counter] : counters_) {
    w.KV(name, counter->value());
  }
  w.EndObject();
  w.Key("gauges");
  w.BeginObject();
  for (const auto& [name, gauge] : gauges_) {
    w.KV(name, gauge->value());
  }
  w.EndObject();
  w.Key("histograms");
  w.BeginObject();
  for (const auto& [name, hist] : histograms_) {
    w.Key(name);
    w.Raw(hist->histogram().ToJson());
  }
  w.EndObject();
  w.EndObject();
}

std::string StatsRegistry::ToJson() const {
  JsonWriter w;
  AppendJson(w);
  return w.str();
}

}  // namespace gs
