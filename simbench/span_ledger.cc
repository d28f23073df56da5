#include "span_ledger.h"

#include <cstdio>

#include "src/base/json.h"

namespace simbench {
namespace {

const char* KindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kSetupStep: return "setup";
    case SpanKind::kSlice: return "slice";
    case SpanKind::kRunAgent: return "RunAgent";
    case SpanKind::kSubmit: return "Submit";
    case SpanKind::kComplete: return "complete";
    case SpanKind::kParse: return "ScenarioSpec::Parse";
    case SpanKind::kClusterBuild: return "Cluster::Cluster";
    case SpanKind::kClusterRun: return "Cluster::Run";
    case SpanKind::kCount: break;
  }
  return "?";
}

}  // namespace

Layer LayerOf(SpanKind kind) {
  switch (kind) {
    case SpanKind::kSlice: return Layer::kSim;
    case SpanKind::kRunAgent: return Layer::kAgent;
    case SpanKind::kSubmit:
    case SpanKind::kComplete: return Layer::kWorkloads;
    case SpanKind::kParse: return Layer::kScenario;
    case SpanKind::kClusterBuild:
    case SpanKind::kClusterRun: return Layer::kFleet;
    case SpanKind::kSetupStep:
    case SpanKind::kCount: break;
  }
  return Layer::kSetup;
}

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kSim: return "sim";
    case Layer::kAgent: return "agent";
    case Layer::kWorkloads: return "workloads";
    case Layer::kFleet: return "fleet";
    case Layer::kScenario: return "scenario";
    case Layer::kSetup: return "setup";
    case Layer::kCount: break;
  }
  return "?";
}

void SpanLedger::Begin(SpanKind kind, const char* name, uint64_t request_id) {
  const int64_t now = HostNowNs();
  // Agent and workload spans outside a slice (warm-up, drain) are counted
  // but not kept, so the trace file shows set-up and the measured window.
  const bool inside_window = !stack_.empty() || (kind != SpanKind::kRunAgent &&
                                                 kind != SpanKind::kSubmit &&
                                                 kind != SpanKind::kComplete);
  int64_t kept = -1;
  if (inside_window && kept_.size() < keep_limit_) {
    const int64_t parent = stack_.empty() ? -1 : stack_.back().kept;
    kept = static_cast<int64_t>(kept_.size());
    kept_.push_back(Kept{name != nullptr ? name : KindName(kind), kind, now, now,
                         parent, request_id});
  } else {
    ++not_kept_;
  }
  stack_.push_back(Open{kind, now, 0, kept});
}

void SpanLedger::End() {
  const int64_t now = HostNowNs();
  const Open open = stack_.back();
  stack_.pop_back();
  const int64_t duration = now - open.start_ns;
  KindTotals& t = totals_[static_cast<size_t>(open.kind)];
  ++t.count;
  t.inclusive_ns += duration;
  t.self_ns += duration - open.child_ns;
  if (!stack_.empty()) {
    stack_.back().child_ns += duration;
  }
  if (open.kept >= 0) {
    kept_[static_cast<size_t>(open.kept)].end_ns = now;
  }
}

int64_t SpanLedger::LayerSelfNs(Layer layer) const {
  int64_t total = 0;
  for (size_t k = 0; k < totals_.size(); ++k) {
    if (LayerOf(static_cast<SpanKind>(k)) == layer) {
      total += totals_[k].self_ns;
    }
  }
  return total;
}

bool SpanLedger::WriteChromeTrace(const std::string& path) const {
  const int64_t origin = kept_.empty() ? 0 : kept_.front().start_ns;
  auto us = [origin](int64_t ns) { return static_cast<double>(ns - origin) / 1e3; };
  gs::JsonWriter w;
  w.BeginObject();
  w.Key("traceEvents");
  w.BeginArray();
  w.BeginObject();
  w.KV("name", "process_name");
  w.KV("ph", "M");
  w.KV("pid", 1);
  w.Key("args");
  w.BeginObject();
  w.KV("name", "simbench host spans");
  w.EndObject();
  w.EndObject();
  for (size_t i = 0; i < kept_.size(); ++i) {
    const Kept& s = kept_[i];
    w.BeginObject();
    w.KV("name", s.name);
    w.KV("cat", LayerName(LayerOf(s.kind)));
    w.KV("ph", "X");
    w.KV("ts", us(s.start_ns));
    w.KV("dur", static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    w.KV("pid", 1);
    w.KV("tid", 1);
    w.Key("args");
    w.BeginObject();
    w.KV("span", static_cast<int64_t>(i));
    w.KV("parent", s.parent);
    if (s.request_id != 0) {
      w.KV("request", s.request_id);
    }
    w.EndObject();
    w.EndObject();
    // A request's Submit and completion spans are joined by a flow arrow.
    if (s.request_id != 0 &&
        (s.kind == SpanKind::kSubmit || s.kind == SpanKind::kComplete)) {
      w.BeginObject();
      w.KV("name", "request");
      w.KV("cat", "workloads");
      w.KV("ph", s.kind == SpanKind::kSubmit ? "s" : "f");
      if (s.kind == SpanKind::kComplete) {
        w.KV("bp", "e");
      }
      w.KV("id", s.request_id);
      w.KV("ts", us(s.start_ns));
      w.KV("pid", 1);
      w.KV("tid", 1);
      w.EndObject();
    }
  }
  w.EndArray();
  w.KV("displayTimeUnit", "ns");
  w.Key("otherData");
  w.BeginObject();
  w.KV("spans_kept", static_cast<uint64_t>(kept_.size()));
  w.KV("spans_not_kept", not_kept_);
  w.EndObject();
  w.EndObject();

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const std::string& text = w.str();
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace simbench
