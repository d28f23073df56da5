// Host-time spans recorded by the benchmark around its own calls into the
// simulator's layers (traced mode only).
//
// A span has a kind (which fixes its layer), a start and end on the host's
// steady clock, the span that was open when it began (its parent), and an
// optional request id shared by a request's Submit and completion spans.
// Self time is a span's duration minus the durations of its direct children,
// so per-layer self times add up exactly to the root spans' durations.
//
// The ledger accumulates count, inclusive and self time per kind for every
// span. For the Chrome-trace file written at exit it keeps, in memory, the
// first `keep_limit` spans of set-up, the fleet and the measured window.
// Single-threaded: only the benchmark's main thread opens spans.
#ifndef SIMBENCH_SPAN_LEDGER_H_
#define SIMBENCH_SPAN_LEDGER_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace simbench {

enum class Layer { kSim, kAgent, kWorkloads, kFleet, kScenario, kSetup, kCount };

enum class SpanKind {
  kSetupStep,     // one step of building the simulated system (setup)
  kSlice,         // one fixed simulated slice advanced with RunUntil (sim)
  kRunAgent,      // one Policy::RunAgent iteration (agent)
  kSubmit,        // ThreadPoolServer::Submit of one request (workloads)
  kComplete,      // one request's completion callback (workloads)
  kParse,         // ScenarioSpec::Parse (scenario)
  kClusterBuild,  // fleet::Cluster constructor (fleet)
  kClusterRun,    // fleet::Cluster::Run (fleet)
  kCount
};

Layer LayerOf(SpanKind kind);
const char* LayerName(Layer layer);

inline int64_t HostNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanLedger {
 public:
  struct KindTotals {
    uint64_t count = 0;
    int64_t inclusive_ns = 0;
    int64_t self_ns = 0;
  };

  explicit SpanLedger(size_t keep_limit) : keep_limit_(keep_limit) {}

  // `name` must outlive the ledger (string literals); nullptr = kind's name.
  void Begin(SpanKind kind, const char* name = nullptr, uint64_t request_id = 0);
  void End();

  const KindTotals& totals(SpanKind kind) const {
    return totals_[static_cast<size_t>(kind)];
  }
  int64_t LayerSelfNs(Layer layer) const;
  // Zeroes the per-kind totals (kept spans stay for the trace file).
  void ResetTotals() { totals_ = {}; }

  // Writes the kept spans as a Chrome-trace (Perfetto-loadable) JSON file.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Open {
    SpanKind kind;
    int64_t start_ns;
    int64_t child_ns;
    int64_t kept;  // index into kept_, or -1 once the keep limit is reached
  };
  struct Kept {
    const char* name;
    SpanKind kind;
    int64_t start_ns;
    int64_t end_ns;
    int64_t parent;  // index into kept_, or -1
    uint64_t request_id;
  };

  size_t keep_limit_;
  std::vector<Open> stack_;
  std::vector<Kept> kept_;
  uint64_t not_kept_ = 0;
  std::array<KindTotals, static_cast<size_t>(SpanKind::kCount)> totals_{};
};

// RAII span; a null ledger makes it a no-op (the untraced mode).
class Span {
 public:
  Span(SpanLedger* ledger, SpanKind kind, const char* name = nullptr,
       uint64_t request_id = 0)
      : ledger_(ledger) {
    if (ledger_ != nullptr) {
      ledger_->Begin(kind, name, request_id);
    }
  }
  ~Span() {
    if (ledger_ != nullptr) {
      ledger_->End();
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLedger* ledger_;
};

}  // namespace simbench

#endif  // SIMBENCH_SPAN_LEDGER_H_
