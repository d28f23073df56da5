// Open-loop request serving on a pool of native worker threads.
//
// The §4.2 experiment structure: a load generator produces Poisson request
// arrivals; each request occupies one worker thread from a pool (the paper
// uses 200 workers for ghOSt-Shinjuku) for its service time. Idle workers
// block; assigning a request wakes the worker, so *every request costs one
// thread-scheduling decision* — the overhead ghOSt pays relative to the
// Shinjuku dataplane's descriptor passing. The scheduler under test (ghOSt
// policy, CFS, MicroQuanta) is chosen by where the caller puts the worker
// tasks before starting load.
#ifndef GHOST_SIM_SRC_WORKLOADS_REQUEST_SERVICE_H_
#define GHOST_SIM_SRC_WORKLOADS_REQUEST_SERVICE_H_

#include <functional>
#include <vector>

#include "src/base/inline_callback.h"
#include "src/base/ring_deque.h"
#include "src/base/rng.h"
#include "src/kernel/kernel.h"
#include "src/workloads/latency_recorder.h"

namespace gs {

// Samples per-request CPU demand.
class ServiceTimeModel {
 public:
  virtual ~ServiceTimeModel() = default;
  virtual Duration Sample(Rng& rng) = 0;
  virtual double MeanNs() const = 0;
};

// The Shinjuku paper's dispersive workload: mostly-short requests with a
// small fraction of very long ones (§4.2: 99.5% at ~short, 0.5% at 10 ms).
class BimodalServiceModel : public ServiceTimeModel {
 public:
  BimodalServiceModel(Duration short_service, Duration long_service, double p_long)
      : short_(short_service), long_(long_service), p_long_(p_long) {}

  Duration Sample(Rng& rng) override {
    return rng.NextBernoulli(p_long_) ? long_ : short_;
  }

  double MeanNs() const override {
    return (1.0 - p_long_) * static_cast<double>(short_) +
           p_long_ * static_cast<double>(long_);
  }

 private:
  Duration short_;
  Duration long_;
  double p_long_;
};

class FixedServiceModel : public ServiceTimeModel {
 public:
  explicit FixedServiceModel(Duration service) : service_(service) {}
  Duration Sample(Rng& rng) override { return service_; }
  double MeanNs() const override { return static_cast<double>(service_); }

 private:
  Duration service_;
};

class ExponentialServiceModel : public ServiceTimeModel {
 public:
  explicit ExponentialServiceModel(Duration mean) : mean_(mean) {}
  Duration Sample(Rng& rng) override {
    return std::max<Duration>(1, static_cast<Duration>(
                                     rng.NextExponential(static_cast<double>(mean_))));
  }
  double MeanNs() const override { return static_cast<double>(mean_); }

 private:
  Duration mean_;
};

class ThreadPoolServer {
 public:
  struct Options {
    int num_workers = 200;
    std::string name_prefix = "worker";
    // Dispatcher hand-off latency between a worker freeing up and the next
    // pending request being assigned to it.
    Duration dispatch_delay = Nanoseconds(500);
    // Cap on the pending queue; arrivals beyond it are dropped (counted).
    size_t max_pending = 1'000'000;
  };

  ThreadPoolServer(Kernel* kernel, Options options);

  // The worker tasks, for placement (enclave->AddTask, affinity, nice, ...).
  // Must be configured before the first Submit().
  const std::vector<Task*>& workers() const { return workers_; }

  // Per-request completion callback (fan-out joins, per-class latency).
  // InlineFunction: one of these travels with every request through the
  // pending queue and the active slots, so it must not malloc per request.
  using CompletionFn = InlineFunction<void(Time now, Duration latency)>;

  // Request arrival (open loop). Called at virtual time `arrival`. `done`,
  // when set, fires on this request's completion (after the recorder and the
  // global completion hook).
  void Submit(Time arrival, Duration service, CompletionFn done = nullptr);

  LatencyRecorder& latency() { return latency_; }
  // Called on each completion, if set (per-window series etc.).
  void set_completion_hook(std::function<void(Time now, Duration latency)> hook) {
    completion_hook_ = std::move(hook);
  }

  int64_t completed() const { return completed_; }
  int64_t dropped() const { return dropped_; }
  size_t pending() const { return pending_.size(); }
  int free_workers() const { return static_cast<int>(free_.size()); }

 private:
  struct Request {
    Time arrival = 0;
    Duration service = 0;
    CompletionFn done;
  };

  void Assign(int worker_index, Request request);
  // Starts the burst for the request already parked in active_[worker_index]
  // (split from Assign so the dispatch-delay event captures only the index,
  // never the move-only Request).
  void StartActive(int worker_index);
  void OnWorkerDone(int worker_index);

  Kernel* kernel_;
  Options options_;
  std::vector<Task*> workers_;
  std::vector<Request> active_;  // per worker
  std::vector<int> free_;
  RingDeque<Request> pending_;
  LatencyRecorder latency_;
  std::function<void(Time, Duration)> completion_hook_;
  int64_t completed_ = 0;
  int64_t dropped_ = 0;
};

// Open-loop Poisson arrival generator feeding a sink.
class PoissonLoadGen {
 public:
  PoissonLoadGen(EventLoop* loop, ServiceTimeModel* model, double requests_per_sec,
                 uint64_t seed, std::function<void(Time, Duration)> sink)
      : loop_(loop),
        model_(model),
        mean_gap_ns_(1e9 / requests_per_sec),
        rng_(seed),
        sink_(std::move(sink)) {}

  // Generates arrivals in (now, until].
  void Start(Time until) {
    until_ = until;
    ScheduleNext();
  }

  int64_t generated() const { return generated_; }

 private:
  void ScheduleNext() {
    const auto gap = std::max<Duration>(
        1, static_cast<Duration>(rng_.NextExponential(mean_gap_ns_)));
    if (loop_->now() + gap > until_) {
      return;
    }
    loop_->ScheduleAfter(gap, [this] {
      ++generated_;
      sink_(loop_->now(), model_->Sample(rng_));
      ScheduleNext();
    });
  }

  EventLoop* loop_;
  ServiceTimeModel* model_;
  double mean_gap_ns_;
  Rng rng_;
  std::function<void(Time, Duration)> sink_;
  Time until_ = 0;
  int64_t generated_ = 0;
};

}  // namespace gs

#endif  // GHOST_SIM_SRC_WORKLOADS_REQUEST_SERVICE_H_
