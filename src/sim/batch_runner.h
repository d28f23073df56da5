// BatchRunner: fan N independent, run-indexed jobs across a persistent
// thread pool with deterministic aggregation.
//
// The simulator's multi-run workloads — multi-seed bench sweeps, explorer
// random walks, the chaos battery, and the fleet's lockstep epochs — are
// embarrassingly parallel once each run owns its whole world (see
// SimulationContext): run k depends only on its index/seed, never on its
// siblings. BatchRunner exploits exactly that shape:
//
//  * the pool is persistent: the first parallel Run spawns the helper
//    threads and every later Run on the same runner reuses them; the
//    destructor joins them. A fleet calls Run once per epoch (thousands of
//    times per run), so per-call thread creation would dominate;
//  * each Run is one pass through a reusable epoch barrier. Idle helpers
//    (and the caller, waiting for the last helper) spin for a short, fixed
//    budget with a CPU-relax hint, then block on an atomic wait, so an
//    oversubscribed or nested pool never busy-waits without bound;
//  * indices are split into one contiguous home block per worker: worker w
//    first claims from [w*n/W, (w+1)*n/W), then steals from the other
//    blocks. Run k lands on the same worker call after call (a fleet
//    machine keeps its core's cache across epochs) while uneven sweeps
//    stay load-balanced. Claiming is an atomic increment, allocation-free;
//  * results are written into slot `index` of a pre-sized vector, so the
//    aggregate is byte-identical no matter how runs interleave or how many
//    workers there are (jobs=1 and jobs=N produce the same vector);
//  * an exception in any body is captured and rethrown on the calling thread
//    after every worker has left the barrier (first one by run index wins).
//
// With jobs <= 1 the bodies run inline on the calling thread — no threads
// are spawned, which keeps single-job runs easy to debug and exactly as
// deterministic as a hand-written loop.
//
// Run is not re-entrant: calling it on a runner whose Run is in progress
// (from a body, or from another thread) is a CHECK failure. Nest a second
// runner instead; each runner owns its own pool.
#ifndef GHOST_SIM_SRC_SIM_BATCH_RUNNER_H_
#define GHOST_SIM_SRC_SIM_BATCH_RUNNER_H_

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

namespace gs {

class BatchRunner {
 public:
  // jobs == 0 => one job per hardware thread; otherwise clamped to >= 1.
  explicit BatchRunner(int jobs);
  ~BatchRunner();

  BatchRunner(const BatchRunner&) = delete;
  BatchRunner& operator=(const BatchRunner&) = delete;

  int jobs() const { return jobs_; }

  // Invokes body(0) .. body(num_runs - 1), each exactly once, across up to
  // jobs() threads (never more than num_runs), the calling thread included.
  // Returns when all runs have finished. Rethrows the lowest-indexed
  // captured exception, if any. The body must confine itself to run-local
  // state (a SimulationContext it builds itself, its slot of a results
  // vector); it runs concurrently with other indices.
  void Run(int num_runs, const std::function<void(int run_index)>& body) const;

  // Convenience: materializes `Run` into an index-ordered result vector.
  // fn(k) fills slot k; the returned vector is independent of jobs().
  template <typename R>
  std::vector<R> Map(int num_runs, const std::function<R(int run_index)>& fn) const {
    std::vector<R> results(static_cast<size_t>(num_runs < 0 ? 0 : num_runs));
    Run(num_runs, [&results, &fn](int k) { results[static_cast<size_t>(k)] = fn(k); });
    return results;
  }

 private:
  class Pool;

  int jobs_;
  // Set for the duration of a Run; catches re-entrant and concurrent calls.
  mutable std::atomic<bool> running_{false};
  // Created by the first parallel Run.
  mutable std::unique_ptr<Pool> pool_;
};

}  // namespace gs

#endif  // GHOST_SIM_SRC_SIM_BATCH_RUNNER_H_
