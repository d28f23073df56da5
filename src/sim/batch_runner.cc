#include "src/sim/batch_runner.h"

#include <algorithm>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "src/base/logging.h"

namespace gs {
namespace {

// Polls a waiter makes before it blocks. Long enough (tens of microseconds)
// to cover the serial barrier work between two fleet epochs, so helpers
// usually pick up the next Run without a futex round trip; short enough that
// an idle, oversubscribed or nested pool gives its cores back quickly.
constexpr int kSpinLimit = 4096;

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}

// Returns the first value of `word` for which done(value) holds: spins for
// kSpinLimit polls, then blocks in atomic wait until the word changes.
template <typename T, typename Done>
T SpinThenWait(const std::atomic<T>& word, Done done) {
  T value = word.load(std::memory_order_acquire);
  for (int spins = 0; !done(value); ++spins) {
    if (spins < kSpinLimit) {
      CpuRelax();
    } else {
      word.wait(value, std::memory_order_acquire);
    }
    value = word.load(std::memory_order_acquire);
  }
  return value;
}

}  // namespace

// The persistent pool behind a parallel Run. The calling thread is worker 0;
// helper threads 1..W-1 sleep on `epoch_` between Runs. A Run writes the job
// (body, home blocks), bumps `epoch_` to release the helpers, works its own
// block, then waits for `pending_` — one count per spawned helper — to drain.
// Every helper acknowledges every epoch, even one it has no block in, so the
// caller never rewrites the job while a helper may still read it.
class BatchRunner::Pool {
 public:
  explicit Pool(int max_workers) : blocks_(static_cast<size_t>(max_workers)) {}
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  ~Pool() {
    stop_.store(true, std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_release);
    epoch_.notify_all();
    for (std::thread& helper : helpers_) {
      helper.join();
    }
  }

  void Run(int workers, int num_runs, const std::function<void(int)>& body) {
    workers_ = workers;
    body_ = &body;
    error_index_ = -1;
    for (int w = 0; w < workers; ++w) {
      Block& block = blocks_[static_cast<size_t>(w)];
      block.next.store(HomeStart(w, workers, num_runs), std::memory_order_relaxed);
      block.end = HomeStart(w + 1, workers, num_runs);
    }
    const uint32_t epoch = epoch_.load(std::memory_order_relaxed);
    while (static_cast<int>(helpers_.size()) < workers - 1) {
      const int id = static_cast<int>(helpers_.size()) + 1;
      helpers_.emplace_back([this, id, epoch] { HelperLoop(id, epoch); });
    }
    pending_.store(static_cast<int>(helpers_.size()), std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_release);
    epoch_.notify_all();

    Work(0);
    SpinThenWait(pending_, [](int left) { return left == 0; });
    body_ = nullptr;
    if (error_) {
      std::rethrow_exception(std::exchange(error_, nullptr));
    }
  }

 private:
  // One worker's home block [next, end). Cache-line sized so owners claiming
  // from their own blocks never contend.
  struct alignas(64) Block {
    std::atomic<int> next{0};
    int end = 0;
  };

  static int HomeStart(int w, int workers, int num_runs) {
    return static_cast<int>(int64_t{w} * num_runs / workers);
  }

  void HelperLoop(int id, uint32_t seen) {
    for (;;) {
      seen = SpinThenWait(epoch_, [seen](uint32_t e) { return e != seen; });
      if (stop_.load(std::memory_order_relaxed)) {
        return;
      }
      if (id < workers_) {
        Work(id);
      }
      if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        pending_.notify_one();
      }
    }
  }

  // Drains worker w's home block, then steals from the others in ring order.
  // Every index is claimed by exactly one fetch_add below its block's end.
  void Work(int w) {
    for (int i = 0; i < workers_; ++i) {
      Block& block = blocks_[static_cast<size_t>((w + i) % workers_)];
      if (block.next.load(std::memory_order_relaxed) >= block.end) {
        continue;  // drained: skip without writing its cache line
      }
      for (int k = block.next.fetch_add(1, std::memory_order_relaxed);
           k < block.end; k = block.next.fetch_add(1, std::memory_order_relaxed)) {
        try {
          (*body_)(k);
        } catch (...) {
          std::lock_guard<std::mutex> lock(error_mu_);
          if (error_index_ < 0 || k < error_index_) {
            error_index_ = k;
            error_ = std::current_exception();
          }
        }
      }
    }
  }

  std::vector<Block> blocks_;
  std::atomic<uint32_t> epoch_{0};
  alignas(64) std::atomic<int> pending_{0};
  std::atomic<bool> stop_{false};
  // The current Run's job; written only while every helper is parked.
  int workers_ = 0;
  const std::function<void(int)>* body_ = nullptr;
  // First failure by run index; workers keep draining so every index still
  // runs exactly once and the barrier always completes.
  std::mutex error_mu_;
  int error_index_ = -1;
  std::exception_ptr error_;
  // Last: the helpers use every member above.
  std::vector<std::thread> helpers_;
};

BatchRunner::BatchRunner(int jobs) {
  if (jobs == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    jobs_ = hw == 0 ? 1 : static_cast<int>(hw);
  } else {
    jobs_ = jobs < 1 ? 1 : jobs;
  }
}

BatchRunner::~BatchRunner() = default;

void BatchRunner::Run(int num_runs,
                      const std::function<void(int run_index)>& body) const {
  if (num_runs <= 0) {
    return;
  }
  CHECK(!running_.exchange(true, std::memory_order_acquire))
      << "BatchRunner::Run is not re-entrant; nest a second runner instead";
  struct Done {
    std::atomic<bool>& running;
    ~Done() { running.store(false, std::memory_order_release); }
  } done{running_};

  const int workers = std::min(jobs_, num_runs);
  if (workers <= 1) {
    for (int k = 0; k < num_runs; ++k) {
      body(k);
    }
    return;
  }
  if (pool_ == nullptr) {
    pool_ = std::make_unique<Pool>(jobs_);
  }
  pool_->Run(workers, num_runs, body);
}

}  // namespace gs
