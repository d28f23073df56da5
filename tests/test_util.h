// Shared helpers for simulation tests.
#ifndef GHOST_SIM_TESTS_TEST_UTIL_H_
#define GHOST_SIM_TESTS_TEST_UTIL_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/kernel/kernel.h"

namespace gs {

// Creates a task that runs `burst` once and then exits.
inline Task* SpawnOneShot(Kernel& kernel, const std::string& name, Duration burst,
                          SchedClass* cls = nullptr,
                          std::function<void(Task*)> on_done = nullptr) {
  Task* task = kernel.CreateTask(name, cls);
  kernel.StartBurst(task, burst, [&kernel, on_done](Task* t) {
    if (on_done) {
      on_done(t);
    }
    kernel.Exit(t);
  });
  kernel.Wake(task);
  return task;
}

// Owns the burst chains of test workers. A chain's burst-done callback
// captures a raw pointer to its state here instead of a shared_ptr to
// itself, so no chain keeps itself alive and LeakSanitizer stays quiet.
// Keep the Workers alive for as long as the kernels it drives run (declare
// it before the SimulationContext in a fixture or test body).
class Workers {
 public:
  // What a chain does after a burst: block for `gap`, then run `burst`. A
  // zero gap starts the next burst at once, without blocking.
  struct Next {
    Duration gap = 0;
    Duration burst = 0;
  };
  // Called at the end of every burst; nullopt makes the task exit.
  using Step = std::function<std::optional<Next>(Task*)>;
  static constexpr int kForever = -1;

  // Starts `task` on a first burst of `burst` and wakes it; `step` decides
  // what follows each burst.
  Task* Chain(Kernel& kernel, Task* task, Duration burst, Step step) {
    chains_.push_back(std::make_unique<State>(State{&kernel, std::move(step)}));
    kernel.StartBurst(task, burst, Done(chains_.back().get()));
    kernel.Wake(task);
    return task;
  }

  // `repeats` bursts of `burst` with the task blocked for `gap` between
  // them, then exit (kForever: never exit).
  Task* Bursty(Kernel& kernel, Task* task, Duration burst, Duration gap = 0,
               int repeats = kForever) {
    return Chain(kernel, task, burst,
                 [remaining = repeats, burst, gap](Task*) mutable -> std::optional<Next> {
                   if (remaining != kForever && --remaining <= 0) {
                     return std::nullopt;
                   }
                   return Next{gap, burst};
                 });
  }

  // Creates a CPU hog: runs forever in `chunk`-sized bursts.
  Task* SpawnHog(Kernel& kernel, const std::string& name, SchedClass* cls = nullptr,
                 Duration chunk = Milliseconds(10)) {
    return Bursty(kernel, kernel.CreateTask(name, cls), chunk);
  }

 private:
  struct State {
    Kernel* kernel;
    Step step;
  };

  Task::BurstDoneFn Done(State* state) {
    return [this, state](Task* task) { OnBurstDone(state, task); };
  }

  void OnBurstDone(State* state, Task* task) {
    Kernel& kernel = *state->kernel;
    const std::optional<Next> next = state->step(task);
    if (!next.has_value()) {
      kernel.Exit(task);
      return;
    }
    if (next->gap == 0) {
      kernel.StartBurst(task, next->burst, Done(state));
      return;
    }
    kernel.Block(task);
    kernel.loop()->ScheduleAfter(next->gap, [this, state, task, burst = next->burst] {
      state->kernel->StartBurst(task, burst, Done(state));
      state->kernel->Wake(task);
    });
  }

  std::vector<std::unique_ptr<State>> chains_;
};

}  // namespace gs

#endif  // GHOST_SIM_TESTS_TEST_UTIL_H_
