// The simulated kernel: CPUs, context switches, the scheduling-class
// hierarchy, timer ticks, IPIs and task lifecycle "syscalls".
//
// This is the substrate the ghOSt scheduling class (src/ghost) plugs into,
// standing in for the paper's patched Linux 4.15. It reproduces the pieces of
// the Linux scheduling machinery that ghOSt's design interacts with:
//
//  * strict class priority (agents ≈ RT > CFS > ghOSt, §3.3/§3.4),
//  * pick_next_task semantics (put_prev then pick, per class in order),
//  * context-switch and IPI costs (CostModel, calibrated from Table 3),
//  * per-CPU 1 ms timer ticks,
//  * SMT sibling contention and cache-warmth placement penalties,
//  * task states and the transitions that generate ghOSt messages.
//
// Execution model: tasks run "bursts" (see task.h). The kernel tracks exact
// progress under preemption and CPU-speed changes (e.g. a sibling hyperthread
// becoming busy re-rates the current burst, which is how Fig 5's ❷ regime
// emerges).
#ifndef GHOST_SIM_SRC_KERNEL_KERNEL_H_
#define GHOST_SIM_SRC_KERNEL_KERNEL_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/base/cpumask.h"
#include "src/base/inline_callback.h"
#include "src/base/slab.h"
#include "src/base/time.h"
#include "src/kernel/cost_model.h"
#include "src/kernel/sched_class.h"
#include "src/kernel/task.h"
#include "src/sim/event_loop.h"
#include "src/sim/fault_injector.h"
#include "src/sim/trace.h"
#include "src/stats/stats.h"
#include "src/topology/topology.h"

namespace gs {

// Per-CPU scheduler state (≈ struct rq).
struct CpuState {
  int id = -1;

  Task* current = nullptr;  // nullptr => idle (or switching)
  bool switching = false;
  Task* switching_to = nullptr;
  bool resched_pending = false;   // resched requested while switching
  bool resched_scheduled = false; // a zero-delay resched event is queued
  bool yielded = false;           // current called Yield()

  EventId completion_event = kInvalidEventId;
  EventId switch_event = kInvalidEventId;
  Time run_start = 0;   // when `current` last started progressing
  double speed = 1.0;   // current execution speed factor
  Time pick_time = 0;   // when `current` was last picked (slice accounting)

  // Statistics.
  uint64_t context_switches = 0;
  Duration busy_ns = 0;
  Time busy_since = 0;
  bool busy = false;
};

class Kernel {
 public:
  // `stats` is the registry instrumentation lands in; the kernel does not own
  // it (a SimulationContext typically does). nullptr => the kernel creates a
  // private, disabled registry so metric pointers stay valid at zero cost —
  // handy for tests that build a bare Kernel with a custom class stack.
  Kernel(EventLoop* loop, Topology topology, CostModel cost = CostModel(),
         StatsRegistry* stats = nullptr);
  ~Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // Installs scheduling classes in strict priority order (index 0 highest).
  // `default_index` designates the fallback class for plain tasks (CFS).
  void InstallClasses(std::vector<std::unique_ptr<SchedClass>> classes, int default_index);

  EventLoop* loop() { return loop_; }
  // The registry this simulated machine's instrumentation lands in. Enclaves,
  // agent processes, and policies reach their registry through here instead
  // of any process-global. Never nullptr.
  StatsRegistry* stats() { return stats_; }
  Time now() const { return loop_->now(); }
  const Topology& topology() const { return topology_; }
  const CostModel& cost() const { return cost_; }
  CostModel& mutable_cost() { return cost_; }

  SchedClass* default_class() { return classes_[default_index_].get(); }
  SchedClass* sched_class_at(int priority_index) { return classes_[priority_index].get(); }
  int num_classes() const { return static_cast<int>(classes_.size()); }
  // Priority index of a class (0 = highest). CHECK-fails for foreign classes.
  int ClassIndex(const SchedClass* cls) const;
  // True if `cpu` is idle or running something of strictly lower priority
  // than `cls` (i.e. a wakeup into `cls` could take the CPU immediately).
  bool CpuAvailableFor(int cpu, const SchedClass* cls) const;

  // ---- Task lifecycle --------------------------------------------------------
  // Creates a task in `cls` (nullptr => default class). The task starts in
  // kCreated; call Wake() (after setting a burst or an on-scheduled hook) to
  // make it runnable.
  Task* CreateTask(const std::string& name, SchedClass* cls = nullptr);

  // Marks `task` as an agent thread (scheduled with the cheaper agent
  // context-switch path and agent SMT factor). Stored as a bit on the task
  // so the context-switch hot path never touches a hash set.
  void MarkAgent(Task* task) { task->set_is_agent(true); }
  bool IsAgent(const Task* task) const { return task->is_agent(); }

  // Installs a hook invoked every time `task` is placed on a CPU, before its
  // burst is armed. Agents use this to run their scheduling loop.
  void SetOnScheduled(Task* task, InlineFunction<void(Task*)> hook) {
    task->set_on_scheduled(std::move(hook));
  }

  // Sets/extends the task's pending CPU demand and arms completion if the
  // task is currently running.
  void StartBurst(Task* task, Duration duration, Task::BurstDoneFn on_done);

  // ---- "Syscalls" -------------------------------------------------------------
  void Wake(Task* task);
  void Block(Task* task);  // task must be running
  void Exit(Task* task);   // task must be running
  void Yield(Task* task);  // task must be running
  // Forcefully terminates a task in any state (SIGKILL analog; used when an
  // enclave is destroyed and its agents must die).
  void Kill(Task* task);
  void SetAffinity(Task* task, const CpuMask& mask);
  void SetNice(Task* task, int nice);
  // Moves a task between scheduling classes (sched_setscheduler).
  void SetSchedClass(Task* task, SchedClass* cls);

  // ---- Scheduler machinery (used by sched classes and the ghOSt module) ------
  // Requests a pick_next_task pass on `cpu` (coalesced, zero virtual delay).
  void ReschedCpu(int cpu);

  // Delivers `fn` on `to_cpu` after IPI flight + handling costs.
  // `cross_numa` adds the cross-socket flight penalty.
  void SendIpi(int to_cpu, bool cross_numa, InlineCallback fn);

  // Accounted runtime of the current task on `cpu` since it was last picked.
  Duration CurrentElapsed(int cpu) const;

  // Tick-less operation (§5): with ticks disabled a CPU receives no timer
  // interrupt — no slice enforcement, no TIMER_TICK messages, and no
  // tick_cost (VM-exit) charged to the running task. A spinning global agent
  // makes the ticks redundant for ghOSt-managed CPUs.
  void SetTickEnabled(int cpu, bool enabled) { tick_enabled_[cpu] = enabled; }
  bool tick_enabled(int cpu) const { return tick_enabled_[cpu]; }
  uint64_t ticks_delivered(int cpu) const { return ticks_delivered_[cpu]; }

  // Inline: these sit inside scheduler scan loops (idle balancing touches
  // every runqueue per pick) — a call per probe is measurable.
  CpuState& cpu_state(int cpu) {
    DCHECK_GE(cpu, 0);
    DCHECK_LT(cpu, static_cast<int>(cpus_.size()));
    return cpus_[cpu];
  }
  const CpuState& cpu_state(int cpu) const {
    DCHECK_GE(cpu, 0);
    DCHECK_LT(cpu, static_cast<int>(cpus_.size()));
    return cpus_[cpu];
  }
  Task* current(int cpu) const { return cpus_[cpu].current; }
  // Idle = not running anything and not context-switching.
  bool CpuIdle(int cpu) const {
    const CpuState& cs = cpus_[cpu];
    return cs.current == nullptr && !cs.switching;
  }
  CpuMask IdleCpus() const;
  // The same information as per-CPU CpuIdle() calls, maintained incrementally
  // as a bitmask: a global agent intersects this with its enclave mask every
  // loop iteration, which must not cost a 256-CPU scan.
  const CpuMask& idle_cpus() const { return idle_cpus_; }

  // Listener invoked on busy<->idle transitions (ghOSt enclaves use this to
  // wake polling agents). `idle` is the new state. Returns a handle for
  // RemoveIdleListener.
  using IdleListener = InlineFunction<void(int cpu, bool idle)>;
  int AddIdleListener(IdleListener listener);
  void RemoveIdleListener(int handle);

  // ---- Statistics ---------------------------------------------------------------
  uint64_t total_context_switches() const;
  // Busy time including a currently running span.
  Duration CpuBusyTime(int cpu) const;

  const std::vector<Task*>& tasks() const { return tasks_; }
  Task* FindTask(int64_t tid) const;

  // Scheduling trace (sched_switch/sched_wakeup-style introspection).
  // Disabled by default; Enable() it in tests/tools that need it.
  Trace& trace() { return trace_; }

  // Fault injection (chaos/robustness testing). When installed, the kernel
  // and the ghOSt module consult it at their hook sites (IPI send, message
  // post, transaction validation). nullptr = no faults.
  void set_fault_injector(FaultInjector* injector) { fault_injector_ = injector; }
  FaultInjector* fault_injector() { return fault_injector_; }

 private:
  void ReschedNow(int cpu);
  void FinishSwitch(int cpu);
  void StartRunning(int cpu, Task* task, bool fresh_placement);
  // Account `current`'s progress up to now and restart the progress clock.
  void UpdateProgress(int cpu);
  void ArmCompletion(int cpu);
  void CancelCompletion(int cpu);
  void BurstComplete(int cpu);
  void OnTick(int cpu);
  double SpeedFactor(const Task& task, int cpu) const;
  // Re-rates the sibling CPU's current burst after this CPU's busy state
  // changed.
  void RerateSibling(int cpu);
  void SetBusy(int cpu, bool busy);
  double WarmthFactor(const Task& task, int cpu) const;
  // Mirror cpus_[cpu].current/switching into idle_cpus_; must follow every
  // write to either field.
  void RefreshIdleBit(int cpu) {
    if (CpuIdle(cpu)) {
      idle_cpus_.Set(cpu);
    } else {
      idle_cpus_.Clear(cpu);
    }
  }

  EventLoop* loop_;
  Topology topology_;
  CostModel cost_;
  // Fallback registry when the constructor got no external one.
  std::unique_ptr<StatsRegistry> owned_stats_;
  StatsRegistry* stats_;

  std::vector<std::unique_ptr<SchedClass>> classes_;
  int default_index_ = -1;

  std::vector<CpuState> cpus_;
  CpuMask idle_cpus_;  // bit set iff CpuIdle(cpu); see RefreshIdleBit
  // Tasks live in a typed slab (O(1) pooled allocation, pointer-stable,
  // cache-packed); tasks_ is the creation-ordered view.
  Slab<Task> task_slab_;
  std::vector<Task*> tasks_;
  int64_t next_tid_ = 1;

  // Sorted by handle; iterated on every busy<->idle transition, so a flat
  // vector beats a node-based map.
  std::vector<std::pair<int, IdleListener>> idle_listeners_;
  int next_listener_id_ = 1;
  std::vector<bool> tick_enabled_;
  std::vector<uint64_t> ticks_delivered_;
  Trace trace_;
  FaultInjector* fault_injector_ = nullptr;

  // Hot-path metrics (pointers into *stats_, cached at construction).
  Counter* stat_switch_task_;
  Counter* stat_switch_agent_;
  Counter* stat_ipi_local_;
  Counter* stat_ipi_cross_numa_;
  Counter* stat_ticks_;
  Counter* stat_tick_cost_ns_;
};

}  // namespace gs

#endif  // GHOST_SIM_SRC_KERNEL_KERNEL_H_
