#include "src/sim/simulation.h"

#include <utility>
#include <vector>

namespace gs {

namespace {

StatsRegistry* MakeOrBorrowStats(const SimulationContext::Options& options,
                                 std::unique_ptr<StatsRegistry>* owned) {
  if (options.stats != nullptr) {
    return options.stats;
  }
  *owned = std::make_unique<StatsRegistry>();
  return owned->get();
}

}  // namespace

SimulationContext::SimulationContext(Options options)
    : options_(std::move(options)),
      stats_(MakeOrBorrowStats(options_, &owned_stats_)),
      kernel_(&loop_, options_.topology, options_.cost, stats_),
      rng_(options_.seed) {
  InstallClassStack();
  if (options_.enable_stats) {
    stats_->Enable();
  }
  if (options_.enable_trace) {
    kernel_.trace().Enable();
  }
  if (options_.faults.has_value()) {
    // The injector gets its own seed stream (derived, so faults and workload
    // sampling stay decoupled) and records into this context's registry.
    fault_injector_ = std::make_unique<FaultInjector>(
        &loop_, &kernel_.trace(),
        options_.seed ^ 0x5eedfa17bad5eedULL, *options_.faults, stats_);
    kernel_.set_fault_injector(fault_injector_.get());
  }
}

SimulationContext::~SimulationContext() {
  // The fault injector must outlive nothing that might fire into it: tear it
  // off the kernel before members destruct in reverse order.
  if (fault_injector_ != nullptr) {
    kernel_.set_fault_injector(nullptr);
  }
  // A borrowed registry outlives this context, so it gets the loop's work
  // counts; an owned one dies with it (whoever merges an owned registry
  // exports the loop itself, as fleet::Cluster does).
  if (owned_stats_ == nullptr) {
    loop_.counters().ExportTo(stats_);
  }
}

void SimulationContext::InstallClassStack() {
  auto agent = std::make_unique<AgentClass>();
  auto mq = std::make_unique<MicroQuantaClass>();
  auto cfs = std::make_unique<CfsClass>();
  auto ghost = std::make_unique<GhostClass>();
  agent_class_ = agent.get();
  mq_class_ = mq.get();
  cfs_class_ = cfs.get();
  ghost_class_ = ghost.get();

  std::vector<std::unique_ptr<SchedClass>> classes;
  classes.push_back(std::move(agent));
  classes.push_back(std::move(mq));
  if (options_.with_core_sched) {
    auto core_sched = std::make_unique<CoreSchedClass>();
    core_sched_class_ = core_sched.get();
    classes.push_back(std::move(core_sched));
  }
  const int default_index = static_cast<int>(classes.size());
  classes.push_back(std::move(cfs));
  classes.push_back(std::move(ghost));
  kernel_.InstallClasses(std::move(classes), default_index);
}

std::unique_ptr<AgentProcess> SimulationContext::CreateAgentProcess(
    Enclave* enclave, std::unique_ptr<Policy> policy) {
  return std::make_unique<AgentProcess>(&kernel_, ghost_class_,
                                        enclave, std::move(policy));
}

}  // namespace gs
