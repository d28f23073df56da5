// Ablation (§5): tick-less scheduling for VM workloads.
//
// "When ghOSt is in centralized mode, timer ticks can be disabled across
// CPUs to avoid expensive VM-exits in VM workloads... Since the global agent
// is continuously spinning and making scheduling decisions, there is no need
// for these ticks. Eliminating these ticks across all CPUs will substantially
// reduce guest jitter. This type of optimization is not possible with CFS."
//
// Each 1 ms tick on a CPU running a vCPU costs a VM-exit + re-entry
// (~4 us here). The bench runs the Table 4 VM workload under the ghOSt
// core-scheduling policy with ticks on vs off and reports completion time
// and ticks delivered to vCPU-running CPUs.
#include <cstdio>
#include <memory>

#include "bench/harness.h"
#include "bench/machine_trace.h"
#include "src/agent/agent_process.h"
#include "src/policies/vm_core_sched.h"
#include "src/sim/simulation.h"
#include "src/workloads/vm_workload.h"

namespace gs {
namespace {

Duration kWork = Seconds(1);

struct Result {
  double total_time = 0;
  uint64_t ticks = 0;
};

Result Run(bench::Run& run, bool tickless) {
  CostModel cost;
  cost.smt_contention_factor = 0.88;
  cost.tick_cost = Microseconds(4);  // VM-exit + cache pollution + re-entry
  SimulationContext m({.topology = Topology::Make("vmhost-24", 1, 12, 2, 12), .cost = cost,
                       .stats = &run.stats()});
  bench::ScopedMachineTrace trace_scope(run, m.kernel());
  auto enclave = m.CreateEnclave(m.kernel().topology().AllCpus());
  VmWorkload vms(&m.kernel(),
                 {.num_vms = 8, .vcpus_per_vm = 2, .work_per_vcpu = kWork});
  VmCoreSchedPolicy::Options options;
  options.global_cpu = 0;
  VmWorkload* ptr = &vms;
  options.cookie_of = [ptr](int64_t tid) { return ptr->CookieOf(tid); };
  AgentProcess process(&m.kernel(), m.ghost_class(), enclave.get(),
                       std::make_unique<VmCoreSchedPolicy>(options));
  process.Start();
  for (Task* vcpu : vms.vcpus()) {
    enclave->AddTask(vcpu);
  }
  if (tickless) {
    enclave->SetTickless(true);
  }
  vms.Start();
  while (!vms.AllDone() && m.now() < Seconds(60)) {
    m.RunFor(Milliseconds(100));
  }
  Result r;
  r.total_time = ToSeconds(vms.finish_time());
  for (int cpu = 0; cpu < m.kernel().topology().num_cpus(); ++cpu) {
    r.ticks += m.kernel().ticks_delivered(cpu);
  }
  return r;
}

}  // namespace
}  // namespace gs

int main(int argc, char** argv) {
  using namespace gs;
  bench::Harness harness("ablation_tickless", argc, argv);
  if (harness.quick()) {
    kWork = Milliseconds(250);
  }
  harness.Param("work_per_vcpu_ms", static_cast<int64_t>(kWork / 1000000));
  std::printf("Ablation: tick-less centralized scheduling for VM guests (section 5).\n"
              "8 VMs x 2 vCPUs on 12 cores, 1s work each, 4us VM-exit per tick.\n\n");
  harness.RunAll(1, [](bench::Run& run) {
    const Result ticks = Run(run, false);
    const Result tickless = Run(run, true);
    std::printf("%-12s %14s %16s\n", "mode", "total_time_s", "ticks_delivered");
    std::printf("%-12s %14.4f %16llu\n", "ticks on", ticks.total_time,
                (unsigned long long)ticks.ticks);
    std::printf("%-12s %14.4f %16llu\n", "tickless", tickless.total_time,
                (unsigned long long)tickless.ticks);
    run.AddRow()
        .Set("mode", "ticks_on")
        .Set("total_time_s", ticks.total_time)
        .Set("ticks_delivered", ticks.ticks);
    run.AddRow()
        .Set("mode", "tickless")
        .Set("total_time_s", tickless.total_time)
        .Set("ticks_delivered", tickless.ticks);
    run.Metric("guest_time_recovered_pct",
               100.0 * (1.0 - tickless.total_time / ticks.total_time));
    std::printf("\nguest time recovered: %.2f%%\n",
                100.0 * (1.0 - tickless.total_time / ticks.total_time));
  });
  return harness.Finish();
}
