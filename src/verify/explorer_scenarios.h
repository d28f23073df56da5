// Fixed workloads for the schedule-space explorer, each aimed at one
// historical mechanism-layer race. Every scenario builds a fresh
// SimulationContext (its own EventLoop), installs the explorer's oracle, runs
// a short workload under the InvariantChecker and returns a
// *time-normalized* violation description ("" when the schedule is clean).
//
// Each scenario takes a `mutate` flag that reintroduces the bug it was built
// to catch, via a test seam in the production code (no #ifdefs):
//
//  * lost_wakeup          — AgentProcess::set_test_skip_sleep_recheck():
//                           the agent's check-then-sleep re-validation is
//                           skipped, so a message arriving mid-iteration can
//                           strand a runnable thread behind a sleeping agent.
//  * sync_group_partial   — Enclave::set_test_partial_sync_groups(): members
//                           latched before a failing sibling are delivered
//                           instead of rolled back (all-or-nothing broken).
//  * fastpath_stale_pick  — GhostClass::set_test_unsafe_fastpath(): the BPF
//                           fast-path pick skips the latched/inbound
//                           revalidation, handing out a thread the agent
//                           already committed to a different CPU.
//
// With mutate=false every interleaving must be clean (the explorer proves the
// fix, not just the bug).
#ifndef GHOST_SIM_SRC_VERIFY_EXPLORER_SCENARIOS_H_
#define GHOST_SIM_SRC_VERIFY_EXPLORER_SCENARIOS_H_

#include <string>
#include <vector>

#include "src/verify/explorer.h"

namespace gs {

std::string RunLostWakeupScenario(ScheduleOracle* oracle, bool mutate);
std::string RunSyncGroupScenario(ScheduleOracle* oracle, bool mutate);
std::string RunFastpathScenario(ScheduleOracle* oracle, bool mutate);

struct ExplorerScenarioInfo {
  const char* name;
  const char* description;
  std::string (*run)(ScheduleOracle* oracle, bool mutate);
};

const std::vector<ExplorerScenarioInfo>& AllExplorerScenarios();

// Wraps the named scenario as an Explorer::Scenario; returns a null function
// for unknown names.
Explorer::Scenario MakeExplorerScenario(const std::string& name, bool mutate);

}  // namespace gs

#endif  // GHOST_SIM_SRC_VERIFY_EXPLORER_SCENARIOS_H_
