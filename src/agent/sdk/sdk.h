// The policy SDK: everything a DispatchPolicy author composes.
//
// ghOSt's pitch is that a scheduler is just user-space software (Table 2:
// the paper's policies are 700–900 LoC because the support library does the
// heavy lifting). The SDK is that support library's policy-facing surface:
//
//  * runqueue primitives (sdk/runqueue.h): FifoRunqueue, MinRunqueue,
//    PrioArrayRunqueue — the three queue shapes every policy in this repo
//    is built from;
//  * timeslice helpers (sdk/timeslice.h): SliceBudget virtual-time
//    accounting, priority->slice interpolation, slice-expiry wakeup arming;
//  * placement helpers (sdk/placement.h): PlacementHint and the inside-out
//    TieredPlacer (§4.4's same-core/same-CCX/neighbour search with warmth
//    deferral);
//  * per-CPU scaffolding (sdk/per_cpu.h): PerCpuQueues — one queue per
//    enclave CPU woken into its agent, the boss agent's default-queue
//    wakeup, round-robin homes and the tid -> home map, re-homing to the
//    first allowed CPU, and the sibling-agent wake-or-poke;
//  * global-agent scaffolding (sdk/global_agent.h): GlobalAgent — the
//    global CPU, the inactive-agent Gate() and the §3.3 hot handoff — and
//    GroupCommit, a chunked TXNS_COMMIT() of (cpu, task) assignments with
//    optional expected_tseq that reports each transaction's outcome.
//
// Message plumbing lives one level down in DispatchPolicy (typed hooks over
// the shared TaskTable, a PreDrain() gate, drained()); predictors that feed
// PlacementHints and long-vs-short routing live in src/predict/. A new
// policy is: subclass DispatchPolicy, pick queue primitives and one of the
// two scaffolds, implement Schedule() — see the README quickstart,
// examples/custom_policy.cc and src/policies/ for consumers.
#ifndef GHOST_SIM_SRC_AGENT_SDK_SDK_H_
#define GHOST_SIM_SRC_AGENT_SDK_SDK_H_

#include "src/agent/dispatch_policy.h"    // IWYU pragma: export
#include "src/agent/sdk/global_agent.h"  // IWYU pragma: export
#include "src/agent/sdk/per_cpu.h"       // IWYU pragma: export
#include "src/agent/sdk/placement.h"     // IWYU pragma: export
#include "src/agent/sdk/runqueue.h"      // IWYU pragma: export
#include "src/agent/sdk/timeslice.h"     // IWYU pragma: export
#include "src/agent/task_table.h"        // IWYU pragma: export

#endif  // GHOST_SIM_SRC_AGENT_SDK_SDK_H_
