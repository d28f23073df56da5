// Policy-SDK global-agent scaffolding: the Fig 4 plumbing every centralized
// policy shares, written once.
//
// A centralized ghOSt policy runs one spinning global agent that schedules
// every enclave CPU; the other agents stay inactive (Fig 2). GlobalAgent
// tracks which CPU hosts the global agent and performs the §3.3 hot
// handoff. GroupCommit batches the iteration's (cpu, task) assignments into
// TXNS_COMMIT() calls and reports, per assignment, whether it committed.
#ifndef GHOST_SIM_SRC_AGENT_SDK_GLOBAL_AGENT_H_
#define GHOST_SIM_SRC_AGENT_SDK_GLOBAL_AGENT_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "src/agent/agent_context.h"
#include "src/agent/policy.h"
#include "src/agent/task_table.h"

namespace gs {

class AgentProcess;

class GlobalAgent {
 public:
  // `requested_cpu` < 0 selects the first enclave CPU.
  void Attach(AgentProcess* process, Enclave* enclave, int requested_cpu);

  int cpu() const { return cpu_; }
  // DispatchPolicy::PreDrain for a global-agent policy: only the global
  // agent schedules; every other agent blocks (Fig 2).
  std::optional<AgentAction> Gate(const AgentContext& ctx) const {
    if (ctx.agent_cpu() != cpu_) {
      return AgentAction::kBlock;
    }
    return std::nullopt;
  }

  // Hot handoff (§3.3): if the kernel wants to run a non-ghOSt thread on the
  // global CPU, wakes the inactive agent of an idle CPU to become the new
  // global agent. Policy state is shared process memory, so the successor
  // resumes seamlessly. Returns true when the caller must vacate its CPU
  // (AgentAction::kYield); with no idle CPU to hand off to, the agent keeps
  // scheduling and the kernel thread waits, as when every CPU is busy.
  bool HandOff(AgentContext& ctx);
  uint64_t handoffs() const { return handoffs_; }

 private:
  AgentProcess* process_ = nullptr;
  int cpu_ = -1;
  uint64_t handoffs_ = 0;
};

class GroupCommit {
 public:
  void Clear() { assignments_.clear(); }
  void Add(int cpu, PolicyTask* task) { assignments_.emplace_back(cpu, task); }
  bool Targets(int cpu) const {
    return std::any_of(assignments_.begin(), assignments_.end(),
                       [cpu](const auto& a) { return a.first == cpu; });
  }

  // Commits every assignment in TXNS_COMMIT() calls of at most `max_batch`
  // transactions, each tagged with the task's expected_tseq when `use_tseq`
  // (§3.3 staleness detection). Then calls done(cpu, task, committed) for
  // each assignment in Add() order.
  template <typename Done>
  void Commit(AgentContext& ctx, bool use_tseq, int max_batch, Done&& done) {
    const size_t n = assignments_.size();
    storage_.assign(n, Transaction{});
    txns_.resize(n);
    for (size_t i = 0; i < n; ++i) {
      storage_[i] = AgentContext::MakeTxn(assignments_[i].second->tid, assignments_[i].first);
      if (use_tseq) {
        storage_[i].expected_tseq = assignments_[i].second->tseq;
      }
      txns_[i] = &storage_[i];
    }
    const size_t chunk = static_cast<size_t>(max_batch);
    for (size_t off = 0; off < n; off += chunk) {
      ctx.Commit(std::span<Transaction*>(txns_).subspan(off, std::min(chunk, n - off)));
    }
    for (size_t i = 0; i < n; ++i) {
      done(assignments_[i].first, assignments_[i].second, storage_[i].committed());
    }
  }

 private:
  // Reused across iterations so the steady-state loop never mallocs.
  std::vector<std::pair<int, PolicyTask*>> assignments_;
  std::vector<Transaction> storage_;
  std::vector<Transaction*> txns_;
};

}  // namespace gs

#endif  // GHOST_SIM_SRC_AGENT_SDK_GLOBAL_AGENT_H_
