#include "src/fleet/cluster.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "src/base/logging.h"
#include "src/sim/batch_runner.h"

namespace gs {
namespace fleet {
namespace {

Duration FromMs(double ms) { return static_cast<Duration>(ms * 1e6); }
Duration FromUs(double us) { return static_cast<Duration>(us * 1e3); }

// Gbps -> bytes per simulated nanosecond.
double BytesPerNs(double gbps) { return gbps / 8.0; }

}  // namespace

Cluster::Cluster(const scenario::ScenarioSpec& spec, StatsRegistry* stats, int jobs)
    : spec_(spec),
      stats_(stats),
      jobs_(jobs),
      fleet_mode_(spec.fleet.has_value()),
      session_rng_(spec.seed ^ 0x5e551017ULL),
      leaf_rng_(spec.seed ^ 0x9e3779b97f4a7c15ULL) {
  if (!fleet_mode_) {
    MachineSim::Options options;
    options.stats = stats_;
    machines_.push_back(std::make_unique<MachineSim>(spec_, options));
    return;
  }
  BuildFleet();
}

Cluster::~Cluster() = default;

void Cluster::BuildFleet() {
  const scenario::FleetSpec& fleet = *spec_.fleet;
  const int num_machines = fleet.machines;

  // ---- Per-machine specs: base + override sections + machine-scoped fault
  // events from the fleet plan, each with its own derived seed. -------------
  for (int m = 0; m < num_machines; ++m) {
    scenario::ScenarioSpec machine_spec = spec_;
    machine_spec.fleet.reset();
    machine_spec.seed = spec_.seed + 7919ULL * static_cast<uint64_t>(m + 1);
    for (const scenario::MachineOverrideSpec& o : fleet.overrides) {
      if (o.machine != m) {
        continue;
      }
      if (o.policy.has_value()) machine_spec.policy = *o.policy;
      if (o.enclave.has_value()) machine_spec.enclave = *o.enclave;
      if (o.workload.has_value()) machine_spec.workload = *o.workload;
      if (o.antagonist.has_value()) machine_spec.antagonist = *o.antagonist;
      if (o.faults.has_value()) machine_spec.faults = *o.faults;
    }
    for (const scenario::FleetEventSpec& event : fleet.plan) {
      if (event.machine != m || event.kind == "lb_drain" ||
          event.kind == "lb_undrain" || event.kind == "link_down" ||
          event.kind == "link_up") {
        continue;
      }
      scenario::FaultEventSpec fault;
      fault.at_ms = event.at_ms;
      fault.kind = event.kind;
      machine_spec.faults.plan.push_back(fault);
    }
    MachineSim::Options options;
    options.stats = nullptr;  // own a registry; merged at collect
    options.collect_stats = stats_ != nullptr;
    options.fleet_mode = true;
    machines_.push_back(std::make_unique<MachineSim>(machine_spec, options));
  }

  // ---- Front end + network -------------------------------------------------
  joins_ = std::vector<JoinTable>(static_cast<size_t>(num_machines));
  frontend_loop_ = std::make_unique<EventLoop>();
  const int frontend = num_machines;
  std::vector<EventLoop*> loops;
  for (const std::unique_ptr<MachineSim>& machine : machines_) {
    loops.push_back(&machine->loop());
  }
  loops.push_back(frontend_loop_.get());

  NetworkModel::Options net_options;
  net_options.default_latency = FromUs(fleet.network.latency_us);
  net_options.default_bytes_per_ns = BytesPerNs(fleet.network.bandwidth_gbps);
  network_ = std::make_unique<NetworkModel>(std::move(loops), net_options);
  for (const scenario::LinkSpec& link : fleet.network.links) {
    const int from = link.from < 0 ? frontend : link.from;
    const int to = link.to < 0 ? frontend : link.to;
    const Duration latency = link.latency_us >= 0 ? FromUs(link.latency_us)
                                                  : net_options.default_latency;
    const double bpn = link.bandwidth_gbps >= 0
                           ? BytesPerNs(link.bandwidth_gbps)
                           : net_options.default_bytes_per_ns;
    network_->SetLink(from, to, latency, bpn);
  }
  request_bytes_ = static_cast<int64_t>(fleet.network.request_bytes);
  response_bytes_ = static_cast<int64_t>(fleet.network.response_bytes);

  LoadBalancer::Options lb_options;
  lb_options.strategy = fleet.balancer.policy;
  lb_options.num_machines = num_machines;
  lb_options.shed_outstanding = fleet.balancer.shed_outstanding;
  lb_options.virtual_nodes = fleet.balancer.virtual_nodes;
  balancer_ = std::make_unique<LoadBalancer>(lb_options);

  // ---- Front-end load: the workload's Poisson phases drive arrivals, with
  // the same per-phase seeds the single-machine path uses. ------------------
  // Service model shared by arrival sampling and leaf RPC sampling.
  if (spec_.workload.service.model == "fixed") {
    service_ = std::make_unique<FixedServiceModel>(
        FromUs(spec_.workload.service.fixed_us));
  } else if (spec_.workload.service.model == "exponential") {
    service_ = std::make_unique<ExponentialServiceModel>(
        FromUs(spec_.workload.service.mean_us));
  } else {
    service_ = std::make_unique<BimodalServiceModel>(
        FromUs(spec_.workload.service.short_us),
        FromUs(spec_.workload.service.long_us), spec_.workload.service.p_long);
  }
  Time phase_start = 0;
  int phase_index = 0;
  for (const scenario::LoadPhase& phase : spec_.workload.phases) {
    const Time start = phase_start;
    const Time end = phase_start + FromMs(phase.duration_ms);
    if (phase.qps > 0) {
      gens_.push_back(std::make_unique<PoissonLoadGen>(
          frontend_loop_.get(), service_.get(), phase.qps,
          spec_.seed + 1000003ULL * static_cast<uint64_t>(phase_index),
          [this](Time, Duration service) { OnArrival(service); }));
      PoissonLoadGen* gen = gens_.back().get();
      frontend_loop_->ScheduleAt(start, [gen, end] { gen->Start(end); });
    }
    phase_start = end;
    ++phase_index;
  }

  // ---- Fleet plan: balancer events run on the front-end loop at their
  // exact times; link events become epoch cuts applied at barriers. ---------
  for (const scenario::FleetEventSpec& event : fleet.plan) {
    const Time when = FromMs(event.at_ms);
    const int machine = event.machine;
    if (event.kind == "lb_drain") {
      frontend_loop_->ScheduleAt(
          when, [this, machine] { balancer_->SetDraining(machine, true); });
    } else if (event.kind == "lb_undrain") {
      frontend_loop_->ScheduleAt(
          when, [this, machine] { balancer_->SetDraining(machine, false); });
    } else if (event.kind == "link_down" || event.kind == "link_up") {
      link_cuts_.push_back(when);
    }
  }
  std::sort(link_cuts_.begin(), link_cuts_.end());
  link_cuts_.erase(std::unique(link_cuts_.begin(), link_cuts_.end()),
                   link_cuts_.end());

  // ---- Warmup reset for the end-to-end metrics ----------------------------
  frontend_loop_->ScheduleAt(FromMs(spec_.warmup_ms), [this] {
    e2e_.Reset();
    completed_at_warmup_ = completed_;
  });
}

void Cluster::OnArrival(Duration root_service) {
  const uint64_t session =
      session_rng_.NextBounded(static_cast<uint64_t>(spec_.fleet->sessions));
  const int machine = balancer_->Route(session);
  if (machine < 0) {
    ++shed_;
    return;
  }
  balancer_->OnDispatch(machine);
  const Time arrival = frontend_loop_->now();
  // Leaf service times come from one deterministic stream at the front end,
  // no matter which machines serve the leaves. The message carries the
  // stream's state before this request's draws, and the root replays them
  // in the same order: any fan-out fits in the message.
  const Rng leaf_draws = leaf_rng_;
  for (int i = 1; i < spec_.fleet->rpc_fanout; ++i) {
    service_->Sample(leaf_rng_);
  }
  network_->Send(num_machines(), machine, request_bytes_,
                 [this, machine, arrival, root_service, leaf_draws] {
                   OnMachineRequest(machine, arrival, root_service, leaf_draws);
                 });
}

void Cluster::OnMachineRequest(int machine, Time arrival, Duration root_service,
                               Rng leaf_draws) {
  // Runs on `machine`'s loop at request delivery time. The join lives in the
  // root's table: leaf responses are delivered to the root's loop, so only
  // that loop ever touches it.
  MachineSim* root = machines_[machine].get();
  ++root->rpcs_received;
  const uint32_t join = joins_[machine].Open(RpcJoin{arrival, 0});
  root->SubmitRequest(root_service,
                      [this, machine, join, leaf_draws](Time, Duration) mutable {
                        FanOut(machine, join, leaf_draws);
                      });
}

void Cluster::FanOut(int machine, uint32_t join, Rng& leaf_draws) {
  // Root service done: fan out to the next rpc_fanout-1 machines.
  int& remaining = joins_[machine].joins[join].remaining;
  remaining = spec_.fleet->rpc_fanout - 1;
  if (remaining == 0) {
    Respond(machine, join);
    return;
  }
  for (int i = 0; i < spec_.fleet->rpc_fanout - 1; ++i) {
    const int leaf = (machine + 1 + i) % num_machines();
    const Duration leaf_service = service_->Sample(leaf_draws);
    network_->Send(machine, leaf, request_bytes_,
                   [this, machine, leaf, leaf_service, join] {
                     OnLeafRequest(machine, leaf, leaf_service, join);
                   });
  }
}

void Cluster::OnLeafRequest(int machine, int leaf, Duration service, uint32_t join) {
  // Runs on the leaf's loop; `join` is only carried back to the root.
  MachineSim* leaf_sim = machines_[leaf].get();
  ++leaf_sim->rpcs_received;
  leaf_sim->SubmitRequest(service, [this, machine, leaf, join](Time, Duration) {
    network_->Send(leaf, machine, response_bytes_, [this, machine, join] {
      if (--joins_[machine].joins[join].remaining == 0) {
        Respond(machine, join);
      }
    });
  });
}

void Cluster::Respond(int machine, uint32_t join) {
  // Runs on the root machine's loop; the response crosses back to the front
  // end, where completion bookkeeping happens on the front-end loop.
  const Time arrival = joins_[machine].joins[join].arrival;
  joins_[machine].free.push_back(join);
  network_->Send(machine, num_machines(), response_bytes_,
                 [this, machine, arrival] {
                   balancer_->OnComplete(machine);
                   ++completed_;
                   e2e_.Add(frontend_loop_->now() - arrival);
                 });
}

void Cluster::RunFleet() {
  const scenario::FleetSpec& fleet = *spec_.fleet;
  const Time t_end =
      FromMs(spec_.warmup_ms) + FromMs(spec_.measure_ms) + FromMs(spec_.drain_ms);
  const Duration lookahead = network_->min_latency();
  CHECK_GT(lookahead, 0);

  // Link events at t=0 apply before anything runs.
  auto apply_link_events_at = [&](Time t) {
    for (const scenario::FleetEventSpec& event : fleet.plan) {
      if (FromMs(event.at_ms) != t) {
        continue;
      }
      if (event.kind == "link_down") {
        network_->SetNodeLinked(event.machine, false, t);
      } else if (event.kind == "link_up") {
        network_->SetNodeLinked(event.machine, true, t);
      }
    }
  };
  size_t next_cut = 0;
  while (next_cut < link_cuts_.size() && link_cuts_[next_cut] == 0) {
    apply_link_events_at(0);
    ++next_cut;
  }

  BatchRunner runner(jobs_);
  const int nodes = num_machines() + 1;
  Time t = 0;
  Time next = 0;
  // One pass per epoch: each node first merges the messages the last epoch
  // sent it, then advances to the barrier. Nodes share nothing mid-epoch,
  // so the pool only changes wall-clock time, never results.
  const std::function<void(int)> pass = [this, &next](int node) {
    network_->DeliverInbound(node);
    if (node < num_machines()) {
      machines_[node]->AdvanceUntil(next);
    } else {
      frontend_loop_->RunUntil(next);
    }
  };
  while (t < t_end) {
    next = std::min(t + lookahead, t_end);
    if (next_cut < link_cuts_.size() && link_cuts_[next_cut] > t) {
      next = std::min(next, link_cuts_[next_cut]);
    }
    runner.Run(nodes, pass);
    network_->EndEpoch();
    ++epochs_;
    if (next_cut < link_cuts_.size() && link_cuts_[next_cut] == next) {
      apply_link_events_at(next);
      ++next_cut;
    }
    t = next;
  }
  // The last epoch's messages are in flight at the end of the run; schedule
  // them so delivered() counts them like every earlier epoch's.
  for (int node = 0; node < nodes; ++node) {
    network_->DeliverInbound(node);
  }
  for (const std::unique_ptr<MachineSim>& machine : machines_) {
    machine->FinishChecks();
  }
}

void Cluster::CollectFleet(scenario::ScenarioResult* result) {
  int64_t generated = 0;
  for (const auto& gen : gens_) {
    generated += gen->generated();
  }
  result->exact["generated"] = generated;
  result->exact["completed"] = completed_;
  result->exact["shed"] = shed_;
  int64_t rpcs = 0;
  int64_t routed_total = 0;
  int64_t routed_max = 0;
  for (int m = 0; m < num_machines(); ++m) {
    rpcs += machines_[m]->rpcs_received;
    routed_total += balancer_->routed(m);
    routed_max = std::max(routed_max, balancer_->routed(m));
  }
  result->exact["rpcs"] = rpcs;
  result->exact["net_messages"] = network_->delivered();
  result->exact["net_parked"] = network_->parked();

  const Duration measure_window =
      FromMs(spec_.measure_ms) + FromMs(spec_.drain_ms);
  result->envelopes["achieved_kqps"] =
      static_cast<double>(completed_ - completed_at_warmup_) /
      ToSeconds(measure_window) / 1e3;
  result->envelopes["p50_us"] = e2e_.PercentileUs(50);
  result->envelopes["p99_us"] = e2e_.PercentileUs(99);
  result->envelopes["p999_us"] = e2e_.PercentileUs(99.9);
  if (routed_total > 0) {
    result->envelopes["lb_max_share"] =
        static_cast<double>(routed_max) / static_cast<double>(routed_total);
  }

  if (spec_.invariants.enabled) {
    result->exact["invariants_ok"] = 1;
    result->exact["invariant_violations"] = 0;
  }
  for (int m = 0; m < num_machines(); ++m) {
    machines_[m]->CollectFleet(result, m);
  }
  if (stats_ != nullptr) {
    // Machines own their registries, so their loops' work counts go
    // straight to the harness registry, front end included.
    for (const std::unique_ptr<MachineSim>& machine : machines_) {
      stats_->MergeFrom(machine->stats());
      machine->loop().counters().ExportTo(stats_);
    }
    frontend_loop_->counters().ExportTo(stats_);
    stats_->AddLayerCount("fleet.epochs", static_cast<uint64_t>(epochs_));
    stats_->AddLayerCount("fleet.net_delivered",
                          static_cast<uint64_t>(network_->delivered()));
  }
}

scenario::ScenarioResult Cluster::Run() {
  scenario::ScenarioResult result;
  result.name = spec_.name;
  result.seed = spec_.seed;
  if (!fleet_mode_) {
    machines_[0]->RunLocal();
    machines_[0]->CollectLocal(&result);
    return result;
  }
  RunFleet();
  CollectFleet(&result);
  return result;
}

}  // namespace fleet
}  // namespace gs
