#include "src/topology/topology.h"

#include <utility>

#include "src/base/logging.h"

namespace gs {

const char* ToString(PlacementDistance distance) {
  switch (distance) {
    case PlacementDistance::kSameCpu:
      return "same-cpu";
    case PlacementDistance::kSameCore:
      return "same-core";
    case PlacementDistance::kSameCcx:
      return "same-ccx";
    case PlacementDistance::kSameNuma:
      return "same-numa";
    case PlacementDistance::kCrossNuma:
      return "cross-numa";
  }
  return "?";
}

Topology Topology::Make(std::string name, int sockets, int cores_per_socket, int smt,
                        int cores_per_ccx) {
  CHECK_GE(sockets, 1);
  CHECK_GE(cores_per_socket, 1);
  CHECK(smt == 1 || smt == 2) << "only SMT1/SMT2 supported";
  CHECK_GE(cores_per_ccx, 1);
  CHECK_EQ(cores_per_socket % cores_per_ccx, 0)
      << "cores_per_ccx must divide cores_per_socket";

  Topology topo;
  topo.name_ = std::move(name);
  topo.smt_ = smt;
  topo.num_cores_ = sockets * cores_per_socket;
  topo.num_numa_nodes_ = sockets;
  topo.num_ccxs_ = topo.num_cores_ / cores_per_ccx;

  const int num_cpus = topo.num_cores_ * smt;
  CHECK_LE(num_cpus, CpuMask::kMaxCpus);
  topo.cpus_.resize(num_cpus);

  for (int core = 0; core < topo.num_cores_; ++core) {
    const int socket = core / cores_per_socket;
    const int ccx = core / cores_per_ccx;
    for (int t = 0; t < smt; ++t) {
      const int id = core + t * topo.num_cores_;
      CpuInfo& info = topo.cpus_[id];
      info.id = id;
      info.core = core;
      info.smt_index = t;
      info.sibling = smt == 2 ? (t == 0 ? id + topo.num_cores_ : id - topo.num_cores_) : -1;
      info.ccx = ccx;
      info.numa = socket;
    }
  }
  topo.BuildMaskCaches();
  return topo;
}

void Topology::BuildMaskCaches() {
  core_masks_.assign(num_cores_, CpuMask());
  ccx_masks_.assign(num_ccxs_, CpuMask());
  numa_masks_.assign(num_numa_nodes_, CpuMask());
  for (const CpuInfo& info : cpus_) {
    core_masks_[info.core].Set(info.id);
    ccx_masks_[info.ccx].Set(info.id);
    numa_masks_[info.numa].Set(info.id);
  }
}

Topology Topology::IntelSkylake112() {
  // Xeon Platinum 8173M: one L3 per socket, so CCX == socket.
  return Make("skylake-112", /*sockets=*/2, /*cores_per_socket=*/28, /*smt=*/2,
              /*cores_per_ccx=*/28);
}

Topology Topology::IntelHaswell72() {
  return Make("haswell-72", /*sockets=*/2, /*cores_per_socket=*/18, /*smt=*/2,
              /*cores_per_ccx=*/18);
}

Topology Topology::IntelE5_24() {
  // §4.2 uses a single socket of a 2-socket E5-2658: 12 cores, 24 CPUs.
  return Make("e5-24", /*sockets=*/1, /*cores_per_socket=*/12, /*smt=*/2, /*cores_per_ccx=*/12);
}

Topology Topology::AmdRome256() {
  // 2 sockets x 64 cores, clustered in 4-core CCXs each with its own L3 (§4.4).
  return Make("rome-256", /*sockets=*/2, /*cores_per_socket=*/64, /*smt=*/2,
              /*cores_per_ccx=*/4);
}

const CpuMask& Topology::CoreMask(int core) const {
  DCHECK_GE(core, 0);
  DCHECK_LT(core, static_cast<int>(core_masks_.size()));
  return core_masks_[core];
}

const CpuMask& Topology::CcxMask(int ccx) const {
  DCHECK_GE(ccx, 0);
  DCHECK_LT(ccx, static_cast<int>(ccx_masks_.size()));
  return ccx_masks_[ccx];
}

const CpuMask& Topology::NumaMask(int numa) const {
  DCHECK_GE(numa, 0);
  DCHECK_LT(numa, static_cast<int>(numa_masks_.size()));
  return numa_masks_[numa];
}

PlacementDistance Topology::Distance(int from_cpu, int to_cpu) const {
  const CpuInfo& a = cpu(from_cpu);
  const CpuInfo& b = cpu(to_cpu);
  if (a.id == b.id) {
    return PlacementDistance::kSameCpu;
  }
  if (a.core == b.core) {
    return PlacementDistance::kSameCore;
  }
  if (a.ccx == b.ccx) {
    return PlacementDistance::kSameCcx;
  }
  if (a.numa == b.numa) {
    return PlacementDistance::kSameNuma;
  }
  return PlacementDistance::kCrossNuma;
}

}  // namespace gs
