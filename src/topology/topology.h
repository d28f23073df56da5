// Machine topology model: logical CPUs, SMT siblings, physical cores,
// CCX/L3 complexes, and NUMA sockets.
//
// The ghOSt paper's experiments span four machines (2-socket Skylake and
// Haswell Xeons, a single-socket E5 v4, and a 2-socket AMD Rome part with
// 256 CPUs and 4-core CCXs). Scheduling policies query this model the same
// way the paper's agents parse sysfs at startup (§4.4): siblings for SMT
// decisions, CCX masks for L3 locality, NUMA masks and distances for
// placement, plus a placement-distance lattice used by cache-warmth models.
#ifndef GHOST_SIM_SRC_TOPOLOGY_TOPOLOGY_H_
#define GHOST_SIM_SRC_TOPOLOGY_TOPOLOGY_H_

#include <string>
#include <vector>

#include "src/base/cpumask.h"
#include "src/base/logging.h"

namespace gs {

// How "far" a destination CPU is from where a task last ran; the Search
// policy (§4.4) searches these tiers inside-out.
enum class PlacementDistance {
  kSameCpu = 0,
  kSameCore = 1,   // SMT sibling: shares L1/L2
  kSameCcx = 2,    // shares L3
  kSameNuma = 3,   // same socket, different L3
  kCrossNuma = 4,  // remote socket
};

const char* ToString(PlacementDistance distance);

struct CpuInfo {
  int id = -1;
  int core = -1;       // physical core index (machine-wide)
  int smt_index = -1;  // 0 = primary hyperthread, 1 = secondary
  int sibling = -1;    // other logical CPU on the same core; -1 if SMT off
  int ccx = -1;        // L3 complex index (machine-wide)
  int numa = -1;       // NUMA node / socket
};

class Topology {
 public:
  // Generic builder. Logical CPU enumeration follows the common Linux x86
  // convention: CPUs [0, num_cores) are the primary hyperthreads (socket-major
  // order) and CPUs [num_cores, 2*num_cores) are their SMT siblings.
  static Topology Make(std::string name, int sockets, int cores_per_socket, int smt,
                       int cores_per_ccx);

  // The paper's machines.
  static Topology IntelSkylake112();  // §4.1, §4.3, §4.5: 2s x 28c x 2t
  static Topology IntelHaswell72();   // Fig 5: 2s x 18c x 2t
  static Topology IntelE5_24();       // §4.2: single socket of E5-2658, 12c x 2t
  static Topology AmdRome256();       // §4.4: 2s x 64c x 2t, 4-core CCXs

  const std::string& name() const { return name_; }
  int num_cpus() const { return static_cast<int>(cpus_.size()); }
  int num_cores() const { return num_cores_; }
  int num_ccxs() const { return num_ccxs_; }
  int num_numa_nodes() const { return num_numa_nodes_; }
  int smt() const { return smt_; }

  const CpuInfo& cpu(int id) const {
    CHECK_GE(id, 0);
    CHECK_LT(id, num_cpus());
    return cpus_[id];
  }
  const std::vector<CpuInfo>& cpus() const { return cpus_; }

  CpuMask AllCpus() const { return CpuMask::AllUpTo(num_cpus()); }
  // Cached per-tier masks (built once at construction): placement policies
  // call these inside per-task scan loops, so a rebuild-by-scanning-every-CPU
  // implementation dominated the Search policy's profile.
  const CpuMask& CoreMask(int core) const;
  const CpuMask& CcxMask(int ccx) const;
  const CpuMask& NumaMask(int numa) const;

  PlacementDistance Distance(int from_cpu, int to_cpu) const;

  // Relative NUMA distance in the style of the SLIT table: 10 local, 21 remote.
  int NumaDistance(int from_node, int to_node) const { return from_node == to_node ? 10 : 21; }

 private:
  Topology() = default;

  // Fills core_masks_/ccx_masks_/numa_masks_ from cpus_.
  void BuildMaskCaches();

  std::string name_;
  int smt_ = 1;
  int num_cores_ = 0;
  int num_ccxs_ = 0;
  int num_numa_nodes_ = 0;
  std::vector<CpuInfo> cpus_;
  std::vector<CpuMask> core_masks_;
  std::vector<CpuMask> ccx_masks_;
  std::vector<CpuMask> numa_masks_;
};

}  // namespace gs

#endif  // GHOST_SIM_SRC_TOPOLOGY_TOPOLOGY_H_
