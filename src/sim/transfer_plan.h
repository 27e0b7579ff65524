// Multi-path transfer plans and topology-aware reduction trees
// (DESIGN.md §8; Sojoodi et al. "Accelerating Intra-Node GPU-to-GPU
// Communication Through Multi-Path Transfers", Pan et al. "Multi-GPU Graph
// Analytics" — see PAPERS.md).
//
// Single-path routing leaves parallel NVLink/PCIe capacity idle for bulk
// payloads: a TransferPlan stripes one (src, dst) transfer across
// link-disjoint paths — the direct lane, 2-hop routes via distinct transit
// devices, and the PCIe/QPI pool — splitting bytes proportionally to path
// bandwidth so every stripe finishes together when uncontended. Striped
// chunks are settled as ordinary flows under the CommPlane's `fair`
// max-min model, so they contend honestly per directed lane. The planner
// consults *fault-scaled* direct bandwidths: a downed link simply is not
// offered as a path and a degraded link gets a proportionally smaller
// stripe — the fault overlay drops a path from the plan, never the whole
// transfer.
//
// A ReductionTree replaces the census/aggregation phase's all-to-one sync
// with a deterministic topology-aware tree (hybrid-cube-mesh-shaped where
// the NVLink graph supports it, falling back to the legacy star): each
// device synchronizes with its tree neighbors plus the tree height
// (the barrier's critical path) instead of the whole group.
//
// Everything here is disabled by default (`--multipath=off`); `kOff`
// contention and single-path `fair` stay byte-identical to the pre-plan
// build. Plans only ever change simulated time and telemetry — never
// algorithm values (DESIGN.md §7).

#ifndef GUM_SIM_TRANSFER_PLAN_H_
#define GUM_SIM_TRANSFER_PLAN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"

namespace gum::sim {

// The feature knob (EngineOptions::multipath, --multipath=off|on).
enum class MultipathMode {
  kOff,  // single-path routing everywhere (byte-identical to pre-plan build)
  kOn,   // stripe bulk transfers + tree-shaped census sync (fair model only)
};

const char* MultipathModeName(MultipathMode mode);
Result<MultipathMode> ParseMultipathMode(const std::string& name);

// One link-disjoint path of a striped transfer.
struct PlanPath {
  int transit = -1;       // >= 0: 2-hop route via this device
  bool via_pcie = false;  // the PCIe/QPI pool path
  double gbps = 0.0;      // planning bandwidth of the whole path
  double fraction = 0.0;  // share of the payload striped onto this path
};

// The multi-path split chosen for one (src, dst) bulk transfer.
struct TransferPlan {
  int src = 0;
  int dst = 0;
  std::vector<PlanPath> paths;    // bandwidth-descending, deterministic
  double total_gbps = 0.0;        // sum of path bandwidths
  double best_single_gbps = 0.0;  // what single-path routing would use
  int paths_dropped = 0;          // nominal paths removed by the fault overlay
  bool striped() const { return paths.size() > 1; }
  // Aggregate-over-best-single bandwidth ratio (>= 1; the up-to-~3x link
  // utilization headline of the multi-path papers).
  double StripeEfficiency() const {
    return best_single_gbps > 0.0 ? total_gbps / best_single_gbps : 1.0;
  }
};

class TransferPlanner {
 public:
  // `direct(i, j)` returns the (possibly fault-scaled) direct link
  // bandwidth in GB/s, 0 when the pair has no usable direct link. The
  // candidate set — direct lane, one 2-hop route per transit device, the
  // PCIe pool — is mutually link-disjoint by construction. Deterministic:
  // candidates order by (bandwidth desc, kind, transit id). A plan stripes
  // across at most 4 paths, payloads under 32 KiB stay single-path, and a
  // path slower than 10% of the best candidate gets no stripe.
  using DirectFn = std::function<double(int, int)>;
  static TransferPlan Build(int src, int dst, int num_devices, double bytes,
                            const DirectFn& direct);
};

// Deterministic topology-aware aggregation tree over the active devices:
// a maximum-bandwidth spanning tree grown Prim-style over the (possibly
// fault-scaled) direct NVLink graph. Devices unreachable over NVLink
// attach directly to the root (the legacy star edge); with no NVLink at
// all the tree degenerates to the star and SyncFactor reproduces the
// legacy all-to-one charge exactly.
struct ReductionTree {
  int root = -1;
  int members = 0;            // active devices spanned
  int height = 0;             // max depth (root = 0)
  bool star = false;          // pure all-to-one fallback (no NVLink edge)
  std::vector<int> parent;    // device-indexed; -1 for the root / non-members
  std::vector<int> children;  // child count per device
  std::vector<int> depth;     // hops to the root; -1 for non-members

  bool InTree(int device) const {
    return device >= 0 && device < static_cast<int>(depth.size()) &&
           depth[device] >= 0;
  }
  // Per-device synchronization multiplier replacing the all-to-one group
  // factor m of Eq. (4): tree neighbors (children + the parent link) plus
  // the tree height (the barrier's critical path). Star fallback returns
  // m for every member — bit-identical to the legacy charge.
  double SyncFactor(int device) const;

  static ReductionTree Build(int num_devices, const std::vector<int>& active,
                             const TransferPlanner::DirectFn& direct);
};

// Per-run striping telemetry, accumulated by the CommPlane across bulk
// settles and exported through RunResult (rendered by gum_cli
// --show-links; the run report's `comm.multipath` section).
struct MultipathStats {
  int64_t bulk_transfers = 0;    // plan-eligible transfers settled
  int64_t striped_transfers = 0; // split across more than one path
  int64_t paths_used = 0;        // stripes launched across all plans
  int64_t paths_dropped = 0;     // nominal paths removed by the fault overlay
  double direct_bytes = 0.0;     // striped bytes by path kind
  double transit_bytes = 0.0;
  double pcie_bytes = 0.0;
  double single_path_ns = 0.0;   // solo time of the payloads, best single path
  double striped_ns = 0.0;       // solo time of the payloads under the plans
  // Aggregate stripe efficiency: uncontended single-path time over striped
  // time (>= 1 when striping helps).
  double StripeEfficiency() const {
    return striped_ns > 0.0 ? single_path_ns / striped_ns : 1.0;
  }
};

// Human-readable striping summary (gum_cli --show-links).
std::string RenderMultipathAscii(const MultipathStats& stats);

}  // namespace gum::sim

#endif  // GUM_SIM_TRANSFER_PLAN_H_
