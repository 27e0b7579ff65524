// Frontier stealing (paper §III, Algorithm 1).
//
// Per iteration: build the cost coefficient matrix
//     c_ij = bytes_per_edge / B_eff(i, j) + g(W_i)        [ns per edge]
// (communication plus estimated compute, paper §III-B), solve the min-max
// MILP of Eq. (1) for the touched-edges matrix X, and convert each row of X
// into contiguous frontier-vertex ranges by searching the census's prefix
// sum over out-degrees (Algorithm 1, lines 9-18).

#ifndef GUM_CORE_FSTEAL_H_
#define GUM_CORE_FSTEAL_H_

#include <span>
#include <utility>
#include <vector>

#include "core/edge_cost_model.h"
#include "graph/frontier_features.h"
#include "graph/types.h"
#include "sim/comm_plane.h"

namespace gum::core {

struct FStealConfig {
  // Example 5 thresholds: steal only when there is enough work to cover the
  // decision overhead (t1, in active edges) and the loads are actually
  // imbalanced (t2, in active edges).
  double t1_min_max_load = 4096;
  double t2_min_imbalance = 2048;
  bool use_greedy = false;  // LPT heuristic instead of the MILP (ablation)
  bool exact_milp = false;  // exact B&B instead of LP + rounding
};

struct FStealDecision {
  bool applied = false;
  // assignment[i][j]: active edges of fragment i processed by worker j.
  // Read only when `applied` is set; otherwise every fragment stays with
  // its owner, and the BSP loop leaves this empty when FSteal does not run.
  std::vector<std::vector<double>> assignment;
  double predicted_makespan_ns = 0.0;
  double decision_host_ms = 0.0;  // measured wall time of the decision
  // Solver effort behind the plan (0 when thresholds skipped the solve):
  // simplex iterations, branch-and-bound nodes (exact mode only), and the
  // number of off-owner assignment cells — the plan's "size".
  int lp_iterations = 0;
  int milp_nodes = 0;
  int plan_cells = 0;
};

// Builds the full n x n cost coefficient matrix. `remote_discount[i]` scales
// the remote-transfer term of row i (hub-cache optimization, Example 6:
// cached adjacency is read locally); 1.0 = no caching. Workers not in
// `active_workers` get +infinity columns (OSteal interaction, §V-A step 3).
// Transfer terms are the plane's uncontended path predictions — the policy
// plans against nominal link speed in both contention modes.
std::vector<std::vector<double>> BuildCostMatrix(
    const std::vector<graph::FrontierFeatures>& features,
    const std::vector<double>& remote_discount, const EdgeCostModel& model,
    const sim::CommPlane& plane, const std::vector<int>& active_workers);

// Decides the iteration's assignment. `loads[i]` = active edges of fragment
// i; `owner_of_fragment[i]` = device that would process fragment i without
// stealing (identity plan). Thresholds are evaluated over active workers'
// *effective* loads (sum of their owned fragments).
FStealDecision DecideFSteal(const std::vector<std::vector<double>>& cost,
                            const std::vector<double>& loads,
                            const std::vector<int>& owner_of_fragment,
                            const std::vector<int>& active_workers,
                            const FStealConfig& config);

// Algorithm 1 lines 9-18: splits one fragment's frontier into per-worker
// contiguous ranges whose out-edge counts match `quota_row` as closely as
// vertex granularity allows ("we select a group of vertices associated
// with required number of edges"). `degree_prefix` is the frontier's
// inclusive out-degree prefix (FrontierCensus::degree_prefix). Returns
// [begin, end) index pairs into the frontier, one per entry of `workers`.
std::vector<std::pair<size_t, size_t>> SelectStolenRanges(
    std::span<const graph::EdgeId> degree_prefix,
    const std::vector<double>& quota_row, const std::vector<int>& workers);

}  // namespace gum::core

#endif  // GUM_CORE_FSTEAL_H_
