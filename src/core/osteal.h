// Ownership stealing (paper §IV, Algorithm 2).
//
// When the per-iteration synchronization overhead p*m rivals the kernel
// time (the long-tail regime), GUM shrinks the communication group: the
// reduction schedule proposes, for every candidate group size m in [1, n],
// which devices survive and who inherits the evicted fragments; the FSteal
// MILP estimates the kernel makespan z(m) under each candidate; and the
// policy minimizing z(m) + p*m wins (Eq. 4).

#ifndef GUM_CORE_OSTEAL_H_
#define GUM_CORE_OSTEAL_H_

#include <vector>

#include "sim/reduction_schedule.h"

namespace gum::core {

struct OStealConfig {
  // Example 5: evaluate OSteal only when the previous iteration's wall time
  // fell below this threshold (synchronization-bound regime).
  double t3_trigger_ms = 2.0;
};

struct OStealDecision {
  bool evaluated = false;
  int group_size = 0;            // chosen m
  std::vector<int> owner;        // device owning each fragment
  std::vector<int> active;       // surviving devices, ascending
  double predicted_cost_ns = 0;  // z + p*m of the winner
  double decision_host_ms = 0;   // measured wall time of the enumeration
  // Solver effort summed over every candidate group size evaluated.
  int64_t lp_iterations_total = 0;
  int64_t milp_nodes_total = 0;
};

// The communication group between supersteps: what Step 2 and fault
// recovery decide, and what the next Step-2 trigger reads. The engine's
// checkpoints snapshot it whole (fault/checkpoint.h).
struct GroupState {
  std::vector<int> owner_of_fragment;  // device owning each fragment
  std::vector<int> active;             // devices in the group, ascending
  double p_estimate_ns = 0.0;          // Eq. (4)'s p, estimated online
  double prev_wall_ms = 0.0;           // the previous superstep's wall
};

// Enumerates m = 1..n over the reduction schedule, stopping at the first m
// whose sync term p*m alone reaches the best total so far (no larger group
// can win, so the decision equals the full enumeration's). `cost` is the full
// (un-restricted) coefficient matrix from BuildCostMatrix with all devices
// allowed; columns are forbidden per-candidate internally. Costs, loads and
// `sync_per_peer_ns` (the estimated p of Eq. (4) in ns) must be
// non-negative. `max_group_size` caps the
// enumeration (0 means every device): after a fail-stop the recovery path
// passes the survivor count so the dead devices' group sizes are never
// candidates.
OStealDecision DecideOSteal(const std::vector<std::vector<double>>& cost,
                            const std::vector<double>& loads,
                            const sim::ReductionSchedule& schedule,
                            double sync_per_peer_ns,
                            int max_group_size = 0);

}  // namespace gum::core

#endif  // GUM_CORE_OSTEAL_H_
