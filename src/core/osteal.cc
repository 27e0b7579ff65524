#include "core/osteal.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "obs/trace.h"
#include "solver/steal_problem.h"

namespace gum::core {

OStealDecision DecideOSteal(const std::vector<std::vector<double>>& cost,
                            const std::vector<double>& loads,
                            const sim::ReductionSchedule& schedule,
                            double sync_per_peer_ns,
                            int max_group_size) {
  GUM_TRACE_SCOPE("osteal.decide");
  const int n = schedule.num_devices();
  const int limit =
      max_group_size > 0 ? std::min(max_group_size, n) : n;
  OStealDecision best;
  best.evaluated = true;
  best.predicted_cost_ns = std::numeric_limits<double>::infinity();

  Stopwatch timer;
  for (int m = 1; m <= limit; ++m) {
    // Exact early exit: z(m') >= 0 and p*m' >= p*m for every m' >= m (costs,
    // loads and p are non-negative; IEEE rounding is monotone), so once the
    // sync term alone reaches the incumbent no larger group can beat it
    // under the strict `<` below.
    if (sync_per_peer_ns * m >= best.predicted_cost_ns) break;
    const std::vector<int> active = schedule.ActiveFor(m);

    auto plan = solver::SolveStealProblem(cost, loads, active);
    if (!plan.ok()) {
      GUM_LOG(Warning) << "OSteal inner solve failed for m=" << m << ": "
                       << plan.status().ToString();
      continue;
    }
    best.lp_iterations_total += plan->lp_iterations;
    best.milp_nodes_total += plan->milp_nodes;
    const double total = plan->makespan + sync_per_peer_ns * m;
    if (total < best.predicted_cost_ns) {
      best.predicted_cost_ns = total;
      best.group_size = m;
    }
  }
  GUM_CHECK(best.group_size >= 1) << "OSteal found no feasible group size";
  best.owner = schedule.OwnerVectorFor(best.group_size);
  best.active = schedule.ActiveFor(best.group_size);
  best.decision_host_ms = timer.ElapsedMillis();
  return best;
}

}  // namespace gum::core
