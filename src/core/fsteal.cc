#include "core/fsteal.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "obs/trace.h"
#include "solver/steal_problem.h"

namespace gum::core {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

// Off-owner cells of the plan — its "size" in the run report.
int CountPlanCells(const std::vector<std::vector<double>>& assignment,
                   const std::vector<int>& owner_of_fragment) {
  int cells = 0;
  for (size_t i = 0; i < assignment.size(); ++i) {
    for (size_t j = 0; j < assignment[i].size(); ++j) {
      if (assignment[i][j] > 0.0 &&
          static_cast<int>(j) != owner_of_fragment[i]) {
        ++cells;
      }
    }
  }
  return cells;
}
}  // namespace

std::vector<std::vector<double>> BuildCostMatrix(
    const std::vector<graph::FrontierFeatures>& features,
    const std::vector<double>& remote_discount, const EdgeCostModel& model,
    const sim::CommPlane& plane, const std::vector<int>& active_workers) {
  const int n = plane.num_devices();
  GUM_CHECK(static_cast<int>(features.size()) == n);
  GUM_CHECK(static_cast<int>(remote_discount.size()) == n);

  std::vector<bool> active(n, false);
  for (int j : active_workers) active[j] = true;

  std::vector<std::vector<double>> cost(n, std::vector<double>(n, kInf));
  for (int i = 0; i < n; ++i) {
    const double g = model.EdgeCostNs(features[i]);
    for (int j = 0; j < n; ++j) {
      if (!active[j]) continue;  // OSteal-evicted: c_ij = infinity
      const double transfer =
          plane.PointToPointNs(i, j, sim::kBytesPerRemoteEdge) *
          (i == j ? 1.0 : remote_discount[i]);
      cost[i][j] = transfer + g;
    }
  }
  return cost;
}

FStealDecision DecideFSteal(const std::vector<std::vector<double>>& cost,
                            const std::vector<double>& loads,
                            const std::vector<int>& owner_of_fragment,
                            const std::vector<int>& active_workers,
                            const FStealConfig& config) {
  GUM_TRACE_SCOPE("fsteal.decide");
  const int n = static_cast<int>(loads.size());
  FStealDecision decision;
  decision.assignment.assign(n, std::vector<double>(n, 0.0));
  for (int i = 0; i < n; ++i) {
    decision.assignment[i][owner_of_fragment[i]] = loads[i];
  }
  decision.predicted_makespan_ns =
      solver::PlanMakespan(cost, decision.assignment);

  // Example 5 activation thresholds, evaluated on per-worker effective
  // loads.
  std::vector<double> worker_load(n, 0.0);
  for (int i = 0; i < n; ++i) worker_load[owner_of_fragment[i]] += loads[i];
  double max_load = 0.0, min_load = kInf;
  for (int j : active_workers) {
    max_load = std::max(max_load, worker_load[j]);
    min_load = std::min(min_load, worker_load[j]);
  }
  if (max_load < config.t1_min_max_load ||
      max_load - min_load < config.t2_min_imbalance) {
    return decision;  // identity plan, stealing not worth it
  }

  Stopwatch timer;
  if (config.use_greedy) {
    solver::StealPlan plan =
        solver::GreedyStealPlan(cost, loads, active_workers);
    decision.decision_host_ms = timer.ElapsedMillis();
    if (plan.makespan < decision.predicted_makespan_ns) {
      decision.assignment = std::move(plan.assignment);
      decision.predicted_makespan_ns = plan.makespan;
      decision.applied = true;
      decision.plan_cells =
          CountPlanCells(decision.assignment, owner_of_fragment);
    }
    return decision;
  }

  solver::StealProblemOptions options;
  options.exact_milp = config.exact_milp;
  auto plan = solver::SolveStealProblem(cost, loads, active_workers, options);
  decision.decision_host_ms = timer.ElapsedMillis();
  if (!plan.ok()) {
    GUM_LOG(Warning) << "FSteal solver failed (" << plan.status().ToString()
                     << "); keeping identity plan";
    return decision;
  }
  decision.lp_iterations = plan->lp_iterations;
  decision.milp_nodes = plan->milp_nodes;
  if (plan->makespan < decision.predicted_makespan_ns) {
    decision.assignment = std::move(plan->assignment);
    decision.predicted_makespan_ns = plan->makespan;
    decision.applied = true;
    decision.plan_cells =
        CountPlanCells(decision.assignment, owner_of_fragment);
  }
  return decision;
}

std::vector<std::pair<size_t, size_t>> SelectStolenRanges(
    std::span<const graph::EdgeId> degree_prefix,
    const std::vector<double>& quota_row, const std::vector<int>& workers) {
  // F = prefix sum of the quota row in worker order (line 14), rounded to
  // whole edges: next_quota(w, &running) is F[w] when `running` holds the
  // quotas of workers before w. A worker whose F does not rise has none.
  const auto next_quota = [&quota_row, &workers](size_t w, double* running) {
    *running += quota_row[workers[w]];
    return static_cast<uint64_t>(std::llround(*running));
  };
  // The last worker with a positive quota also absorbs the rounding
  // remainder (and any zero-out-degree tail of the frontier).
  size_t last_pos = workers.size();
  double running = 0.0;
  uint64_t prev = 0;
  for (size_t w = 0; w < workers.size(); ++w) {
    const uint64_t quota = next_quota(w, &running);
    if (quota > prev) last_pos = w;
    prev = quota;
  }

  const size_t size = degree_prefix.size();
  std::vector<std::pair<size_t, size_t>> ranges(workers.size());
  size_t begin = 0;
  running = 0.0;
  prev = 0;
  for (size_t w = 0; w < workers.size(); ++w) {
    const uint64_t quota = next_quota(w, &running);
    size_t end;
    if (quota <= prev) {
      end = begin;  // zero quota: empty range
    } else if (w == last_pos) {
      end = size;
    } else {
      // F = SortedSearch(F, D) (line 15): split after the vertex where the
      // cumulative degree first reaches the quota boundary.
      const size_t split = static_cast<size_t>(
          std::lower_bound(degree_prefix.begin(), degree_prefix.end(),
                           quota) -
          degree_prefix.begin());
      end = std::clamp(split + 1, begin, size);
    }
    ranges[w] = {begin, end};
    begin = end;
    prev = quota;
  }
  return ranges;
}

}  // namespace gum::core
