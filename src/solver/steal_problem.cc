#include "solver/steal_problem.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>

#include "common/logging.h"
#include "obs/trace.h"
#include "solver/milp.h"
#include "solver/simplex.h"

namespace gum::solver {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// The exact solve's relative gap. The min-max plateau makes proving tiny
// gaps expensive; half a percent is far below the vertex-granularity
// rounding error anyway.
constexpr double kMilpGapTolerance = 5e-3;

// Rounds a fractional row to integers summing exactly to `target`:
// floor everything, then hand out the remaining units to the largest
// fractional parts.
void RoundRowToTarget(std::vector<double>& row, double target) {
  std::vector<double> fractional(row.size());
  double floored_sum = 0;
  for (size_t j = 0; j < row.size(); ++j) {
    const double f = std::floor(std::max(0.0, row[j]));
    fractional[j] = std::max(0.0, row[j]) - f;
    row[j] = f;
    floored_sum += f;
  }
  long long remaining =
      static_cast<long long>(std::llround(target - floored_sum));
  std::vector<size_t> order(row.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return fractional[a] > fractional[b];
  });
  for (size_t k = 0; remaining > 0 && k < order.size(); ++k) {
    row[order[k]] += 1.0;
    --remaining;
  }
  // If rounding overshot (target smaller than floored sum, shouldn't happen
  // with a feasible LP), trim from the smallest entries.
  for (size_t k = order.size(); remaining < 0 && k-- > 0;) {
    if (row[order[k]] >= 1.0) {
      row[order[k]] -= 1.0;
      ++remaining;
    }
  }
}

}  // namespace

double PlanMakespan(const std::vector<std::vector<double>>& cost,
                    const std::vector<std::vector<double>>& assignment) {
  const size_t n = cost.size();
  double makespan = 0;
  for (size_t j = 0; j < n; ++j) {
    double finish = 0;
    for (size_t i = 0; i < n; ++i) {
      if (assignment[i][j] > 0) finish += cost[i][j] * assignment[i][j];
    }
    makespan = std::max(makespan, finish);
  }
  return makespan;
}

Result<StealPlan> SolveStealProblem(
    const std::vector<std::vector<double>>& cost,
    const std::vector<double>& load, const std::vector<int>& active_workers,
    const StealProblemOptions& options) {
  GUM_TRACE_SCOPE("solver.steal_problem");
  const int n = static_cast<int>(cost.size());
  if (n == 0 || static_cast<int>(load.size()) != n) {
    return Status::InvalidArgument("cost/load dimension mismatch");
  }
  for (const auto& row : cost) {
    if (static_cast<int>(row.size()) != n) {
      return Status::InvalidArgument("cost matrix must be square");
    }
  }
  if (active_workers.empty()) {
    return Status::InvalidArgument("no active workers");
  }

  // Sources that actually carry load.
  std::vector<int> sources;
  for (int i = 0; i < n; ++i) {
    if (load[i] > 0) sources.push_back(i);
  }

  StealPlan plan;
  plan.assignment.assign(n, std::vector<double>(n, 0.0));
  if (sources.empty()) return plan;

  // Single worker: everything goes to it.
  if (active_workers.size() == 1) {
    const int j = active_workers[0];
    for (int i : sources) {
      if (cost[i][j] == kInf) {
        return Status::Infeasible("only worker " + std::to_string(j) +
                                  " is forbidden for source " +
                                  std::to_string(i));
      }
      plan.assignment[i][j] = load[i];
    }
    plan.makespan = PlanMakespan(cost, plan.assignment);
    return plan;
  }

  // Variable layout: var_of[i][j] for allowed (source, worker) pairs, then z
  // last. Objective: minimize z.
  LinearProgram lp;
  std::vector<std::vector<int>> var_of(n, std::vector<int>(n, -1));
  for (int i : sources) {
    bool any = false;
    for (int j : active_workers) {
      if (cost[i][j] != kInf) {
        var_of[i][j] = lp.AddVariable(0.0);
        any = true;
      }
    }
    if (!any) {
      return Status::Infeasible("source " + std::to_string(i) +
                                " has no permitted worker");
    }
  }
  const int z_var = lp.AddVariable(1.0);

  // R2: sum_j x_ij = l_i.
  for (int i : sources) {
    Row row;
    row.coeffs.assign(lp.num_vars, 0.0);
    for (int j : active_workers) {
      if (var_of[i][j] >= 0) row.coeffs[var_of[i][j]] = 1.0;
    }
    row.type = RowType::kEqual;
    row.rhs = load[i];
    lp.AddRow(std::move(row));
  }
  // R1: sum_i c_ij x_ij - z <= 0 per worker.
  for (int j : active_workers) {
    Row row;
    row.coeffs.assign(lp.num_vars, 0.0);
    bool any = false;
    for (int i : sources) {
      if (var_of[i][j] >= 0) {
        row.coeffs[var_of[i][j]] = cost[i][j];
        any = true;
      }
    }
    if (!any) continue;
    row.coeffs[z_var] = -1.0;
    row.type = RowType::kLessEqual;
    row.rhs = 0.0;
    lp.AddRow(std::move(row));
  }

  // Always solve the relaxation: it is the fast path, and its rounded plan
  // warm-starts the exact branch & bound (which otherwise thrashes on the
  // min-max plateau of alternate optima).
  GUM_ASSIGN_OR_RETURN(LpSolution relaxed, SolveLp(lp));
  plan.lp_iterations = relaxed.iterations;

  std::vector<double> x = relaxed.x;
  if (options.exact_milp) {
    // Feasible integral warm start: round each source row to its load.
    std::vector<double> warm(lp.num_vars, 0.0);
    double warm_z = 0.0;
    {
      std::vector<std::vector<double>> rounded(n, std::vector<double>(n, 0));
      for (int i : sources) {
        std::vector<double> row(n, 0.0);
        for (int j : active_workers) {
          if (var_of[i][j] >= 0) row[j] = relaxed.x[var_of[i][j]];
        }
        RoundRowToTarget(row, load[i]);
        rounded[i] = std::move(row);
      }
      warm_z = PlanMakespan(cost, rounded);
      for (int i : sources) {
        for (int j : active_workers) {
          if (var_of[i][j] >= 0) warm[var_of[i][j]] = rounded[i][j];
        }
      }
      warm[z_var] = warm_z;
    }
    std::vector<bool> is_integer(lp.num_vars, true);
    is_integer[z_var] = false;
    MilpOptions milp_options;
    milp_options.warm_start = &warm;
    milp_options.gap_tolerance = kMilpGapTolerance;
    GUM_ASSIGN_OR_RETURN(MilpSolution milp, SolveMilp(lp, is_integer,
                                                      milp_options));
    x = std::move(milp.x);
    plan.milp_nodes = milp.nodes_explored;
  }

  for (int i : sources) {
    std::vector<double> row(n, 0.0);
    for (int j : active_workers) {
      if (var_of[i][j] >= 0) row[j] = x[var_of[i][j]];
    }
    RoundRowToTarget(row, load[i]);
    plan.assignment[i] = std::move(row);
  }
  plan.makespan = PlanMakespan(cost, plan.assignment);
  return plan;
}

StealPlan GreedyStealPlan(const std::vector<std::vector<double>>& cost,
                          const std::vector<double>& load,
                          const std::vector<int>& active_workers) {
  const int n = static_cast<int>(cost.size());
  StealPlan plan;
  plan.assignment.assign(n, std::vector<double>(n, 0.0));
  if (active_workers.empty()) return plan;

  std::vector<int> order;
  for (int i = 0; i < n; ++i) {
    if (load[i] > 0) order.push_back(i);
  }
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return load[a] > load[b]; });

  std::vector<double> finish(n, 0.0);
  for (int i : order) {
    int best = -1;
    double best_finish = kInf;
    for (int j : active_workers) {
      if (cost[i][j] == kInf) continue;
      const double f = finish[j] + cost[i][j] * load[i];
      if (f < best_finish) {
        best_finish = f;
        best = j;
      }
    }
    if (best == -1) best = active_workers[0];  // forbidden everywhere: pin
    plan.assignment[i][best] = load[i];
    finish[best] = best_finish;
  }
  plan.makespan = PlanMakespan(cost, plan.assignment);
  return plan;
}

}  // namespace gum::solver
