// The min-max work-reassignment problem of paper Eq. (1):
//
//   min_X max_j sum_i c_ij * x_ij    s.t.  sum_j x_ij = l_i,  x_ij >= 0 int
//
// linearized with an auxiliary variable z (paper Theorem 1 / Algorithm 1
// lines 3-7). SolveStealProblem builds the LP/MILP and returns the touched-
// edges matrix X plus the achieved makespan z. GreedyStealPlan is the
// LPT-style heuristic used as a fallback and as an ablation baseline.

#ifndef GUM_SOLVER_STEAL_PROBLEM_H_
#define GUM_SOLVER_STEAL_PROBLEM_H_

#include <vector>

#include "common/status.h"

namespace gum::solver {

struct StealPlan {
  // assignment[i][j]: edges of source fragment i processed by worker j.
  // Integral values; rows sum exactly to load[i].
  std::vector<std::vector<double>> assignment;
  double makespan = 0.0;  // max_j sum_i c_ij x_ij under the plan
  int lp_iterations = 0;
  int milp_nodes = 0;
};

struct StealProblemOptions {
  // Exact integer solve via branch & bound, warm-started from the rounded
  // LP plan and stopped at a 0.5% relative gap. The default (false) solves
  // the LP relaxation and rounds, like the paper ("the exact solution of the
  // MILP problem may not be an integer, thus we round up the results").
  bool exact_milp = false;
};

// cost: square matrix, cost[i][j] = per-edge cost for worker j to process an
//       edge resident on fragment i. Entries may be +infinity ("forbidden",
//       used for OSteal-evicted devices).
// load: per-fragment active edge counts l_i (non-negative).
// active_workers: worker (column) indices allowed to receive work.
// A fragment with load > 0 whose every allowed cost is infinite makes the
// problem infeasible.
Result<StealPlan> SolveStealProblem(
    const std::vector<std::vector<double>>& cost,
    const std::vector<double>& load, const std::vector<int>& active_workers,
    const StealProblemOptions& options = {});

// Longest-processing-time-first heuristic: whole fragments are assigned to
// the worker that finishes them earliest. Never splits a fragment's load.
StealPlan GreedyStealPlan(const std::vector<std::vector<double>>& cost,
                          const std::vector<double>& load,
                          const std::vector<int>& active_workers);

// Makespan of an arbitrary assignment under `cost`.
double PlanMakespan(const std::vector<std::vector<double>>& cost,
                    const std::vector<std::vector<double>>& assignment);

}  // namespace gum::solver

#endif  // GUM_SOLVER_STEAL_PROBLEM_H_
