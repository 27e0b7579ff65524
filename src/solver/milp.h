// Branch-and-bound mixed-integer solver over the simplex relaxation.
//
// Best-first search: nodes are LP relaxations plus variable bounds added as
// extra rows; the node with the smallest relaxation value is expanded next
// (so the first integral node popped is optimal). A rounding heuristic
// seeds the incumbent, which lets large flat regions prune early. Problems
// here are the Eq.-1 steal MILPs — tiny, so the budget of 20,000 nodes is
// a safety net rather than an expected exit. The budget counts nodes, never
// host time, so a solve returns the same plan under any machine load.

#ifndef GUM_SOLVER_MILP_H_
#define GUM_SOLVER_MILP_H_

#include <vector>

#include "common/status.h"
#include "solver/linear_program.h"

namespace gum::solver {

struct MilpOptions {
  // Stop when (incumbent - best_bound) <= gap_tolerance * max(1,|incumbent|).
  // Min-max steal instances have many alternate optima whose relaxations all
  // tie the incumbent to within rounding; a relative gap keeps B&B from
  // thrashing on those plateaus.
  double gap_tolerance = 1e-4;
  // Optional feasible starting solution (size num_vars). Seeds the incumbent
  // so plateau instances prune immediately; the caller guarantees
  // feasibility (it is NOT re-verified).
  const std::vector<double>* warm_start = nullptr;
};

struct MilpSolution {
  double objective = 0.0;
  std::vector<double> x;
  int nodes_explored = 0;
  bool proven_optimal = false;
};

// is_integer[v] marks integral variables (size num_vars). Returns the best
// solution found, Status::Infeasible, or Status::Unbounded (from the root
// relaxation).
Result<MilpSolution> SolveMilp(const LinearProgram& lp,
                               const std::vector<bool>& is_integer,
                               const MilpOptions& options = {});

}  // namespace gum::solver

#endif  // GUM_SOLVER_MILP_H_
