// Dense two-phase primal simplex.
//
// Phase 1 minimizes the sum of artificial variables to find a basic feasible
// point; phase 2 optimizes the real objective. Bland's rule is engaged after
// a stall threshold to guarantee termination. Suitable for the small dense
// programs GUM produces every iteration (tens of variables/constraints).

#ifndef GUM_SOLVER_SIMPLEX_H_
#define GUM_SOLVER_SIMPLEX_H_

#include "common/status.h"
#include "solver/linear_program.h"

namespace gum::solver {

// Returns the optimal solution, Status::Infeasible, or Status::Unbounded.
// Each phase stops after 20,000 pivots with Status::Internal.
Result<LpSolution> SolveLp(const LinearProgram& lp);

}  // namespace gum::solver

#endif  // GUM_SOLVER_SIMPLEX_H_
