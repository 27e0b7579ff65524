#include "solver/simplex.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/logging.h"

namespace gum::solver {

namespace {

// Pivots per phase before the solve gives up.
constexpr int kMaxIterations = 20000;
// Reduced costs above -kTolerance count as optimal; pivot entries and
// ratio ties within it count as zero.
constexpr double kTolerance = 1e-9;

// Dense simplex tableau. Layout:
//   rows 0..m-1 : constraints (columns 0..total_vars-1, last column = rhs)
//   row  m      : objective row (reduced costs, last column = -objective)
class Tableau {
 public:
  Tableau(int num_rows, int num_cols)
      : rows_(num_rows), cols_(num_cols),
        data_(static_cast<size_t>(num_rows) * num_cols, 0.0) {}

  double& At(int r, int c) { return data_[static_cast<size_t>(r) * cols_ + c]; }
  double At(int r, int c) const {
    return data_[static_cast<size_t>(r) * cols_ + c];
  }

  int rows() const { return rows_; }
  int cols() const { return cols_; }

  void Pivot(int pivot_row, int pivot_col) {
    const double pv = At(pivot_row, pivot_col);
    const double inv = 1.0 / pv;
    for (int c = 0; c < cols_; ++c) At(pivot_row, c) *= inv;
    At(pivot_row, pivot_col) = 1.0;  // kill roundoff
    for (int r = 0; r < rows_; ++r) {
      if (r == pivot_row) continue;
      const double factor = At(r, pivot_col);
      if (factor == 0.0) continue;
      for (int c = 0; c < cols_; ++c) {
        At(r, c) -= factor * At(pivot_row, c);
      }
      At(r, pivot_col) = 0.0;
    }
  }

 private:
  int rows_, cols_;
  std::vector<double> data_;
};

enum class PhaseResult { kOptimal, kUnbounded, kIterationLimit };

// Runs simplex on `t` whose last row is the (phase) objective with reduced
// costs for all columns in [0, num_cols). `basis[r]` is the basic column of
// constraint row r. allowed_cols limits entering columns (phase 2 excludes
// artificials).
PhaseResult RunSimplex(Tableau& t, std::vector<int>& basis, int num_cols,
                       int* iterations) {
  const int m = t.rows() - 1;
  const int obj = m;
  const int rhs = t.cols() - 1;
  int stall = 0;
  for (int it = 0; it < kMaxIterations; ++it) {
    ++*iterations;
    const bool bland = stall > 2 * (m + num_cols);
    // Entering column: most negative reduced cost (Dantzig) or first
    // negative (Bland).
    int enter = -1;
    double best = -kTolerance;
    for (int c = 0; c < num_cols; ++c) {
      const double rc = t.At(obj, c);
      if (rc < best) {
        enter = c;
        if (bland) break;
        best = rc;
      }
    }
    if (enter == -1) return PhaseResult::kOptimal;

    // Leaving row: min ratio test, ties to smaller basis index (Bland).
    int leave = -1;
    double best_ratio = std::numeric_limits<double>::infinity();
    for (int r = 0; r < m; ++r) {
      const double a = t.At(r, enter);
      if (a > kTolerance) {
        const double ratio = t.At(r, rhs) / a;
        if (ratio < best_ratio - kTolerance ||
            (ratio < best_ratio + kTolerance && leave != -1 &&
             basis[r] < basis[leave])) {
          best_ratio = ratio;
          leave = r;
        }
      }
    }
    if (leave == -1) return PhaseResult::kUnbounded;

    if (best_ratio < kTolerance) {
      ++stall;  // degenerate pivot
    } else {
      stall = 0;
    }
    t.Pivot(leave, enter);
    basis[leave] = enter;
  }
  return PhaseResult::kIterationLimit;
}

}  // namespace

Result<LpSolution> SolveLp(const LinearProgram& lp) {
  if (lp.num_vars <= 0) {
    return Status::InvalidArgument("LP has no variables");
  }
  if (static_cast<int>(lp.objective.size()) != lp.num_vars) {
    return Status::InvalidArgument("objective size mismatch");
  }
  const int m = static_cast<int>(lp.rows.size());
  const int n = lp.num_vars;

  // Count auxiliary columns.
  int num_slack = 0;
  for (const Row& row : lp.rows) {
    if (row.type != RowType::kEqual) ++num_slack;
  }
  const int num_artificial = m;  // one per row keeps phase 1 uniform
  const int total = n + num_slack + num_artificial;
  const int rhs_col = total;

  Tableau t(m + 1, total + 1);
  std::vector<int> basis(m, -1);

  int slack_cursor = n;
  for (int r = 0; r < m; ++r) {
    const Row& row = lp.rows[r];
    if (static_cast<int>(row.coeffs.size()) > n) {
      return Status::InvalidArgument("row " + std::to_string(r) +
                                     " has more coefficients than variables");
    }
    double sign = 1.0;
    double rhs = row.rhs;
    RowType type = row.type;
    if (rhs < 0) {
      sign = -1.0;
      rhs = -rhs;
      if (type == RowType::kLessEqual) {
        type = RowType::kGreaterEqual;
      } else if (type == RowType::kGreaterEqual) {
        type = RowType::kLessEqual;
      }
    }
    for (size_t c = 0; c < row.coeffs.size(); ++c) {
      t.At(r, static_cast<int>(c)) = sign * row.coeffs[c];
    }
    t.At(r, rhs_col) = rhs;
    if (type == RowType::kLessEqual) {
      t.At(r, slack_cursor) = 1.0;
      basis[r] = slack_cursor;  // slack is basic; artificial stays 0
      ++slack_cursor;
    } else if (type == RowType::kGreaterEqual) {
      t.At(r, slack_cursor) = -1.0;  // surplus
      ++slack_cursor;
    }
    // Artificial column (always added; basic unless a slack already is).
    const int art = n + num_slack + r;
    t.At(r, art) = 1.0;
    if (basis[r] == -1) basis[r] = art;
  }

  // Phase 1 objective: minimize the sum of artificials. Give every
  // artificial column cost 1, then price out the rows whose basic variable
  // is an artificial so basic columns have reduced cost 0.
  const int obj = m;
  for (int r = 0; r < m; ++r) t.At(obj, n + num_slack + r) = 1.0;
  for (int r = 0; r < m; ++r) {
    if (basis[r] == n + num_slack + r) {
      for (int c = 0; c <= total; ++c) t.At(obj, c) -= t.At(r, c);
    }
  }

  LpSolution solution;
  PhaseResult phase1 = RunSimplex(t, basis, total, &solution.iterations);
  if (phase1 == PhaseResult::kIterationLimit) {
    return Status::Internal("simplex phase 1 hit the iteration limit");
  }
  const double phase1_value = -t.At(obj, rhs_col);
  if (phase1 == PhaseResult::kUnbounded || phase1_value > 1e-6) {
    return Status::Infeasible("phase 1 optimum " +
                              std::to_string(phase1_value) + " > 0");
  }

  // Drive any remaining basic artificials out (degenerate rows).
  for (int r = 0; r < m; ++r) {
    const int art_base = n + num_slack;
    if (basis[r] >= art_base) {
      int enter = -1;
      for (int c = 0; c < n + num_slack; ++c) {
        if (std::abs(t.At(r, c)) > 1e-7) {
          enter = c;
          break;
        }
      }
      if (enter >= 0) {
        t.Pivot(r, enter);
        basis[r] = enter;
      }
      // else: the row is all-zero (redundant constraint); harmless.
    }
  }

  // Phase 2: rebuild the objective row from the original costs.
  for (int c = 0; c <= total; ++c) t.At(obj, c) = 0.0;
  for (int c = 0; c < n; ++c) t.At(obj, c) = lp.objective[c];
  for (int r = 0; r < m; ++r) {
    const int bc = basis[r];
    if (bc < n && lp.objective[bc] != 0.0) {
      const double cost = lp.objective[bc];
      for (int c = 0; c <= total; ++c) {
        t.At(obj, c) -= cost * t.At(r, c);
      }
    }
  }
  // Exclude artificial columns from entering in phase 2.
  PhaseResult phase2 =
      RunSimplex(t, basis, n + num_slack, &solution.iterations);
  if (phase2 == PhaseResult::kIterationLimit) {
    return Status::Internal("simplex phase 2 hit the iteration limit");
  }
  if (phase2 == PhaseResult::kUnbounded) {
    return Status::Unbounded("LP is unbounded below");
  }

  solution.x.assign(n, 0.0);
  for (int r = 0; r < m; ++r) {
    if (basis[r] < n) solution.x[basis[r]] = t.At(r, rhs_col);
  }
  solution.objective = -t.At(obj, rhs_col);
  return solution;
}

}  // namespace gum::solver
