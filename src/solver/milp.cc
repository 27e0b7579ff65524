#include "solver/milp.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "solver/simplex.h"

namespace gum::solver {

namespace {

// Branch-and-bound nodes expanded before the incumbent stands.
constexpr int kMaxNodes = 20000;
// A variable within this distance of an integer counts as integral.
constexpr double kIntegralityTolerance = 1e-6;

struct Bound {
  int var;
  bool is_upper;  // x[var] <= value : x[var] >= value
  double value;
};

struct Node {
  double relaxation_value;
  std::vector<Bound> bounds;

  bool operator<(const Node& other) const {
    // priority_queue is a max-heap; invert for best(lowest)-first. On the
    // plateaus typical of min-max programs, dive (prefer deeper nodes) so
    // an integral incumbent appears quickly.
    if (relaxation_value != other.relaxation_value) {
      return relaxation_value > other.relaxation_value;
    }
    return bounds.size() < other.bounds.size();
  }
};

LinearProgram WithBounds(const LinearProgram& base,
                         const std::vector<Bound>& bounds) {
  LinearProgram lp = base;
  for (const Bound& b : bounds) {
    Row row;
    row.coeffs.assign(base.num_vars, 0.0);
    row.coeffs[b.var] = 1.0;
    row.rhs = b.value;
    row.type = b.is_upper ? RowType::kLessEqual : RowType::kGreaterEqual;
    lp.AddRow(std::move(row));
  }
  return lp;
}

// Most-fractional branching variable, or -1 if integral.
int PickBranchVariable(const std::vector<double>& x,
                       const std::vector<bool>& is_integer, double tol) {
  int pick = -1;
  double best_frac_dist = tol;
  for (size_t v = 0; v < x.size(); ++v) {
    if (!is_integer[v]) continue;
    const double frac = x[v] - std::floor(x[v]);
    const double dist = std::min(frac, 1.0 - frac);
    if (dist > best_frac_dist) {
      best_frac_dist = dist;
      pick = static_cast<int>(v);
    }
  }
  return pick;
}

}  // namespace

Result<MilpSolution> SolveMilp(const LinearProgram& lp,
                               const std::vector<bool>& is_integer,
                               const MilpOptions& options) {
  if (static_cast<int>(is_integer.size()) != lp.num_vars) {
    return Status::InvalidArgument("is_integer size mismatch");
  }

  auto root = SolveLp(lp);
  if (!root.ok()) return root.status();

  MilpSolution best;
  best.objective = std::numeric_limits<double>::infinity();
  if (options.warm_start != nullptr &&
      static_cast<int>(options.warm_start->size()) == lp.num_vars) {
    best.x = *options.warm_start;
    best.objective = 0.0;
    for (int v = 0; v < lp.num_vars; ++v) {
      best.objective += lp.objective[v] * best.x[v];
    }
  }

  std::priority_queue<Node> open;
  open.push(Node{root->objective, {}});

  int nodes = 0;
  while (!open.empty() && nodes < kMaxNodes) {
    Node node = open.top();
    open.pop();
    ++nodes;

    if (node.relaxation_value >=
        best.objective - options.gap_tolerance *
                             std::max(1.0, std::abs(best.objective))) {
      continue;  // cannot improve the incumbent
    }

    auto relaxed = SolveLp(WithBounds(lp, node.bounds));
    if (!relaxed.ok()) {
      if (relaxed.status().code() == StatusCode::kInfeasible) continue;
      return relaxed.status();
    }
    if (relaxed->objective >=
        best.objective - options.gap_tolerance *
                             std::max(1.0, std::abs(best.objective))) {
      continue;
    }

    const int branch_var =
        PickBranchVariable(relaxed->x, is_integer, kIntegralityTolerance);
    if (branch_var == -1) {
      // Integral (within tolerance): snap and accept.
      MilpSolution candidate;
      candidate.objective = relaxed->objective;
      candidate.x = relaxed->x;
      for (size_t v = 0; v < candidate.x.size(); ++v) {
        if (is_integer[v]) candidate.x[v] = std::round(candidate.x[v]);
      }
      if (candidate.objective < best.objective) {
        best = candidate;
        best.nodes_explored = nodes;
      }
      continue;
    }

    const double value = relaxed->x[branch_var];
    Node down = node;
    down.relaxation_value = relaxed->objective;
    down.bounds.push_back(Bound{branch_var, true, std::floor(value)});
    Node up = node;
    up.relaxation_value = relaxed->objective;
    up.bounds.push_back(Bound{branch_var, false, std::ceil(value)});
    open.push(std::move(down));
    open.push(std::move(up));
  }

  if (!std::isfinite(best.objective)) {
    if (open.empty()) return Status::Infeasible("no integral solution exists");
    return Status::Internal("node limit reached with no incumbent");
  }
  best.nodes_explored = nodes;
  best.proven_optimal = open.empty() || open.top().relaxation_value >=
                                            best.objective -
                                                options.gap_tolerance;
  return best;
}

}  // namespace gum::solver
