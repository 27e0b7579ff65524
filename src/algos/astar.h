// A* single-pair shortest path as an async-engine workload (DESIGN.md §15).
//
// AStarApp is SSSP's GAS formulation plus an admissible per-vertex
// heuristic h: the async priority of a settled-tentative vertex is
// f(v) = dist(v) + h(v), so the priority worklists expand vertices in
// best-first order toward the target instead of pure distance order. The
// heuristic only shapes the *order* (and therefore the relaxation count
// and the simulated makespan) — converged values are bitwise the SSSP /
// Dijkstra distances for ANY heuristic, because the engine drains every
// improvement to quiescence. That property is what the ctest convergence
// matrix pins down.
//
// Under BSP the heuristic is inert (the superstep loop has no priority
// order) and AStarApp is byte-identical to SsspApp.
//
// GridManhattanHeuristic builds the classic admissible grid heuristic for
// RoadGrid graphs (graph/generators.h, vertex id = row * cols + col):
// h(v) = manhattan(v, target) * min_edge_weight. With shortcut edges the
// bound can be violated — which costs optimality of the *visit order*,
// never correctness of the converged distances (see above).

#ifndef GUM_ALGOS_ASTAR_H_
#define GUM_ALGOS_ASTAR_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "graph/csr.h"
#include "graph/types.h"

namespace gum::algos {

using graph::VertexId;

struct AStarApp {
  using Value = float;
  using Message = float;
  static constexpr Value kUnreached = std::numeric_limits<Value>::max();

  VertexId source = 0;
  VertexId target = 0;
  // h[v] >= 0; empty means h == 0 everywhere (degenerates to SSSP order).
  std::vector<float> heuristic;

  std::string name() const { return "astar"; }
  int fixed_rounds() const { return -1; }
  Value InitValue(VertexId v) const { return v == source ? 0.0f : kUnreached; }
  bool IsInitiallyActive(VertexId v) const { return v == source; }
  Message InitialAccumulator() const { return kUnreached; }
  Message OnFrontier(VertexId, Value& val, uint32_t) { return val; }
  std::optional<Message> Scatter(const Message& payload, VertexId,
                                 float weight) const {
    return payload + weight;
  }
  Message Combine(const Message& a, const Message& b) const {
    return std::min(a, b);
  }
  bool Apply(VertexId, Value& val, const Message& msg) const {
    if (msg < val) {
      val = msg;
      return true;
    }
    return false;
  }
  // Best-first: f = g + h.
  double AsyncPriority(VertexId v, const Value& val) const {
    const double h =
        v < heuristic.size() ? static_cast<double>(heuristic[v]) : 0.0;
    return static_cast<double>(val) + h;
  }
};

// Admissible Manhattan heuristic for a RoadGrid graph whose vertices are
// laid out row-major (id = row * cols + col): lattice distance to the
// target times the smallest edge weight in the graph (1.0 when the graph
// is unweighted).
std::vector<float> GridManhattanHeuristic(const graph::CsrGraph& g,
                                          uint32_t rows, uint32_t cols,
                                          VertexId target);

}  // namespace gum::algos

#endif  // GUM_ALGOS_ASTAR_H_
