// The four benchmark applications (paper §VI: BFS, WCC, PR, SSSP) expressed
// against the engine's GAS-style App concept (see core/engine.h), plus the
// delta-PageRank variant the paper cites as a long-tail-prone workload.
//
// All message combiners are commutative and associative, so results are
// independent of the stealing policy, the partitioner and the device count
// (the property suite in tests/ checks exactly this).

#ifndef GUM_ALGOS_APPS_H_
#define GUM_ALGOS_APPS_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>

#include "graph/types.h"

namespace gum::algos {

using graph::VertexId;

// Breadth-first search: depth from a source vertex.
struct BfsApp {
  using Value = uint32_t;
  using Message = uint32_t;
  static constexpr Value kUnreached = std::numeric_limits<Value>::max();

  VertexId source = 0;

  std::string name() const { return "bfs"; }
  int fixed_rounds() const { return -1; }
  Value InitValue(VertexId v) const { return v == source ? 0 : kUnreached; }
  bool IsInitiallyActive(VertexId v) const { return v == source; }
  Message InitialAccumulator() const { return kUnreached; }
  Message OnFrontier(VertexId, Value& val, uint32_t) { return val; }
  std::optional<Message> Scatter(const Message& payload, VertexId,
                                 float) const {
    return payload + 1;
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
  // Async mode (core/async/): hotter = shallower; one bucket per level.
  double AsyncPriority(VertexId, const Value& val) const {
    return static_cast<double>(val);
  }
  double AsyncDefaultDelta(VertexId, double) const { return 1.0; }
};

// Single-source shortest paths over non-negative float edge weights
// (frontier-driven Bellman-Ford, the standard GAS formulation).
struct SsspApp {
  using Value = float;
  using Message = float;
  static constexpr Value kUnreached = std::numeric_limits<Value>::max();

  VertexId source = 0;

  std::string name() const { return "sssp"; }
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
  // Async mode: delta-stepping on the tentative distance (bucket width
  // defaults to 2x the average edge weight, resolved by the driver).
  double AsyncPriority(VertexId, const Value& val) const {
    return static_cast<double>(val);
  }
};

// Weakly connected components via min-label propagation. Run on a
// symmetrized CsrGraph (CsrBuildOptions::symmetrize) so labels can travel
// both directions; every vertex converges to the minimum vertex id of its
// component.
struct WccApp {
  using Value = VertexId;
  using Message = VertexId;

  std::string name() const { return "wcc"; }
  int fixed_rounds() const { return -1; }
  Value InitValue(VertexId v) const { return v; }
  bool IsInitiallyActive(VertexId) const { return true; }
  Message InitialAccumulator() const {
    return std::numeric_limits<Message>::max();
  }
  Message OnFrontier(VertexId, Value& val, uint32_t) { return val; }
  std::optional<Message> Scatter(const Message& payload, VertexId,
                                 float) const {
    return payload;
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
  // Async mode: spread small labels first (they win every merge).
  double AsyncPriority(VertexId, const Value& val) const {
    return static_cast<double>(val);
  }
  double AsyncDefaultDelta(VertexId num_vertices, double) const {
    return std::max(1.0, static_cast<double>(num_vertices) / 32.0);
  }
};

// Classic synchronous PageRank: a fixed number of power-iteration rounds
// with every vertex active ("the workload does not change in each
// iteration", paper Exp-5). Dangling mass is dropped, matching the
// reference implementation.
struct PageRankApp {
  using Value = double;
  using Message = double;

  VertexId num_vertices = 1;
  double damping = 0.85;
  int rounds = 20;

  std::string name() const { return "pagerank"; }
  int fixed_rounds() const { return rounds; }
  Value InitValue(VertexId) const { return 1.0 / num_vertices; }
  bool IsInitiallyActive(VertexId) const { return true; }
  Message InitialAccumulator() const { return 0.0; }
  Message OnFrontier(VertexId, Value& val, uint32_t out_degree) {
    return out_degree > 0 ? val / out_degree : 0.0;
  }
  std::optional<Message> Scatter(const Message& payload, VertexId,
                                 float) const {
    return payload;
  }
  Message Combine(const Message& a, const Message& b) const { return a + b; }
  bool Apply(VertexId, Value& val, const Message& msg) const {
    val = (1.0 - damping) / num_vertices + damping * msg;
    return true;
  }
};

// Delta-PageRank: data-driven residual propagation (the long-tail workload
// of the paper's introduction). A vertex re-activates only while its
// accumulated residual exceeds epsilon, so late iterations carry tiny
// frontiers.
struct DeltaPageRankApp {
  struct State {
    double rank = 0.0;
    double residual = 0.0;
  };
  using Value = State;
  using Message = double;

  VertexId num_vertices = 1;
  double damping = 0.85;
  double epsilon = 1e-9;

  std::string name() const { return "delta_pagerank"; }
  int fixed_rounds() const { return -1; }
  Value InitValue(VertexId) const {
    return State{0.0, (1.0 - damping) / num_vertices};
  }
  bool IsInitiallyActive(VertexId) const { return true; }
  Message InitialAccumulator() const { return 0.0; }
  Message OnFrontier(VertexId, Value& val, uint32_t out_degree) {
    const double delta = val.residual;
    val.residual = 0.0;
    val.rank += delta;
    return out_degree > 0 ? damping * delta / out_degree : 0.0;
  }
  std::optional<Message> Scatter(const Message& payload, VertexId,
                                 float) const {
    if (payload == 0.0) return std::nullopt;
    return payload;
  }
  Message Combine(const Message& a, const Message& b) const { return a + b; }
  bool Apply(VertexId, Value& val, const Message& msg) const {
    val.residual += msg;
    return val.residual > epsilon;
  }
  // Async mode: residual pushing — the largest residual is the hottest
  // work, so the priority is its negation; the default bucket width slices
  // the uniform initial residual into a handful of bands.
  double AsyncPriority(VertexId, const Value& val) const {
    return -val.residual;
  }
  double AsyncDefaultDelta(VertexId num_vertices, double) const {
    return (1.0 - damping) / num_vertices / 8.0;
  }
};

}  // namespace gum::algos

#endif  // GUM_ALGOS_APPS_H_
