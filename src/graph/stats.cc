#include "graph/stats.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <limits>
#include <vector>

#include "common/random.h"

namespace gum::graph {

double GiniCoefficient(std::span<uint32_t> degrees) {
  if (degrees.empty()) return 0.0;
  std::sort(degrees.begin(), degrees.end());
  const double n = static_cast<double>(degrees.size());
  double weighted_sum = 0.0, total = 0.0;
  for (size_t i = 0; i < degrees.size(); ++i) {
    const double d = degrees[i];
    weighted_sum += (static_cast<double>(i) + 1.0) * d;
    total += d;
  }
  if (total <= 0.0) return 0.0;
  return (2.0 * weighted_sum) / (n * total) - (n + 1.0) / n;
}

double DegreeEntropy(std::span<const uint32_t> degrees) {
  if (degrees.size() <= 1) return 0.0;
  double total = 0.0;
  for (const uint32_t d : degrees) total += d;
  if (total <= 0.0) return 0.0;
  // p*log(p) depends only on the degree, so each distinct small degree pays
  // for one log. The terms are still subtracted in sequence order, which
  // keeps h bit-identical to taking one log per element.
  constexpr uint32_t kMemoDegrees = 64;
  std::array<double, kMemoDegrees> memo;
  memo.fill(1.0);  // every term is <= 0, so 1.0 marks "not computed yet"
  const auto term = [total](uint32_t d) {
    const double p = d / total;
    return p * std::log(p);
  };
  double h = 0.0;
  for (const uint32_t d : degrees) {
    if (d == 0) continue;
    if (d >= kMemoDegrees) {
      h -= term(d);
      continue;
    }
    if (memo[d] > 0.0) memo[d] = term(d);
    h -= memo[d];
  }
  return h / std::log(static_cast<double>(degrees.size()));
}

DegreeStats ComputeDegreeStats(const CsrGraph& g) {
  DegreeStats s;
  const VertexId n = g.num_vertices();
  if (n == 0) return s;
  s.min_out_degree = std::numeric_limits<uint32_t>::max();
  s.min_in_degree = std::numeric_limits<uint32_t>::max();
  std::vector<uint32_t> totals(n);
  double out_sum = 0, in_sum = 0;
  for (VertexId v = 0; v < n; ++v) {
    const uint32_t od = g.OutDegree(v);
    const uint32_t id = g.has_in_csr() ? g.InDegree(v) : 0;
    out_sum += od;
    in_sum += id;
    s.max_out_degree = std::max(s.max_out_degree, od);
    s.min_out_degree = std::min(s.min_out_degree, od);
    s.max_in_degree = std::max(s.max_in_degree, id);
    s.min_in_degree = std::min(s.min_in_degree, id);
    totals[v] = od + id;
  }
  s.avg_out_degree = out_sum / n;
  s.avg_in_degree = in_sum / n;
  s.entropy = DegreeEntropy(totals);  // before Gini sorts `totals`
  s.gini = GiniCoefficient(totals);
  return s;
}

namespace {

// BFS over the union of out- and in-adjacency; returns (farthest vertex,
// eccentricity from source).
std::pair<VertexId, uint32_t> BfsFarthest(const CsrGraph& g, VertexId source) {
  std::vector<uint32_t> depth(g.num_vertices(),
                              std::numeric_limits<uint32_t>::max());
  std::deque<VertexId> queue;
  depth[source] = 0;
  queue.push_back(source);
  VertexId farthest = source;
  while (!queue.empty()) {
    const VertexId u = queue.front();
    queue.pop_front();
    if (depth[u] > depth[farthest]) farthest = u;
    auto visit = [&](VertexId v) {
      if (depth[v] == std::numeric_limits<uint32_t>::max()) {
        depth[v] = depth[u] + 1;
        queue.push_back(v);
      }
    };
    for (VertexId v : g.OutNeighbors(u)) visit(v);
    if (g.has_in_csr()) {
      for (VertexId v : g.InNeighbors(u)) visit(v);
    }
  }
  return {farthest, depth[farthest]};
}

}  // namespace

uint32_t PseudoDiameter(const CsrGraph& g, uint64_t seed) {
  if (g.num_vertices() == 0) return 0;
  Rng rng(seed);
  const VertexId start =
      static_cast<VertexId>(rng.NextBounded(g.num_vertices()));
  const auto [far1, ecc1] = BfsFarthest(g, start);
  const auto [far2, ecc2] = BfsFarthest(g, far1);
  (void)far2;
  return std::max(ecc1, ecc2);
}

}  // namespace gum::graph
