#include "graph/frontier_features.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "graph/stats.h"

namespace gum::graph {

FrontierFeatures ExtractFrontierFeatures(
    const CsrGraph& g, std::span<const VertexId> frontier) {
  FrontierFeatures f;
  if (frontier.empty()) return f;

  double in_sum = 0, out_sum = 0;
  uint32_t in_min = std::numeric_limits<uint32_t>::max(), in_max = 0;
  uint32_t out_min = std::numeric_limits<uint32_t>::max(), out_max = 0;
  // One buffer per thread, so concurrent callers never share it, reused so a
  // census allocates nothing once it has grown to the largest frontier.
  thread_local std::vector<uint32_t> out_degrees;
  out_degrees.clear();
  for (const VertexId v : frontier) {
    const uint32_t od = g.OutDegree(v);
    const uint32_t id = g.InDegree(v);
    out_sum += od;
    in_sum += id;
    out_min = std::min(out_min, od);
    out_max = std::max(out_max, od);
    in_min = std::min(in_min, id);
    in_max = std::max(in_max, id);
    out_degrees.push_back(od);
  }
  const double n = static_cast<double>(frontier.size());
  f.avg_in_degree = in_sum / n;
  f.avg_out_degree = out_sum / n;
  f.in_degree_range = static_cast<double>(in_max - in_min);
  f.out_degree_range = static_cast<double>(out_max - out_min);
  f.entropy = DegreeEntropy(out_degrees);  // before Gini reorders it
  f.gini = GiniCoefficient(out_degrees);
  return f;
}

}  // namespace gum::graph
