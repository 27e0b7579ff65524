#include "core/expand/pull_edges.h"

namespace gum::core {

void PullEdges::Build(const graph::CsrGraph& g,
                      const graph::Partition& partition) {
  const size_t num_v = g.num_vertices();
  offsets.assign(num_v + 1, 0);
  // Counting pass (order-independent): in-degree per destination.
  for (graph::VertexId u = 0; u < num_v; ++u) {
    for (const graph::VertexId v : g.OutNeighbors(u)) {
      ++offsets[static_cast<size_t>(v) + 1];
    }
  }
  for (size_t i = 1; i <= num_v; ++i) offsets[i] += offsets[i - 1];

  // Fill pass in canonical combine order: fragments ascending, vertices
  // ascending within a fragment (part_vertices is ascending), so each
  // destination's in-edge list replays the scatter path's merge order.
  sources.resize(g.num_edges());
  const bool weighted = g.has_weights();
  if (weighted) {
    weights.resize(g.num_edges());
  } else {
    weights.clear();
  }
  std::vector<graph::EdgeId> cursor(offsets.begin(), offsets.end() - 1);
  for (int i = 0; i < partition.num_parts; ++i) {
    for (const graph::VertexId u : partition.part_vertices[i]) {
      const auto neighbors = g.OutNeighbors(u);
      const auto edge_weights = g.OutWeights(u);
      for (size_t e = 0; e < neighbors.size(); ++e) {
        const graph::VertexId v = neighbors[e];
        const graph::EdgeId slot = cursor[v]++;
        sources[slot] = u;
        if (weighted) weights[slot] = edge_weights[e];
      }
    }
  }
}

}  // namespace gum::core
