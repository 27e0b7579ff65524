#include "graph/csr.h"

#include <algorithm>
#include <numeric>
#include <string>

namespace gum::graph {

Result<CsrGraph> CsrGraph::FromEdgeList(const EdgeList& list,
                                        const CsrBuildOptions& options) {
  const VertexId n = list.num_vertices;
  for (const Edge& e : list.edges) {
    if (e.src >= n || e.dst >= n) {
      return Status::InvalidArgument(
          "edge endpoint out of range: (" + std::to_string(e.src) + "," +
          std::to_string(e.dst) + ") with num_vertices=" + std::to_string(n));
    }
  }

  // Materialize the working edge set (possibly symmetrized).
  std::vector<Edge> edges;
  edges.reserve(list.edges.size() * (options.symmetrize ? 2 : 1));
  for (const Edge& e : list.edges) {
    if (options.remove_self_loops && e.src == e.dst) continue;
    edges.push_back(e);
    if (options.symmetrize && e.src != e.dst) {
      edges.push_back(Edge{e.dst, e.src, e.weight});
    }
  }

  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    if (a.src != b.src) return a.src < b.src;
    return a.dst < b.dst;
  });
  if (options.deduplicate) {
    edges.erase(std::unique(edges.begin(), edges.end(),
                            [](const Edge& a, const Edge& b) {
                              return a.src == b.src && a.dst == b.dst;
                            }),
                edges.end());
  }

  // The sorted list is the rows in order, so edge i lands in slot i. An
  // unweighted list never fills a weight array.
  const bool weighted =
      std::any_of(edges.begin(), edges.end(),
                  [](const Edge& e) { return e.weight != 1.0f; });
  std::vector<EdgeId> offsets(n + 1, 0);
  std::vector<VertexId> targets(edges.size());
  std::vector<float> weights(weighted ? edges.size() : 0);
  for (size_t i = 0; i < edges.size(); ++i) {
    ++offsets[edges[i].src + 1];
    targets[i] = edges[i].dst;
    if (weighted) weights[i] = edges[i].weight;
  }
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  return Assemble(std::move(offsets), std::move(targets), std::move(weights));
}

CsrGraph CsrGraph::Assemble(std::vector<EdgeId> offsets,
                            std::vector<VertexId> targets,
                            std::vector<float> weights) {
  CsrGraph g;
  g.out_offsets_ = std::move(offsets);
  g.out_targets_ = std::move(targets);
  if (std::any_of(weights.begin(), weights.end(),
                  [](float w) { return w != 1.0f; })) {
    g.out_weights_ = std::move(weights);
  }

  // Walking the out-rows in ascending source order lists every in-row in
  // ascending source order too.
  const VertexId n = g.num_vertices();
  g.in_offsets_.assign(n + 1, 0);
  for (const VertexId dst : g.out_targets_) g.in_offsets_[dst + 1]++;
  std::partial_sum(g.in_offsets_.begin(), g.in_offsets_.end(),
                   g.in_offsets_.begin());
  g.in_targets_.resize(g.out_targets_.size());
  std::vector<EdgeId> cursor(g.in_offsets_.begin(), g.in_offsets_.end() - 1);
  for (VertexId u = 0; u < n; ++u) {
    for (const VertexId v : g.OutNeighbors(u)) {
      g.in_targets_[cursor[v]++] = u;
    }
  }
  return g;
}

size_t CsrGraph::MemoryBytes() const {
  return out_offsets_.size() * sizeof(EdgeId) +
         out_targets_.size() * sizeof(VertexId) +
         out_weights_.size() * sizeof(float) +
         in_offsets_.size() * sizeof(EdgeId) +
         in_targets_.size() * sizeof(VertexId);
}

}  // namespace gum::graph
