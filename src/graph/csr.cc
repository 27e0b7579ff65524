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

  const auto less = [](const Edge& a, const Edge& b) {
    if (a.src != b.src) return a.src < b.src;
    return a.dst < b.dst;
  };
  // A strictly ascending list (DeltaCsr::Compact's, for one) is already
  // sorted and free of duplicates: with no ties to permute, skipping the
  // sort builds the same bytes. The scan stops at the first tie or descent.
  const bool strictly_ascending =
      std::adjacent_find(edges.begin(), edges.end(),
                         [&](const Edge& a, const Edge& b) {
                           return !less(a, b);
                         }) == edges.end();
  if (!strictly_ascending) {
    std::sort(edges.begin(), edges.end(), less);
    if (options.deduplicate) {
      edges.erase(std::unique(edges.begin(), edges.end(),
                              [](const Edge& a, const Edge& b) {
                                return a.src == b.src && a.dst == b.dst;
                              }),
                  edges.end());
    }
  }

  CsrGraph g;
  g.out_offsets_.assign(n + 1, 0);
  for (const Edge& e : edges) g.out_offsets_[e.src + 1]++;
  std::partial_sum(g.out_offsets_.begin(), g.out_offsets_.end(),
                   g.out_offsets_.begin());

  const bool weighted =
      std::any_of(edges.begin(), edges.end(),
                  [](const Edge& e) { return e.weight != 1.0f; });
  g.out_targets_.resize(edges.size());
  if (weighted) g.out_weights_.resize(edges.size());
  {
    std::vector<EdgeId> cursor(g.out_offsets_.begin(),
                               g.out_offsets_.end() - 1);
    for (const Edge& e : edges) {
      const EdgeId pos = cursor[e.src]++;
      g.out_targets_[pos] = e.dst;
      if (weighted) g.out_weights_[pos] = e.weight;
    }
  }

  if (options.build_in_csr) {
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
