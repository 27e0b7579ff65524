// Compressed Sparse Row graph representation.
//
// CsrGraph stores the out-adjacency in CSR form, optionally the in-adjacency
// (needed for pull-style kernels and for in-degree features of the cost
// model, paper Table I), and optional edge weights (SSSP). Vertices are
// dense uint32 ids in [0, num_vertices).
//
// Ordering rule: FromEdgeList, which builds every CsrGraph (DeltaCsr::
// Compact's mutation snapshots included), sorts the edges by (src, dst), so
// every OutNeighbors(v) ascends by target and every InNeighbors(v) by
// source; kept duplicates sit side by side. DeltaCsr binary-searches and
// merges into out-lists on this rule, and the metis-like partitioner merges
// out- and in-lists on it. A working list (after the self-loop filter and
// symmetrization) that already ascends strictly by (src, dst), as
// DeltaCsr::Compact's does, skips the sort: with no ties to permute, it is
// the sorted order.

#ifndef GUM_GRAPH_CSR_H_
#define GUM_GRAPH_CSR_H_

#include <span>
#include <vector>

#include "common/status.h"
#include "graph/types.h"

namespace gum::graph {

struct CsrBuildOptions {
  bool remove_self_loops = true;
  // Keep one edge of each duplicate (src,dst) run. Which one survives, and
  // so its weight, is unspecified until a duplicate rule is defined: the
  // unstable sort decides.
  bool deduplicate = true;
  bool symmetrize = false;      // add reverse edge for every edge (for WCC)
  bool build_in_csr = true;     // also build the in-adjacency
};

class CsrGraph {
 public:
  CsrGraph() = default;

  // Builds a CSR graph from an edge list. Fails with InvalidArgument if any
  // endpoint id is >= edges.num_vertices.
  static Result<CsrGraph> FromEdgeList(const EdgeList& list,
                                       const CsrBuildOptions& options = {});

  VertexId num_vertices() const {
    return static_cast<VertexId>(
        out_offsets_.empty() ? 0 : out_offsets_.size() - 1);
  }
  EdgeId num_edges() const { return out_targets_.size(); }
  bool has_in_csr() const { return !in_offsets_.empty(); }
  bool has_weights() const { return !out_weights_.empty(); }

  uint32_t OutDegree(VertexId v) const {
    return static_cast<uint32_t>(out_offsets_[v + 1] - out_offsets_[v]);
  }
  uint32_t InDegree(VertexId v) const {
    return static_cast<uint32_t>(in_offsets_[v + 1] - in_offsets_[v]);
  }

  std::span<const VertexId> OutNeighbors(VertexId v) const {
    return {out_targets_.data() + out_offsets_[v],
            out_targets_.data() + out_offsets_[v + 1]};
  }
  // Weights parallel to OutNeighbors(v); empty span if unweighted.
  std::span<const float> OutWeights(VertexId v) const {
    if (out_weights_.empty()) return {};
    return {out_weights_.data() + out_offsets_[v],
            out_weights_.data() + out_offsets_[v + 1]};
  }
  std::span<const VertexId> InNeighbors(VertexId v) const {
    return {in_targets_.data() + in_offsets_[v],
            in_targets_.data() + in_offsets_[v + 1]};
  }

  // Offset of v's first out-edge in the global edge array; edge e of vertex v
  // has global index OutEdgeBase(v) + e.
  EdgeId OutEdgeBase(VertexId v) const { return out_offsets_[v]; }

  // Approximate resident bytes (topology + weights).
  size_t MemoryBytes() const;

 private:
  std::vector<EdgeId> out_offsets_;    // size num_vertices + 1
  std::vector<VertexId> out_targets_;  // size num_edges
  std::vector<float> out_weights_;     // size num_edges or 0
  std::vector<EdgeId> in_offsets_;     // size num_vertices + 1 or 0
  std::vector<VertexId> in_targets_;   // size num_edges or 0
};

}  // namespace gum::graph

#endif  // GUM_GRAPH_CSR_H_
