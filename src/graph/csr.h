// Compressed Sparse Row graph representation.
//
// CsrGraph stores the out-adjacency and the in-adjacency in CSR form (the
// in-CSR serves pull-style kernels and the in-degree features of the cost
// model, paper Table I), and optional edge weights (SSSP). Vertices are
// dense uint32 ids in [0, num_vertices).
//
// Ordering rule: both builds end in one private assembly step, which takes
// the out-rows in final order, keeps the weights only if one differs from
// 1, and builds the in-CSR by walking the out-rows in ascending source
// order. FromEdgeList always sorts the edges by (src, dst) before it
// scatters them into rows; DeltaCsr::Compact hands the assembly its merged
// rows, which ascend already. So every OutNeighbors(v) ascends by target
// and every InNeighbors(v) by source; kept duplicates sit side by side.
// DeltaCsr binary-searches and merges into out-lists on this rule, and the
// metis-like partitioner merges out- and in-lists on it.

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
  friend class DeltaCsr;  // Compact assembles its merged rows directly

  // The assembly every build ends in. Row u of the out-CSR is
  // targets[offsets[u], offsets[u + 1]), already in final order; `weights`
  // is parallel to `targets` or empty, and is kept only if some weight
  // differs from 1.
  static CsrGraph Assemble(std::vector<EdgeId> offsets,
                           std::vector<VertexId> targets,
                           std::vector<float> weights);

  std::vector<EdgeId> out_offsets_;    // size num_vertices + 1
  std::vector<VertexId> out_targets_;  // size num_edges
  std::vector<float> out_weights_;     // size num_edges or 0
  std::vector<EdgeId> in_offsets_;     // size num_vertices + 1
  std::vector<VertexId> in_targets_;   // size num_edges
};

}  // namespace gum::graph

#endif  // GUM_GRAPH_CSR_H_
