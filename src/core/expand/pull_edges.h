// Per-destination in-edge structure for the SpMV pull gather (extracted
// from core/expand/spmv.h so the immutable serving substrate — see
// core/graph_context.h — can own one shared copy across every query).
//
// Unlike the CSR's in-adjacency (sorted by source id, no weights), each
// destination's sources appear in the canonical combine order — (owner
// fragment ascending, source vertex ascending) — and carry the out-edge's
// weight. The pull gather therefore reproduces every combine chain of the
// scatter path bit for bit (see the determinism notes in spmv.h).

#ifndef GUM_CORE_EXPAND_PULL_EDGES_H_
#define GUM_CORE_EXPAND_PULL_EDGES_H_

#include <vector>

#include "graph/csr.h"
#include "graph/partition.h"
#include "graph/types.h"

namespace gum::core {

struct PullEdges {
  std::vector<graph::EdgeId> offsets;    // num_vertices + 1
  std::vector<graph::VertexId> sources;  // concatenated per destination
  std::vector<float> weights;            // parallel to sources; empty when
                                         // the graph is unweighted

  void Build(const graph::CsrGraph& g, const graph::Partition& partition);
};

}  // namespace gum::core

#endif  // GUM_CORE_EXPAND_PULL_EDGES_H_
