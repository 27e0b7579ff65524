// Per-destination in-edge structure for Step 4's destination gather
// (core/expand/frontier_scatter.h). The immutable serving substrate
// (core/graph_context.h) owns one shared copy across every query.
//
// Unlike the CSR's in-adjacency (sorted by source id, no weights), each
// destination's sources appear in the canonical combine order — (owner
// fragment ascending, source vertex ascending) — and carry the out-edge's
// weight. The gather therefore reproduces every combine chain of the
// scatter path bit for bit (DESIGN.md §7, §12).

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
