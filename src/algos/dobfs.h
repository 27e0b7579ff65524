// Direction-optimized BFS (Beamer's push/pull switching) — the
// algorithm-specific optimization behind Gunrock's strong single-GPU BFS
// numbers (paper Exp-2: "Gunrock's implementation enabled many
// algorithm-specific optimizations").
//
// Level-synchronous; per level the engine picks a direction:
//   push — frontier vertices scatter to out-neighbors (work ~ frontier
//          out-edges);
//   pull — unvisited vertices scan in-neighbors for a parent on the
//          frontier, stopping at the first hit (work ~ scanned in-edges,
//          tiny when the frontier covers most of the graph).
// Switch heuristics follow Beamer: push->pull when the frontier's out-edge
// count exceeds (remaining unvisited edges)/alpha; pull->push when the
// frontier shrinks below |V|/beta.
//
// Depths are identical to plain BFS (both directions are level-exact);
// only the simulated cost differs.

#ifndef GUM_ALGOS_DOBFS_H_
#define GUM_ALGOS_DOBFS_H_

#include <vector>

#include "core/run_result.h"
#include "graph/csr.h"
#include "graph/partition.h"
#include "sim/device.h"
#include "sim/topology.h"

namespace gum::algos {

struct DoBfsOptions {
  sim::DeviceParams device;
  double alpha = 15.0;  // push -> pull threshold
  double beta = 18.0;   // pull -> push threshold
};

struct DoBfsStats {
  int push_levels = 0;
  int pull_levels = 0;
  uint64_t pushed_edges = 0;
  uint64_t pulled_edges = 0;  // scanned in-edges (with early exit)
};

// Runs from `source`; depths_out[v] = level or UINT32_MAX. `stats_out` is
// optional.
core::RunResult DirectionOptimizedBfs(
    const graph::CsrGraph& g, const graph::Partition& partition,
    const sim::Topology& topology, graph::VertexId source,
    const DoBfsOptions& options, std::vector<uint32_t>* depths_out = nullptr,
    DoBfsStats* stats_out = nullptr);

}  // namespace gum::algos

#endif  // GUM_ALGOS_DOBFS_H_
