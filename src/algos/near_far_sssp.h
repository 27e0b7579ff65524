// Near-far SSSP (Davidson et al., IPDPS'14) — the algorithm-specific
// optimization behind Gunrock's strong single-GPU SSSP (paper Exp-2:
// "Gunrock's implementation adopts an algorithm-specific 'near-far'
// optimization that runs faster on a single GPU while hard to scale out").
//
// Work is split by a moving distance threshold: vertices relaxed below
// `split = delta * (band + 1)` go to the NEAR pile and are processed this
// band; the rest wait in the FAR pile. Compared with plain Bellman-Ford
// frontiers this avoids re-relaxing vertices whose tentative distance will
// drop again, at the cost of extra pile-management passes — great on one
// GPU, awkward to coordinate across many (which is why the baseline only
// uses it at n=1).
//
// Distances are exact (it is a delta-stepping variant with near/far piles);
// validated against Dijkstra.

#ifndef GUM_ALGOS_NEAR_FAR_SSSP_H_
#define GUM_ALGOS_NEAR_FAR_SSSP_H_

#include <vector>

#include "core/run_result.h"
#include "graph/csr.h"
#include "graph/partition.h"
#include "sim/device.h"
#include "sim/topology.h"

namespace gum::algos {

struct NearFarOptions {
  sim::DeviceParams device;
  // Band width; 0 picks `average edge weight * 2` automatically.
  double delta = 0.0;
};

struct NearFarStats {
  int bands = 0;
  uint64_t relaxations = 0;      // edges relaxed
  uint64_t far_pile_moves = 0;   // vertices parked in the far pile
};

core::RunResult NearFarSssp(const graph::CsrGraph& g,
                            const graph::Partition& partition,
                            const sim::Topology& topology,
                            graph::VertexId source,
                            const NearFarOptions& options,
                            std::vector<float>* dist_out = nullptr,
                            NearFarStats* stats_out = nullptr);

}  // namespace gum::algos

#endif  // GUM_ALGOS_NEAR_FAR_SSSP_H_
