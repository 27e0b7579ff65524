// Groute's connected-components algorithm (used for the paper's WCC rows).
//
// Unlike the generic label-propagation WCC (which needs ~diameter
// supersteps), Groute's CC is diameter-independent: every device builds a
// union-find forest over the edges it owns, the devices then exchange
// boundary labels (min per vertex, reduced at the vertex's owner) over the
// ring, re-hook locally, and repeat until no label changes. Convergence
// takes O(log |V|) rounds even on 2000-hop road networks — which is exactly
// why the real Groute crushes BSP engines on road-network WCC in paper
// Table III while losing the single-source traversals.
//
// Results are validated against the same union-find reference as every
// other engine; input must be a symmetrized CsrGraph.

#ifndef GUM_BASELINES_GROUTE_CC_H_
#define GUM_BASELINES_GROUTE_CC_H_

#include <vector>

#include "core/run_result.h"
#include "graph/csr.h"
#include "graph/partition.h"
#include "sim/comm_plane.h"
#include "sim/device.h"

namespace gum::baselines {

struct GrouteCcOptions {
  sim::DeviceParams device;
  // Interconnect contention model for the per-round boundary exchange.
  sim::ContentionModel contention = sim::ContentionModel::kOff;
};

class GrouteCcEngine {
 public:
  GrouteCcEngine(const graph::CsrGraph* g, graph::Partition partition,
                 GrouteCcOptions options);

  // Runs to convergence; labels_out[v] = min vertex id of v's component.
  core::RunResult Run(std::vector<graph::VertexId>* labels_out = nullptr);

 private:
  const graph::CsrGraph* g_;
  graph::Partition partition_;
  GrouteCcOptions options_;
};

}  // namespace gum::baselines

#endif  // GUM_BASELINES_GROUTE_CC_H_
