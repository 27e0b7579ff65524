// GUM's production connected-components path (the "WCC" rows of paper
// Table III).
//
// Plain min-label propagation needs ~diameter supersteps — hopeless on
// road networks (2000+ hops). Like libgrape-lite, GUM's WCC instead runs a
// diameter-independent scheme on the BSP substrate:
//   per round: every device hooks a union-find forest over the edges of the
//   fragments it owns plus the labels of the previous round, proposes the
//   component minimum for every touched vertex, and ships boundary
//   proposals to the vertices' owners (aggregated, topology-aware —
//   unlike the Groute version, transfers use the best NVLink path instead
//   of a fixed ring). Rounds synchronize with the usual p*m barrier and
//   converge in O(log |V|).
//
// Exposed as a standalone solver (not an engine App) because it needs
// whole-fragment computation, which the per-vertex GAS concept cannot
// express. The generic WccApp remains available for apples-to-apples
// label-propagation comparisons.

#ifndef GUM_CORE_FAST_WCC_H_
#define GUM_CORE_FAST_WCC_H_

#include <vector>

#include "core/run_result.h"
#include "graph/csr.h"
#include "graph/partition.h"
#include "sim/comm_plane.h"
#include "sim/device.h"
#include "sim/topology.h"

namespace gum::core {

struct FastWccOptions {
  sim::DeviceParams device;
  // Interconnect contention model for the per-round proposal shipments.
  sim::ContentionModel contention = sim::ContentionModel::kOff;
};

// One device's round step of the union-find scheme FastWcc and Groute's CC
// (baselines/groute_cc.h) share: hook a forest over the out-edges of part
// `d` plus the previous round's `label`s, then lower `proposed` to each
// touched vertex's component minimum. Returns, per owner device, how many
// of the lowered proposals belong to another device's vertex (integer
// counts, so sums stay exact). `parent` is |V|-sized scratch.
std::vector<double> HookAndPropose(const graph::CsrGraph& g,
                                   const graph::Partition& partition, int d,
                                   const std::vector<graph::VertexId>& label,
                                   std::vector<graph::VertexId>* parent,
                                   std::vector<graph::VertexId>* proposed);

// Runs on a symmetrized graph; labels_out[v] = min vertex id of v's
// component.
RunResult FastWcc(const graph::CsrGraph& g, const graph::Partition& partition,
                  const sim::Topology& topology, const FastWccOptions& options,
                  std::vector<graph::VertexId>* labels_out = nullptr);

}  // namespace gum::core

#endif  // GUM_CORE_FAST_WCC_H_
