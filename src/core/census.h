// Step 1 of a superstep (paper §V, Example 4): the workload census.
//
// Per fragment, the census measures the frontier's out-edge load, the
// share of that load a thief must fetch over NVLink (hub-cached vertices
// expand locally, Example 6), the Table-I features the cost model prices,
// and the out-degree prefix Step 3 cuts stolen ranges from. OSteal,
// FSteal, the expand-mode decision and both time models (GUM's and the
// Gunrock preset's) read it.
//
// A data-driven superstep takes a fresh census of its frontier. A
// stationary superstep (a fixed-round app, whose frontier is every
// fragment's part_vertices) reads the GraphContext's cached one, taken
// once with this same function (DESIGN.md §13).

#ifndef GUM_CORE_CENSUS_H_
#define GUM_CORE_CENSUS_H_

#include <cstddef>
#include <vector>

#include "core/hub_cache.h"
#include "core/vertex_state.h"
#include "graph/csr.h"
#include "graph/frontier_features.h"
#include "graph/types.h"

namespace gum::core {

struct FrontierCensus {
  std::vector<size_t> sizes;             // [fragment] frontier vertices
  std::vector<double> loads;             // [fragment] frontier out-edges
  std::vector<double> remote_discount;   // [fragment] 1 - hub load / load
  std::vector<graph::FrontierFeatures> features;  // [fragment] Table I
  // [fragment][k] out-edges of the fragment's first k + 1 frontier
  // vertices: Algorithm 1's inclusive prefix D (line 13), which
  // SelectStolenRanges cuts. Its last entry equals loads[fragment].
  std::vector<std::vector<graph::EdgeId>> degree_prefix;
  double total_load = 0.0;
  size_t total_frontier = 0;

  // Recomputes every field for `frontier`, reusing the vectors' storage.
  // Loads are sums of integer degrees, so they are exact.
  void Take(const graph::CsrGraph& g, const HubCache& hub_cache,
            const FrontierSoA& frontier);
};

}  // namespace gum::core

#endif  // GUM_CORE_CENSUS_H_
