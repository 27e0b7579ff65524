#include "core/census.h"

namespace gum::core {

void FrontierCensus::Take(const graph::CsrGraph& g, const HubCache& hub_cache,
                          const FrontierSoA& frontier) {
  const int n = frontier.num_fragments();
  sizes.assign(n, 0);
  loads.assign(n, 0.0);
  remote_discount.assign(n, 1.0);
  features.resize(n);
  total_load = 0.0;
  total_frontier = 0;
  for (int i = 0; i < n; ++i) {
    double hub_load = 0.0;
    for (const graph::VertexId v : frontier.Fragment(i)) {
      loads[i] += g.OutDegree(v);
      if (hub_cache.IsHub(v)) hub_load += g.OutDegree(v);
    }
    total_load += loads[i];
    sizes[i] = frontier.FragmentSize(i);
    total_frontier += sizes[i];
    features[i] = graph::ExtractFrontierFeatures(g, frontier.Fragment(i));
    if (loads[i] > 0) remote_discount[i] = 1.0 - hub_load / loads[i];
  }
}

}  // namespace gum::core
