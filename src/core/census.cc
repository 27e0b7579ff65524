#include "core/census.h"

namespace gum::core {

void FrontierCensus::Take(const graph::CsrGraph& g, const HubCache& hub_cache,
                          const FrontierSoA& frontier) {
  const int n = frontier.num_fragments();
  sizes.assign(n, 0);
  loads.assign(n, 0.0);
  remote_discount.assign(n, 1.0);
  features.resize(n);
  degree_prefix.resize(n);
  total_load = 0.0;
  total_frontier = 0;
  for (int i = 0; i < n; ++i) {
    const auto fragment = frontier.Fragment(i);
    std::vector<graph::EdgeId>& prefix = degree_prefix[i];
    prefix.resize(fragment.size());
    graph::EdgeId load = 0;
    double hub_load = 0.0;
    for (size_t k = 0; k < fragment.size(); ++k) {
      const uint32_t deg = g.OutDegree(fragment[k]);
      load += deg;
      prefix[k] = load;
      if (hub_cache.IsHub(fragment[k])) hub_load += deg;
    }
    loads[i] = static_cast<double>(load);
    total_load += loads[i];
    sizes[i] = fragment.size();
    total_frontier += sizes[i];
    features[i] = graph::ExtractFrontierFeatures(g, fragment);
    if (loads[i] > 0) remote_discount[i] = 1.0 - hub_load / loads[i];
  }
}

}  // namespace gum::core
