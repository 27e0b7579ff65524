#include "core/hub_cache.h"

namespace gum::core {

HubCache::HubCache(const graph::CsrGraph& g, uint32_t t4_hub_in_degree) {
  enabled_ = true;
  bitmap_.Resize(g.num_vertices());
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.InDegree(v) > t4_hub_in_degree) {
      bitmap_.Set(v);
      cache_bytes_ += sizeof(graph::VertexId) * g.OutDegree(v);
    }
  }
}

}  // namespace gum::core
