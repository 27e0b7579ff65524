// Hub-vertex cache (paper Example 6).
//
// Vertices with in-degree above t4 are "hub" vertices: they receive many
// messages and are activated often, so GUM caches their adjacency lists on
// every device in advance and marks them in a bitmap. A stolen frontier
// vertex found in the bitmap is expanded from the local cache instead of
// over NVLink.

#ifndef GUM_CORE_HUB_CACHE_H_
#define GUM_CORE_HUB_CACHE_H_

#include "common/bitmap.h"
#include "graph/csr.h"

namespace gum::core {

class HubCache {
 public:
  HubCache() = default;

  // Marks every vertex with in-degree > t4.
  HubCache(const graph::CsrGraph& g, uint32_t t4_hub_in_degree);

  bool IsHub(graph::VertexId v) const {
    return enabled_ && bitmap_.Test(v);
  }
  size_t num_hubs() const { return enabled_ ? bitmap_.Count() : 0; }
  // Cached adjacency bytes replicated per device.
  size_t cache_bytes() const { return cache_bytes_; }
  bool enabled() const { return enabled_; }

 private:
  bool enabled_ = false;
  Bitmap bitmap_;
  size_t cache_bytes_ = 0;
};

}  // namespace gum::core

#endif  // GUM_CORE_HUB_CACHE_H_
