// The apply phase that ends every data-driven BSP superstep (Step 1 of the
// next one: apply the combined messages, build the next frontier). Step
// 4's expand lives in core/expand/ (DESIGN.md §12); a stationary
// superstep's gather applies every vertex itself.
//
// Thread-safety requirement on App: Apply may mutate the vertex value it
// is handed but must not mutate App member state (Apply runs concurrently
// across destination shards — disjoint vertex ranges).

#ifndef GUM_CORE_SUPERSTEP_H_
#define GUM_CORE_SUPERSTEP_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/thread_pool.h"
#include "obs/trace.h"
#include "core/message_store.h"
#include "core/vertex_state.h"
#include "graph/partition.h"

namespace gum::core {

// Scratch reused across iterations by the sharded apply phase. Buffers are
// cleared in place, so steady-state supersteps keep their capacity instead
// of re-growing vectors.
struct ApplyScratch {
  // [shard][fragment] -> activated vertices, ascending within the shard.
  std::vector<std::vector<std::vector<graph::VertexId>>> segments;
  // [shard][fragment] -> applied-message counts.
  std::vector<std::vector<double>> counts;
};

// End-of-superstep apply phase of a data-driven superstep, parallel over
// destination shards: each shard drains its store range in ascending
// vertex order, applies combined messages, and pushes activated vertices
// into per-shard per-fragment segments. Segments are then concatenated in
// shard order — shards are ascending contiguous vertex ranges, so each
// fragment's next frontier comes out ascending, identical to the serial
// drain. (A stationary superstep applies inside its gather instead,
// core/expand/frontier_scatter.h.) next_frontier, when non-null, receives
// the rebuilt frontier (arena reused across iterations). apply_counts,
// when non-null, accumulates per-fragment applied-message counts. Clears
// the store.
template <typename App>
void ApplySuperstep(ThreadPool* pool, const ShardMap& shards,
                    const graph::Partition& partition, App& app,
                    MessageStore<typename App::Message>& store,
                    std::vector<typename App::Value>& values,
                    ApplyScratch* scratch, FrontierSoA* next_frontier,
                    std::vector<double>* apply_counts) {
  using Message = typename App::Message;
  const int s_count = shards.num_shards();
  const size_t n = static_cast<size_t>(partition.num_parts);
  const bool want_frontier = next_frontier != nullptr;
  const bool want_counts = apply_counts != nullptr;
  if (scratch->segments.size() < static_cast<size_t>(s_count)) {
    scratch->segments.resize(s_count);
  }
  if (scratch->counts.size() < static_cast<size_t>(s_count)) {
    scratch->counts.resize(s_count);
  }

  const auto apply_shard = [&](size_t s) {
    GUM_TRACE_SCOPE("apply.shard");
    auto& segs = scratch->segments[s];
    if (want_frontier) {
      if (segs.size() != n) segs.resize(n);
      for (auto& seg : segs) seg.clear();
    }
    auto& cnt = scratch->counts[s];
    if (want_counts) cnt.assign(n, 0.0);
    const size_t begin = shards.ShardBegin(static_cast<int>(s));
    const size_t end =
        std::min(values.size(), shards.ShardEnd(static_cast<int>(s)));
    store.ForEachPendingInRange(
        begin, end, [&](graph::VertexId v, const Message& msg) {
          if (app.Apply(v, values[v], msg) && want_frontier) {
            segs[partition.owner[v]].push_back(v);
          }
          if (want_counts) cnt[partition.owner[v]] += 1.0;
        });
  };
  ForEachShard(pool, s_count, apply_shard);

  if (want_frontier) {
    next_frontier->AssignFromShardSegments(scratch->segments, s_count,
                                           static_cast<int>(n));
  }
  if (want_counts) {
    // Integer-valued doubles: exact under any summation order; shard order
    // keeps it deterministic anyway.
    for (int s = 0; s < s_count; ++s) {
      for (size_t i = 0; i < n && i < scratch->counts[s].size(); ++i) {
        (*apply_counts)[i] += scratch->counts[s][i];
      }
    }
  }
  store.EndSuperstep();
}

}  // namespace gum::core

#endif  // GUM_CORE_SUPERSTEP_H_
