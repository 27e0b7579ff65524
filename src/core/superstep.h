// The apply phase that ends a push superstep (Step 1 of the next one:
// apply the combined messages, build the next frontier), and the scratch
// it shares with the gather, which applies in place (core/expand/,
// DESIGN.md §12).
//
// Thread-safety requirement on App: Apply may mutate the vertex value it
// is handed but must not mutate App member state (Apply runs concurrently
// across destination ranges — disjoint vertex ranges).

#ifndef GUM_CORE_SUPERSTEP_H_
#define GUM_CORE_SUPERSTEP_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "obs/trace.h"
#include "core/message_store.h"
#include "core/vertex_state.h"
#include "graph/partition.h"

namespace gum::core {

// Scratch reused across iterations by an apply over ascending contiguous
// destination ranges (the push's shards, or the gather's blocks). Buffers
// are cleared in place, so steady-state supersteps keep their capacity
// instead of re-growing vectors.
struct ApplyScratch {
  // [range][fragment] -> activated vertices, ascending within the range.
  std::vector<std::vector<std::vector<graph::VertexId>>> segments;
  // [range][fragment] -> applied-message counts.
  std::vector<std::vector<double>> counts;
  // The next frontier's arena, swapped with the current one.
  FrontierSoA next_frontier;

  // Empties the first `num_ranges` rows of segments, before they run.
  void ClearSegments(size_t num_ranges, size_t num_fragments) {
    if (segments.size() < num_ranges) segments.resize(num_ranges);
    for (size_t r = 0; r < num_ranges; ++r) {
      segments[r].resize(num_fragments);
      for (auto& seg : segments[r]) seg.clear();
    }
  }

  // Replaces `frontier` with the segments concatenated in range order,
  // ascending per fragment since the ranges ascend.
  void SwapInNextFrontier(int num_ranges, int num_fragments,
                          FrontierSoA* frontier) {
    next_frontier.AssignFromShardSegments(segments, num_ranges,
                                          num_fragments);
    std::swap(*frontier, next_frontier);
  }
};

// End-of-superstep apply phase of a push superstep, parallel over
// destination shards: each shard drains its store range in ascending
// vertex order, applies combined messages, and pushes activated vertices
// into per-shard per-fragment segments. `frontier`, when non-null, is then
// replaced by the segments concatenated in shard order, identical to the
// serial drain. `apply_counts`, when non-null, receives per-fragment
// applied-message counts (integer-valued, added in shard order). Clears
// the store.
template <typename App>
void ApplySuperstep(ThreadPool* pool, const ShardMap& shards,
                    const graph::Partition& partition, App& app,
                    MessageStore<typename App::Message>& store,
                    std::vector<typename App::Value>& values,
                    ApplyScratch* scratch, FrontierSoA* frontier,
                    std::vector<double>* apply_counts) {
  using Message = typename App::Message;
  const int s_count = shards.num_shards();
  const size_t n = static_cast<size_t>(partition.num_parts);
  const bool want_frontier = frontier != nullptr;
  const bool want_counts = apply_counts != nullptr;
  if (want_frontier) scratch->ClearSegments(s_count, n);
  if (scratch->counts.size() < static_cast<size_t>(s_count)) {
    scratch->counts.resize(s_count);
  }

  const auto apply_shard = [&](size_t s) {
    GUM_TRACE_SCOPE("apply.shard");
    auto* const segs = want_frontier ? scratch->segments[s].data() : nullptr;
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
    scratch->SwapInNextFrontier(s_count, static_cast<int>(n), frontier);
  }
  if (want_counts) {
    // Integer-valued doubles: exact under any summation order; shard order
    // keeps it deterministic anyway.
    apply_counts->assign(n, 0.0);
    for (int s = 0; s < s_count; ++s) {
      for (size_t i = 0; i < n; ++i) {
        (*apply_counts)[i] += scratch->counts[s][i];
      }
    }
  }
  store.EndSuperstep();
}

}  // namespace gum::core

#endif  // GUM_CORE_SUPERSTEP_H_
