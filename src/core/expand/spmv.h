// SpMV expand backend (GraphBLAST-style, DESIGN.md §12).
//
// Linear-algebra formulation of Step 4: the frontier is a sparse vector of
// payloads, the adjacency matrix is applied to it, and each destination's
// incoming contributions are combined. Two directions:
//
//   * push (SpMSpV, sparse frontiers) — the frontier-scatter pipeline over
//     the identity plan (the linear-algebra backend does not
//     frontier-steal); the engine runs it on its FrontierScatterBackend;
//   * pull (SpMV, dense frontiers) — this backend: each destination shard
//     gathers over a per-destination in-edge structure (PullEdges),
//     skipping sources not in the frontier via a membership bitmap, and
//     deposits ONE combined message per destination.
//
// Byte-identical values by construction: the determinism contract's
// canonical merge order visits a destination's messages by (source
// fragment ascending, source vertex ascending) — SelectStolenRanges tiles
// each fragment frontier contiguously in worker order, and frontiers are
// ascending per fragment, so concatenating units in canonical order
// replays sources in exactly that order. PullEdges lists each
// destination's in-edges in that same order (built by walking fragments
// ascending, part_vertices ascending), so the pull gather reproduces every
// combine chain of the scatter path bit for bit — including PageRank's
// non-associative double sums. Apps with the CombineAll hook fuse
// Scatter+Combine per in-edge; others run the Scatter/optional pair.
//
// Accounting model: pull reads remote payload/adjacency instead of
// forwarding messages, so pull iterations charge their active in-edges as
// remote gathers (edges_done[src_fragment][dst_executor]) and report zero
// raw/aggregated messages.

#ifndef GUM_CORE_EXPAND_SPMV_H_
#define GUM_CORE_EXPAND_SPMV_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/bitmap.h"
#include "common/thread_pool.h"
#include "obs/trace.h"
#include "core/expand/expand_backend.h"
#include "core/expand/pull_edges.h"
#include "core/message_store.h"
#include "core/vertex_state.h"
#include "graph/csr.h"
#include "graph/partition.h"

namespace gum::core {

template <typename App>
class SpmvBackend {
 public:
  using Value = typename App::Value;
  using Message = typename App::Message;

  // Resident bytes the backend retains across runs: the payload arena
  // (the serving-mode memory gauge; the shared PullEdges is accounted by
  // its owner).
  size_t StagingBytes() const {
    return payloads_.capacity() * sizeof(Message);
  }

  // Pull direction: payload pre-pass, frontier membership bitmap, then a
  // per-destination-shard gather over `pull` depositing one combined
  // message per destination. `pull` must be built over the same partition
  // (the GraphContext's pull_edges()).
  void ExpandPull(ThreadPool* pool, const graph::CsrGraph& g,
                  const graph::Partition& partition, const PullEdges& pull,
                  const std::vector<int>& owner_of_fragment, App& app,
                  std::vector<Value>& values, const FrontierSoA& frontier,
                  const ShardMap& shards, MessageStore<Message>& store,
                  ExpandCounters* out) {
    const int n = partition.num_parts;
    out->Reset(n);
    GUM_TRACE_SCOPE("expand.spmv_pull");
    ComputePayloads(pool, g, app, values, frontier);

    // Membership bitmap, rebuilt serially: vertices of different fragments
    // may share a word, so concurrent Set calls would race.
    if (in_frontier_.size() != g.num_vertices()) {
      in_frontier_.Resize(g.num_vertices());
    } else {
      in_frontier_.Clear();
    }
    for (graph::VertexId u : frontier.Flat()) in_frontier_.Set(u);

    const int s_count = shards.num_shards();
    if (static_cast<int>(shard_edges_.size()) < s_count) {
      shard_edges_.resize(s_count);
    }
    for (auto& m : shard_edges_) {
      if (static_cast<int>(m.size()) != n) {
        m.assign(n, std::vector<double>(n, 0.0));
      } else {
        for (auto& row : m) std::fill(row.begin(), row.end(), 0.0);
      }
    }
    shard_edges_processed_.assign(static_cast<size_t>(s_count), 0);

    const bool weighted = !pull.weights.empty();
    const auto gather_shard = [&](size_t s) {
      GUM_TRACE_SCOPE("expand.pull_shard");
      auto& edge_matrix = shard_edges_[s];
      uint64_t edges_seen = 0;
      const size_t begin = shards.ShardBegin(static_cast<int>(s));
      const size_t end = std::min(static_cast<size_t>(g.num_vertices()),
                                  shards.ShardEnd(static_cast<int>(s)));
      for (size_t dst = begin; dst < end; ++dst) {
        const auto v = static_cast<graph::VertexId>(dst);
        const graph::EdgeId eb = pull.offsets[dst];
        const graph::EdgeId ee = pull.offsets[dst + 1];
        if (eb == ee) continue;
        const int edge_row_dst = owner_of_fragment[partition.owner[v]];
        if constexpr (HasCombineAll<App>) {
          Message acc = app.InitialAccumulator();
          bool any = false;
          for (graph::EdgeId e = eb; e < ee; ++e) {
            const graph::VertexId u = pull.sources[e];
            if (!in_frontier_.Test(u)) continue;
            acc = app.CombineAll(acc, payloads_[u],
                                 weighted ? pull.weights[e] : 1.0f);
            edge_matrix[partition.owner[u]][edge_row_dst] += 1.0;
            ++edges_seen;
            any = true;
          }
          if (any) store.Put(v, acc);
        } else {
          std::optional<Message> acc;
          for (graph::EdgeId e = eb; e < ee; ++e) {
            const graph::VertexId u = pull.sources[e];
            if (!in_frontier_.Test(u)) continue;
            edge_matrix[partition.owner[u]][edge_row_dst] += 1.0;
            ++edges_seen;
            std::optional<Message> m = app.Scatter(
                payloads_[u], v, weighted ? pull.weights[e] : 1.0f);
            if (!m.has_value()) continue;
            acc = acc.has_value() ? app.Combine(*acc, *m) : *m;
          }
          if (acc.has_value()) store.Put(v, *acc);
        }
      }
      shard_edges_processed_[s] = edges_seen;
    };
    if (pool == nullptr || pool->num_threads() <= 1 || s_count <= 1) {
      for (int s = 0; s < s_count; ++s) gather_shard(static_cast<size_t>(s));
    } else {
      pool->ParallelForStatic(static_cast<size_t>(s_count), gather_shard);
    }

    // Reduce per-shard scratch in shard order (integer-valued doubles,
    // exact in any order anyway).
    for (int s = 0; s < s_count; ++s) {
      for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
          out->edges_done[i][j] += shard_edges_[s][i][j];
        }
      }
      out->edges_processed += shard_edges_processed_[s];
    }
  }

 private:
  // Calls OnFrontier exactly once per frontier vertex (it may mutate the
  // vertex's value — delta-PageRank consumes its residual here), storing
  // the payload into a num_vertices-sized arena. Distinct vertices, so the
  // fragments may run on any number of threads.
  void ComputePayloads(ThreadPool* pool, const graph::CsrGraph& g, App& app,
                       std::vector<Value>& values,
                       const FrontierSoA& frontier) {
    GUM_TRACE_SCOPE("expand.payload");
    if (payloads_.size() < g.num_vertices()) payloads_.resize(g.num_vertices());
    const int n = frontier.num_fragments();
    const auto do_fragment = [&](size_t i) {
      for (graph::VertexId u : frontier.Fragment(static_cast<int>(i))) {
        payloads_[u] = app.OnFrontier(u, values[u], g.OutDegree(u));
      }
    };
    if (pool == nullptr || pool->num_threads() <= 1) {
      for (int i = 0; i < n; ++i) do_fragment(static_cast<size_t>(i));
    } else {
      pool->ParallelFor(static_cast<size_t>(n), do_fragment);
    }
  }

  Bitmap in_frontier_;
  std::vector<Message> payloads_;
  // [shard][src_fragment][dst_executor] active in-edge charges.
  std::vector<std::vector<std::vector<double>>> shard_edges_;
  std::vector<uint64_t> shard_edges_processed_;
};

}  // namespace gum::core

#endif  // GUM_CORE_EXPAND_SPMV_H_
