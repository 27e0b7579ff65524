// Step 4's expand backend (paper §V, Example 4; DESIGN.md §12): process
// the frontiers and combine every message per target vertex, in one of two
// directions over the same App hooks.
//
// Scatter (push). One iteration's expansion work is decomposed into work
// *units* — each a (fragment, executor, contiguous vertex range) triple.
// Units are mutually independent:
//   * they read the shared graph/partition/hub-cache (immutable);
//   * they mutate only the values of their own frontier vertices, and the
//     per-fragment ranges are disjoint (SelectStolenRanges partitions each
//     frontier; distinct fragments never share vertices);
//   * counters go into a private UnitCounters record, and messages into a
//     private MessageStaging buffer when units run concurrently.
// They may therefore run on any number of host threads in any order;
// determinism is restored by replaying the staging buffers into the
// MessageStore in canonical unit order, one destination shard at a time
// (disjoint contiguous vertex ranges, core/message_store.h), which leaves
// every per-vertex combine chain untouched. With one host thread the units
// run in that canonical order, so each message is deposited as it is
// emitted: every vertex sees its messages in the replay's order, and no
// message is staged. Each destination range then applies its finished
// chains in place, right after its own replay (see DESIGN.md,
// "Determinism contract" and "Sharded message plane").
//
// Gather (pull). Each destination block walks its destinations' in-edges
// in PullEdges, which lists them in that same canonical merge order, and
// chains Scatter/Combine exactly as the merge would, so every combine
// chain is the scatter path's bit for bit. Blocks are contiguous
// destination ranges cut at equal shares of in-edges plus destinations,
// claimed dynamically by the pool's threads. Stationary supersteps (every
// vertex active) and the SpMV pull (a dense frontier under
// --expand=spmv|auto) share it; they differ only in what an in-edge
// charges and which sources it reads. The gather applies each destination
// once its chain is complete, never touching the MessageStore, and a
// data-driven pull assembles its next frontier in block order.
//
// Thread-safety requirement on App: OnFrontier and Apply may mutate the
// vertex value they are handed but must not mutate App member state;
// Scatter and Combine must be pure. Every bundled app satisfies this.

#ifndef GUM_CORE_EXPAND_FRONTIER_SCATTER_H_
#define GUM_CORE_EXPAND_FRONTIER_SCATTER_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/bitmap.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "obs/trace.h"
#include "core/census.h"
#include "core/expand/expand_backend.h"
#include "core/expand/pull_edges.h"
#include "core/fsteal.h"
#include "core/hub_cache.h"
#include "core/message_store.h"
#include "core/vertex_state.h"
#include "graph/csr.h"
#include "graph/partition.h"

namespace gum::core {

// One executor's share of one fragment's frontier.
struct WorkUnit {
  int fragment = 0;
  int executor = 0;
  size_t begin = 0;  // [begin, end) into the fragment's frontier
  size_t end = 0;
};

// Per-unit counters; cell (fragment, executor) of the engine's per-
// iteration matrices. All fields are sums of integer quantities, so
// aggregating them in any order is exact.
struct UnitCounters {
  double edges = 0.0;         // out-edges expanded by this unit
  double hub_edges = 0.0;     // of those, hub-cached remote expansions
  double stolen_edges = 0.0;  // expanded away from the fragment's owner
  uint64_t edges_processed = 0;
  std::vector<double> raw_msgs;  // emitted messages per destination fragment

  void Reset(int num_fragments) {
    edges = 0.0;
    hub_edges = 0.0;
    stolen_edges = 0.0;
    edges_processed = 0;
    raw_msgs.assign(static_cast<size_t>(num_fragments), 0.0);
  }
};

// Builds the iteration's units in canonical order: fragments ascending;
// within a stolen fragment, the plan's active-worker order (the row order
// of SelectStolenRanges, which cuts the census's degree prefix). Empty
// ranges produce no unit. This order defines the deterministic merge
// sequence. `census` must be taken over `frontier`.
std::vector<WorkUnit> BuildWorkUnits(const FrontierSoA& frontier,
                                     const FStealDecision& fs,
                                     const FrontierCensus& census,
                                     const std::vector<int>& owner_of_fragment,
                                     const std::vector<int>& active);

// The gather's destination blocks per pool thread. Several per thread let
// dynamic claiming even out what the cost cut misses.
inline constexpr size_t kGatherBlocksPerThread = 8;

// Cuts the gather's destinations [0, offsets.size() - 1) into `num_blocks`
// contiguous blocks, in order, at equal shares of in-edges plus
// destinations (`offsets` is PullEdges::offsets). Every cut lies on a
// 64-vertex boundary, so two blocks never share a Bitmap word; a graph too
// small to fill every block leaves some empty. Writes num_blocks + 1
// ascending bounds: block b is [bounds[b], bounds[b + 1]).
void CutGatherBlocks(std::span<const graph::EdgeId> offsets,
                     size_t num_blocks, std::vector<size_t>* bounds);

// A gather's two rules (DESIGN.md §12), picked per superstep; each pair
// is its own instantiation of the edge loop. The charge: the push's
// messages at [executor(u)][fragment(v)], or the SpMV pull's remote gathers
// at [fragment(u)][executor(fragment(v))] per in-edge from a source.
enum class GatherCharge { kMessages, kRemoteGathers };
// The sources: every vertex, applying every destination (a stationary
// superstep), or the frontier's, applying each destination that received
// a message (a data-driven pull).
enum class GatherSources { kEveryVertex, kFrontier };

// Walks one unit's vertex range, calling visit(u, out_degree) once per
// vertex in frontier order, and adds the unit's edge counters: `edges`
// and `edges_processed` count every out-edge; `hub_edges` those of hub
// vertices when the executor is not the *fragment* (Example 6: a cached
// hub expands locally, so only a remote executor saves NVLink traffic);
// `stolen_edges` every out-edge when the executor is not the fragment's
// owner. Integer sums, hoisted into locals and written back once.
template <typename VisitFn>
void WalkUnit(const graph::CsrGraph& g, const HubCache* hub_cache,
              int fragment_owner, std::span<const graph::VertexId> frontier,
              const WorkUnit& unit, UnitCounters* counters, VisitFn&& visit) {
  const bool count_hub =
      unit.executor != unit.fragment && hub_cache != nullptr;
  const bool stolen = unit.executor != fragment_owner;
  uint64_t edges_sum = 0;
  uint64_t hub_sum = 0;
  for (size_t k = unit.begin; k < unit.end; ++k) {
    const graph::VertexId u = frontier[k];
    const uint32_t deg = g.OutDegree(u);
    visit(u, deg);
    edges_sum += deg;
    if (count_hub && hub_cache->IsHub(u)) hub_sum += deg;
  }
  // Integer-valued sums: identical to per-vertex accumulation.
  counters->edges += static_cast<double>(edges_sum);
  counters->hub_edges += static_cast<double>(hub_sum);
  if (stolen) counters->stolen_edges += static_cast<double>(edges_sum);
  counters->edges_processed += edges_sum;
}

// Expands one unit: OnFrontier/Scatter over the unit's vertex range,
// handing every emitted message to `emit(v, owner_of_v, message)` in
// generation order and recording the unit's counters. hub_cache may be
// null (baselines without the Example-6 optimization). The weighted/
// unweighted branch is selected once per unit, not re-tested on every
// edge, by instantiating the scatter loop per weight accessor.
template <typename App, typename EmitFn>
void ExpandUnit(const graph::CsrGraph& g, const graph::Partition& partition,
                const HubCache* hub_cache, int fragment_owner, App& app,
                std::vector<typename App::Value>& values,
                std::span<const graph::VertexId> frontier,
                const WorkUnit& unit, UnitCounters* counters, EmitFn&& emit) {
  using Message = typename App::Message;
  const auto expand = [&](auto&& weight_of) {
    WalkUnit(g, hub_cache, fragment_owner, frontier, unit, counters,
             [&](graph::VertexId u, uint32_t deg) {
               const Message payload = app.OnFrontier(u, values[u], deg);
               const auto neighbors = g.OutNeighbors(u);
               const auto weights = g.OutWeights(u);
               for (size_t e = 0; e < neighbors.size(); ++e) {
                 const graph::VertexId v = neighbors[e];
                 std::optional<Message> msg =
                     app.Scatter(payload, v, weight_of(weights, e));
                 if (!msg.has_value()) continue;
                 const uint32_t owner = partition.owner[v];
                 counters->raw_msgs[owner] += 1.0;
                 emit(v, owner, *msg);
               }
             });
  };
  if (g.has_weights()) {
    expand([](std::span<const float> w, size_t e) { return w[e]; });
  } else {
    expand([](std::span<const float>, size_t) { return 1.0f; });
  }
}

// Expands every unit on `pool` (non-null), staging its messages. Each
// unit's staging buffer bins messages by the destination shards of
// `shards` (the merge's parallel axis). staged/counters are indexed by
// unit and reused across iterations (grown on demand, buffers cleared in
// place).
template <typename App>
void ExpandSuperstep(ThreadPool* pool, const graph::CsrGraph& g,
                     const graph::Partition& partition,
                     const HubCache* hub_cache,
                     const std::vector<int>& owner_of_fragment, App& app,
                     std::vector<typename App::Value>& values,
                     const FrontierSoA& frontier,
                     const std::vector<WorkUnit>& units,
                     const ShardMap& shards,
                     std::vector<MessageStaging<typename App::Message>>* staged,
                     std::vector<UnitCounters>* counters) {
  if (staged->size() < units.size()) staged->resize(units.size());
  if (counters->size() < units.size()) counters->resize(units.size());
  const auto expand_one = [&](size_t idx) {
    GUM_TRACE_SCOPE("expand.unit");
    const WorkUnit& unit = units[idx];
    MessageStaging<typename App::Message>& staging = (*staged)[idx];
    staging.Configure(shards);
    staging.Clear();
    (*counters)[idx].Reset(partition.num_parts);
    ExpandUnit(g, partition, hub_cache, owner_of_fragment[unit.fragment],
               app, values, frontier.Fragment(unit.fragment), unit,
               &(*counters)[idx],
               [&staging](graph::VertexId v, uint32_t,
                          const typename App::Message& m) {
                 staging.Emit(v, m);
               });
  };
  pool->ParallelFor(units.size(), expand_one);
}

// The expand backend's two Step-4 entry points, each of which ends the
// superstep with the next frontier and the applied counts set. Expand
// pushes: canonical unit decomposition, then a serial expand that deposits
// each message as it is emitted (one host thread) or a parallel expand into
// per-unit staging, then one merge-and-apply pass per destination range.
// Gather pulls, applying in place and staging nothing. Owns the staging
// buffers, the payload and executor arenas, the frontier bitmap, the
// per-range count slices and the next frontier's segments and arena, reused
// across iterations.
template <typename App>
class FrontierScatterBackend {
 public:
  using Value = typename App::Value;
  using Message = typename App::Message;

  // Resident bytes across every unit's staging bins plus the gathers'
  // payload and executor arenas (high-water capacity; the serving-mode
  // memory gauge).
  size_t StagingBytes() const {
    size_t total = payloads_.capacity() * sizeof(Message) +
                   executor_of_.capacity() * sizeof(int);
    for (const auto& s : staged_) total += s.CapacityBytes();
    return total;
  }

  // Resident bytes of the spare frontier arena the next frontier is
  // assembled in (high-water capacity).
  size_t NextFrontierBytes() const { return next_frontier_.ArenaBytes(); }
  // Empties the spare frontier arena for a run over `num_fragments`
  // fragments, keeping its capacity.
  void ResetNextFrontier(int num_fragments) {
    next_frontier_.Reset(num_fragments);
  }

  // Runs one push superstep (DESIGN.md §7, §12) and applies it in place.
  // `fs`/`active` carry the frontier-steal plan (identity when !fs.applied),
  // cut from `census`, the census of `frontier`; `hub_cache` may be null.
  // Without a pool of two or more threads the units run serially in
  // canonical order and deposit straight into `store`; otherwise they stage
  // on the pool. Then one pass per destination range (the `shards` on a
  // pool, one range without one) replays the range's bins (staged runs
  // only), drains its store slots through Apply and counts its first
  // writers and applied destinations. `frontier` is replaced by the next
  // frontier, assembled in range order, `apply_msgs` receives each
  // fragment's applied destinations, and the store is left empty. Fills
  // `out` (Reset inside). Both paths give the same counters, values and
  // frontier for any shard count.
  void Expand(ThreadPool* pool, const graph::CsrGraph& g,
              const graph::Partition& partition, const HubCache* hub_cache,
              const std::vector<int>& owner_of_fragment,
              const std::vector<int>& active, const FStealDecision& fs,
              const FrontierCensus& census, App& app,
              std::vector<Value>& values, FrontierSoA* frontier,
              const ShardMap& shards, MessageStore<Message>& store,
              std::vector<double>* apply_msgs, ExpandCounters* out) {
    const int n = partition.num_parts;
    out->Reset(n);
    const std::vector<WorkUnit> units =
        BuildWorkUnits(*frontier, fs, census, owner_of_fragment, active);
    const auto combine = [&app](const Message& a, const Message& b) {
      return app.Combine(a, b);
    };
    const bool staged = pool != nullptr && pool->num_threads() > 1;
    const size_t num_ranges = staged ? shards.num_shards() : 1;
    block_bounds_.assign(num_ranges + 1, values.size());
    for (size_t r = 0; r < num_ranges; ++r) {
      block_bounds_[r] = shards.ShardBegin(static_cast<int>(r));
    }
    const size_t cells = static_cast<size_t>(n) * n;
    const size_t stride = CountStride(n);
    block_counts_.assign(num_ranges * stride, 0);
    // The early-aggregation charge (paper Fig. 4b): the message that claims
    // a vertex's empty inbox slot pays the transfer, one aggregated message
    // from its unit's executor to the vertex's owner.
    const auto cell = [n](int executor, uint32_t owner) {
      return static_cast<size_t>(executor) * n + owner;
    };
    {
      GUM_TRACE_SCOPE("expand.scatter");
      if (staged) {
        ExpandSuperstep(pool, g, partition, hub_cache, owner_of_fragment, app,
                        values, *frontier, units, shards, &staged_,
                        &counters_);
      } else {
        // Canonical unit order, then generation order: each vertex's
        // messages arrive exactly as a staged range replays them. Units get
        // no span here: one thread has no unit balance to show.
        uint64_t* const first_writers = block_counts_.data() + cells;
        if (counters_.size() < units.size()) counters_.resize(units.size());
        for (size_t idx = 0; idx < units.size(); ++idx) {
          const WorkUnit& unit = units[idx];
          counters_[idx].Reset(n);
          ExpandUnit(g, partition, hub_cache,
                     owner_of_fragment[unit.fragment], app, values,
                     frontier->Fragment(unit.fragment), unit, &counters_[idx],
                     [&](graph::VertexId v, uint32_t owner, const Message& m) {
                       if (store.Deposit(v, m, combine)) {
                         ++first_writers[cell(unit.executor, owner)];
                       }
                     });
        }
      }
      AddUnitCounters(units, n, out);
    }

    // One pass per range: the range replays its bins in canonical unit
    // order (the serial loop nest restricted to its vertices), so combine
    // chains and first writers are the serial ones for any shard x thread
    // count, then applies its finished chains. Ranges own disjoint
    // word-aligned vertex ranges, so neither step meets another range's.
    GUM_TRACE_SCOPE("gum.apply");
    ClearSegments(num_ranges, n);
    ForEachShard(pool, static_cast<int>(num_ranges), [&](size_t r) {
      uint64_t* const first_writers = block_counts_.data() + r * stride + cells;
      uint64_t* const applied = first_writers + cells;
      if (staged) {
        GUM_TRACE_SCOPE("merge.shard");
        store.MergeShard(static_cast<int>(r), staged_, units.size(), combine,
                         [&](size_t unit_idx, graph::VertexId v) {
                           ++first_writers[cell(units[unit_idx].executor,
                                                partition.owner[v])];
                         });
      }
      GUM_TRACE_SCOPE("apply.shard");
      std::vector<graph::VertexId>* const activated = segments_[r].data();
      store.ForEachPendingInRange(
          block_bounds_[r], block_bounds_[r + 1],
          [&](graph::VertexId v, const Message& msg) {
            const uint32_t fragment = partition.owner[v];
            if (app.Apply(v, values[v], msg)) activated[fragment].push_back(v);
            ++applied[fragment];
          });
    });
    AddBlockCounts(n, cells, out->agg_msgs);
    AddAppliedCounts(n, apply_msgs);
    SwapInNextFrontier(static_cast<int>(num_ranges), n, frontier);
    store.EndSuperstep();
  }

  // Runs one gather superstep (DESIGN.md §7, §12), applying every
  // destination in place, in two pool passes: a payload pass over the
  // plan's units, built as Expand builds them (OnFrontier once per source;
  // under kMessages its executor recorded and WalkUnit's counters added),
  // then GatherBlocks. `pull` must be built over the same partition (the
  // GraphContext's pull_edges()). Under kEveryVertex, `frontier` must be
  // every fragment's part_vertices and `census` its census; under
  // kFrontier, it is replaced by the next frontier, assembled in block
  // order. `apply_msgs` receives each fragment's applied destinations: all
  // of them under kEveryVertex. Fills `out` (Reset inside).
  void Gather(ThreadPool* pool, const graph::CsrGraph& g,
              const graph::Partition& partition, const HubCache* hub_cache,
              const std::vector<int>& owner_of_fragment,
              const std::vector<int>& active, const FStealDecision& fs,
              const FrontierCensus& census, const PullEdges& pull,
              GatherCharge charge, GatherSources sources, App& app,
              std::vector<Value>& values, FrontierSoA* frontier,
              std::vector<double>* apply_msgs, ExpandCounters* out) {
    const int n = partition.num_parts;
    out->Reset(n);
    GUM_TRACE_SCOPE("expand.gather");
    const bool messages = charge == GatherCharge::kMessages;
    const bool every_vertex = sources == GatherSources::kEveryVertex;
    GUM_CHECK(every_vertex || !messages)
        << "a data-driven frontier is gathered only by the pull";
    const std::vector<WorkUnit> units =
        BuildWorkUnits(*frontier, fs, census, owner_of_fragment, active);
    const size_t num_v = g.num_vertices();
    size_t covered = 0;
    for (const WorkUnit& unit : units) covered += unit.end - unit.begin;
    GUM_CHECK(!every_vertex || covered == num_v)
        << "a stationary superstep expands every vertex once";
    if (payloads_.size() < num_v) payloads_.resize(num_v);
    if (messages && executor_of_.size() < num_v) executor_of_.resize(num_v);
    if (counters_.size() < units.size()) counters_.resize(units.size());

    const auto payload_unit = [&](size_t idx) {
      const WorkUnit& unit = units[idx];
      counters_[idx].Reset(n);
      WalkUnit(g, hub_cache, owner_of_fragment[unit.fragment],
               frontier->Fragment(unit.fragment), unit, &counters_[idx],
               [&](graph::VertexId u, uint32_t deg) {
                 payloads_[u] = app.OnFrontier(u, values[u], deg);
                 if (messages) executor_of_[u] = unit.executor;
               });
    };
    const bool on_pool = pool != nullptr && pool->num_threads() > 1;
    if (on_pool) {
      // Only the pool spans its units: there they show unit balance.
      pool->ParallelFor(units.size(), [&](size_t idx) {
        GUM_TRACE_SCOPE("expand.unit");
        payload_unit(idx);
      });
    } else {
      for (size_t idx = 0; idx < units.size(); ++idx) payload_unit(idx);
    }
    if (!every_vertex) {
      // Built serially: vertices of different fragments may share a word,
      // so concurrent Set calls would race.
      in_frontier_.Resize(num_v);
      for (graph::VertexId u : frontier->Flat()) in_frontier_.Set(u);
    }

    const size_t num_blocks =
        on_pool ? kGatherBlocksPerThread * pool->num_threads() : 1;
    CutGatherBlocks(pull.offsets, num_blocks, &block_bounds_);
    block_counts_.resize(num_blocks * CountStride(n));
    if (!every_vertex) {
      ClearSegments(num_blocks, n);
      GatherBlocks<GatherCharge::kRemoteGathers, GatherSources::kFrontier>(
          pool, partition, owner_of_fragment, pull, app, values);
    } else if (!messages) {
      GatherBlocks<GatherCharge::kRemoteGathers,
                   GatherSources::kEveryVertex>(
          pool, partition, owner_of_fragment, pull, app, values);
    } else {
      GatherBlocks<GatherCharge::kMessages, GatherSources::kEveryVertex>(
          pool, partition, owner_of_fragment, pull, app, values);
    }

    const size_t cells = static_cast<size_t>(n) * n;
    if (messages) {
      AddUnitCounters(units, n, out);
      AddBlockCounts(n, 0, out->raw_msgs);
      AddBlockCounts(n, cells, out->agg_msgs);
    } else {
      out->edges_processed = AddBlockCounts(n, 0, out->edges_done);
    }
    if (every_vertex) {
      apply_msgs->resize(n);
      for (int i = 0; i < n; ++i) {
        (*apply_msgs)[i] =
            static_cast<double>(partition.part_vertices[i].size());
      }
    } else {
      AddAppliedCounts(n, apply_msgs);
      SwapInNextFrontier(static_cast<int>(num_blocks), n, frontier);
    }
  }

 private:
  // The destination gather over block_bounds_. Each block walks its
  // destinations' in-edges in `pull` (canonical merge order), chains the
  // emitted messages as Deposit chains them (the first is stored, later
  // ones are Combined) and applies the finished chain. Blocks own disjoint
  // word-aligned destination ranges, so their applies never meet; each
  // counts into its own slice of block_counts_ (charge cells, first
  // writers' cells and, under kFrontier, applied destinations per
  // fragment) and appends its activations to its own row of segments_.
  template <GatherCharge kCharge, GatherSources kSources>
  void GatherBlocks(ThreadPool* pool, const graph::Partition& partition,
                    const std::vector<int>& owner_of_fragment,
                    const PullEdges& pull, const App& app,
                    std::vector<Value>& values) {
    constexpr bool kRemote = kCharge == GatherCharge::kRemoteGathers;
    constexpr bool kFrontier = kSources == GatherSources::kFrontier;
    // An int, so the count stores (uint64_t) cannot alias it and the inner
    // loop keeps it in a register.
    const int n = partition.num_parts;
    const size_t cells = static_cast<size_t>(n) * n;
    const size_t stride = CountStride(n);
    const size_t num_blocks = block_bounds_.size() - 1;
    // The weighted/unweighted branch is taken once, not per edge, by
    // instantiating the gather per weight accessor (as ExpandUnit does).
    const auto gather = [&](auto&& weight_of) {
      return [&, weight_of](size_t b) {
        GUM_TRACE_SCOPE("expand.gather_block");
        uint64_t* const counts = block_counts_.data() + b * stride;
        uint64_t* const first_writers = counts + cells;
        uint64_t* const applied = first_writers + cells;
        std::fill_n(counts, 2 * cells + n, 0);
        [[maybe_unused]] std::vector<graph::VertexId>* activated = nullptr;
        if constexpr (kFrontier) activated = segments_[b].data();
        const size_t end = block_bounds_[b + 1];
        for (size_t dst = block_bounds_[b]; dst < end; ++dst) {
          const auto v = static_cast<graph::VertexId>(dst);
          const uint32_t dst_fragment = partition.owner[v];
          const size_t column =
              kRemote ? owner_of_fragment[dst_fragment] : dst_fragment;
          // A local: the count stores may alias pull.offsets (both
          // uint64_t), which would reload the bound after every in-edge.
          const graph::EdgeId edges_end = pull.offsets[dst + 1];
          std::optional<Message> acc;
          for (graph::EdgeId e = pull.offsets[dst]; e < edges_end; ++e) {
            const graph::VertexId u = pull.sources[e];
            if constexpr (kFrontier) {
              if (!in_frontier_.Test(u)) continue;
            }
            if constexpr (kRemote) {
              ++counts[static_cast<size_t>(partition.owner[u]) * n + column];
            }
            std::optional<Message> msg =
                app.Scatter(payloads_[u], v, weight_of(e));
            if (!msg.has_value()) continue;
            [[maybe_unused]] size_t cell = 0;
            if constexpr (!kRemote) {
              cell = static_cast<size_t>(executor_of_[u]) * n + column;
              ++counts[cell];
            }
            if (acc.has_value()) {
              acc = app.Combine(*acc, *msg);
            } else {
              acc = *msg;
              if constexpr (!kRemote) ++first_writers[cell];
            }
          }
          if constexpr (kFrontier) {
            if (!acc.has_value()) continue;
            if (app.Apply(v, values[v], *acc)) {
              activated[dst_fragment].push_back(v);
            }
            ++applied[dst_fragment];
          } else {
            app.Apply(v, values[v],
                      acc.has_value() ? *acc : app.InitialAccumulator());
          }
        }
      };
    };
    const auto run = [&](auto&& gather_block) {
      if (num_blocks > 1) {
        pool->ParallelFor(num_blocks, gather_block);
      } else {
        gather_block(0);
      }
    };
    if (pull.weights.empty()) {
      run(gather([](graph::EdgeId) { return 1.0f; }));
    } else {
      run(gather([&pull](graph::EdgeId e) { return pull.weights[e]; }));
    }
  }

  // A block's (or push range's) slice of block_counts_: room for the two
  // count matrices and the applied counts, padded so that no two blocks
  // write one cache line.
  static size_t CountStride(int n) {
    return (2 * static_cast<size_t>(n) * n + n + 15) / 8 * 8;
  }

  // Adds every block's count block at `offset` into m[row][column] in
  // block order, and returns the counts' total (integer-valued: exact in
  // any order).
  uint64_t AddBlockCounts(int n, size_t offset,
                          std::vector<std::vector<double>>& m) const {
    const size_t stride = CountStride(n);
    uint64_t total = 0;
    for (size_t b = 0; b + 1 < block_bounds_.size(); ++b) {
      const uint64_t* counts = block_counts_.data() + b * stride + offset;
      for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
          const uint64_t c = counts[static_cast<size_t>(i) * n + j];
          m[i][j] += static_cast<double>(c);
          total += c;
        }
      }
    }
    return total;
  }

  // Assigns every block's applied counts, summed in block order, to
  // apply_msgs (integer-valued: exact in any order).
  void AddAppliedCounts(int n, std::vector<double>* apply_msgs) const {
    const size_t stride = CountStride(n);
    const size_t offset = 2 * static_cast<size_t>(n) * n;
    apply_msgs->assign(n, 0.0);
    for (size_t b = 0; b + 1 < block_bounds_.size(); ++b) {
      const uint64_t* applied = block_counts_.data() + b * stride + offset;
      for (int i = 0; i < n; ++i) (*apply_msgs)[i] += applied[i];
    }
  }

  // Empties the first `num_blocks` rows of segments_, before they run.
  void ClearSegments(size_t num_blocks, int n) {
    if (segments_.size() < num_blocks) segments_.resize(num_blocks);
    for (size_t b = 0; b < num_blocks; ++b) {
      segments_[b].resize(n);
      for (auto& seg : segments_[b]) seg.clear();
    }
  }

  // Replaces `frontier` with the segments concatenated in block order,
  // ascending per fragment since the blocks ascend. The replaced arena
  // becomes the spare.
  void SwapInNextFrontier(int num_blocks, int n, FrontierSoA* frontier) {
    next_frontier_.AssignFromShardSegments(segments_, num_blocks, n);
    std::swap(*frontier, next_frontier_);
  }

  // Adds the per-unit counters in unit order (integer-exact sums).
  void AddUnitCounters(const std::vector<WorkUnit>& units, int n,
                       ExpandCounters* out) const {
    for (size_t idx = 0; idx < units.size(); ++idx) {
      const WorkUnit& unit = units[idx];
      const UnitCounters& c = counters_[idx];
      out->edges_done[unit.fragment][unit.executor] += c.edges;
      out->hub_edges[unit.fragment][unit.executor] += c.hub_edges;
      for (int f = 0; f < n; ++f) {
        out->raw_msgs[unit.executor][f] += c.raw_msgs[f];
      }
      out->stolen_edges += c.stolen_edges;
      out->edges_processed += c.edges_processed;
    }
  }

  std::vector<MessageStaging<Message>> staged_;
  std::vector<UnitCounters> counters_;
  // The gather's payload per source vertex, and under kMessages each
  // source's executor.
  std::vector<Message> payloads_;
  std::vector<int> executor_of_;
  // A data-driven pull's frontier membership (kFrontier only).
  Bitmap in_frontier_;
  // The destination blocks of a gather, or ranges of a push, and their
  // count slices, CountStride apart.
  std::vector<size_t> block_bounds_;
  std::vector<uint64_t> block_counts_;
  // [block][fragment] -> activated vertices, ascending within the block;
  // and the arena the next frontier is assembled in, swapped with the
  // current one.
  std::vector<std::vector<std::vector<graph::VertexId>>> segments_;
  FrontierSoA next_frontier_;
};

}  // namespace gum::core

#endif  // GUM_CORE_EXPAND_FRONTIER_SCATTER_H_
