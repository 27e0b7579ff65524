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
// determinism is restored by merging staging buffers into the MessageStore
// in canonical unit order. The merge parallelizes over destination shards
// (disjoint contiguous vertex ranges, core/message_store.h), which leaves
// every per-vertex combine chain untouched. With one host thread the units
// run in that canonical order, so each message is deposited as it is
// emitted: every vertex sees its messages in the merge's order, and no
// message is staged (see DESIGN.md, "Determinism contract" and "Sharded
// message plane").
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
#include "core/superstep.h"
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

// The early-aggregation charge (paper Fig. 4b): the message that claims a
// vertex's empty inbox slot pays the transfer, one aggregated message from
// its unit's executor to the vertex's owner. `agg` is [executor][owner];
// its cells are integer-valued doubles, exact in any order. The serial
// direct sink and the staged merge's replay both charge through it.
inline void ChargeFirstWriter(std::vector<std::vector<double>>& agg,
                              int executor, uint32_t owner) {
  agg[executor][owner] += 1.0;
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

// The expand backend's two Step-4 entry points. Expand pushes: canonical
// unit decomposition, then a serial expand that deposits each message as
// it is emitted (one host thread) or a parallel expand into per-unit
// staging and the deterministic sharded merge, both with first-writer
// attribution, and counter aggregation into ExpandCounters. Gather applies
// in place, staging nothing. Owns the staging buffers, the payload and
// executor arenas, the frontier bitmap and the per-block count scratch,
// reused across iterations.
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

  // Runs one iteration's full expand + merge. `fs`/`active` carry the
  // frontier-steal plan (identity when !fs.applied), cut from `census`,
  // the frontier's census; `hub_cache` may be null. Fills `out` (Reset
  // inside). Without a pool of two or more threads the units run serially
  // in canonical order and deposit straight into `store`; otherwise they
  // stage on the pool and merge by shard. Both paths give the same
  // counters, store and values for any shard count.
  void Expand(ThreadPool* pool, const graph::CsrGraph& g,
              const graph::Partition& partition, const HubCache* hub_cache,
              const std::vector<int>& owner_of_fragment,
              const std::vector<int>& active, const FStealDecision& fs,
              const FrontierCensus& census, App& app,
              std::vector<Value>& values, const FrontierSoA& frontier,
              const ShardMap& shards, MessageStore<Message>& store,
              ExpandCounters* out) {
    const int n = partition.num_parts;
    out->Reset(n);
    GUM_TRACE_SCOPE("expand.scatter");
    const std::vector<WorkUnit> units =
        BuildWorkUnits(frontier, fs, census, owner_of_fragment, active);
    const auto combine = [&app](const Message& a, const Message& b) {
      return app.Combine(a, b);
    };
    if (pool == nullptr || pool->num_threads() <= 1) {
      // Canonical unit order, then generation order: each vertex's
      // messages arrive exactly as the merge below replays them. Units get
      // no span here: one thread has no unit balance to show.
      if (counters_.size() < units.size()) counters_.resize(units.size());
      for (size_t idx = 0; idx < units.size(); ++idx) {
        const WorkUnit& unit = units[idx];
        counters_[idx].Reset(n);
        ExpandUnit(g, partition, hub_cache, owner_of_fragment[unit.fragment],
                   app, values, frontier.Fragment(unit.fragment), unit,
                   &counters_[idx],
                   [&](graph::VertexId v, uint32_t owner, const Message& m) {
                     if (store.Deposit(v, m, combine)) {
                       ChargeFirstWriter(out->agg_msgs, unit.executor, owner);
                     }
                   });
      }
      AddUnitCounters(units, n, out);
      return;
    }
    ExpandSuperstep(pool, g, partition, hub_cache, owner_of_fragment, app,
                    values, frontier, units, shards, &staged_, &counters_);
    AddUnitCounters(units, n, out);

    // Sharded merge: every shard replays its bins in canonical unit order
    // (the serial loop nest restricted to the shard's vertices) —
    // combine chains and first-writer attribution stay bit-identical for
    // any shard x thread count.
    const int s_count = shards.num_shards();
    if (static_cast<int>(shard_agg_.size()) < s_count) {
      shard_agg_.resize(s_count);
    }
    for (auto& per_exec : shard_agg_) {
      if (static_cast<int>(per_exec.size()) != n) {
        per_exec.assign(n, std::vector<double>(n, 0.0));
      } else {
        for (auto& row : per_exec) std::fill(row.begin(), row.end(), 0.0);
      }
    }
    store.MergeSharded(
        pool, shards, staged_, units.size(), combine,
        [&](int shard, size_t unit_idx, graph::VertexId v) {
          // Attributed per shard, reduced below.
          ChargeFirstWriter(shard_agg_[shard], units[unit_idx].executor,
                            partition.owner[v]);
        });
    for (const auto& per_exec : shard_agg_) {
      for (int e = 0; e < n; ++e) {
        for (int f = 0; f < n; ++f) out->agg_msgs[e][f] += per_exec[e][f];
      }
    }
  }

  // Runs one gather superstep (DESIGN.md §7, §12), applying every
  // destination in place, in two pool passes: a payload pass over the
  // plan's units, built as Expand builds them (OnFrontier once per source;
  // under kMessages its executor recorded and WalkUnit's counters added),
  // then GatherBlocks. `pull` must be built over the same partition (the
  // GraphContext's pull_edges()). Under kEveryVertex, `frontier` must be
  // every fragment's part_vertices and `census` its census; under
  // kFrontier, it is replaced by the next frontier, assembled in `scratch`.
  // `apply_msgs` receives each fragment's applied destinations. Fills `out`
  // (Reset inside).
  void Gather(ThreadPool* pool, const graph::CsrGraph& g,
              const graph::Partition& partition, const HubCache* hub_cache,
              const std::vector<int>& owner_of_fragment,
              const std::vector<int>& active, const FStealDecision& fs,
              const FrontierCensus& census, const PullEdges& pull,
              GatherCharge charge, GatherSources sources, App& app,
              std::vector<Value>& values, FrontierSoA* frontier,
              ApplyScratch* scratch, std::vector<double>* apply_msgs,
              ExpandCounters* out) {
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
      scratch->ClearSegments(num_blocks, n);
      GatherBlocks<GatherCharge::kRemoteGathers, GatherSources::kFrontier>(
          pool, partition, owner_of_fragment, pull, app, values, scratch);
    } else if (!messages) {
      GatherBlocks<GatherCharge::kRemoteGathers,
                   GatherSources::kEveryVertex>(
          pool, partition, owner_of_fragment, pull, app, values, scratch);
    } else {
      GatherBlocks<GatherCharge::kMessages, GatherSources::kEveryVertex>(
          pool, partition, owner_of_fragment, pull, app, values, scratch);
    }

    const size_t cells = static_cast<size_t>(n) * n;
    if (messages) {
      AddUnitCounters(units, n, out);
      AddBlockCounts(n, 0, out->raw_msgs);
      AddBlockCounts(n, cells, out->agg_msgs);
    } else {
      out->edges_processed = AddBlockCounts(n, 0, out->edges_done);
    }
    apply_msgs->assign(n, 0.0);
    for (size_t b = 0; b < num_blocks; ++b) {
      const uint64_t* applied =
          block_counts_.data() + b * CountStride(n) + 2 * cells;
      for (int i = 0; i < n; ++i) (*apply_msgs)[i] += applied[i];
    }
    if (!every_vertex) {
      scratch->SwapInNextFrontier(static_cast<int>(num_blocks), n, frontier);
    }
  }

 private:
  // The destination gather over block_bounds_. Each block walks its
  // destinations' in-edges in `pull` (canonical merge order), chains the
  // emitted messages as Deposit chains them (the first is stored, later
  // ones are Combined) and applies the finished chain. Blocks own disjoint
  // word-aligned destination ranges, so their applies never meet; each
  // counts into its own slice of block_counts_ (charge cells, first
  // writers' cells, applied destinations per fragment) and appends its
  // activations to its own row of scratch->segments.
  template <GatherCharge kCharge, GatherSources kSources>
  void GatherBlocks(ThreadPool* pool, const graph::Partition& partition,
                    const std::vector<int>& owner_of_fragment,
                    const PullEdges& pull, const App& app,
                    std::vector<Value>& values, ApplyScratch* scratch) {
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
        if constexpr (kFrontier) activated = scratch->segments[b].data();
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
          } else {
            app.Apply(v, values[v],
                      acc.has_value() ? *acc : app.InitialAccumulator());
          }
          ++applied[dst_fragment];
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

  // A block's slice of block_counts_: room for the two count matrices and
  // the applied counts, padded so that no two blocks write one cache line.
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
  // Per-shard first-writer attribution ([shard][executor][owner]).
  std::vector<std::vector<std::vector<double>>> shard_agg_;
  // The gather's destination block bounds and per-block count slices,
  // CountStride apart.
  std::vector<size_t> block_bounds_;
  std::vector<uint64_t> block_counts_;
};

}  // namespace gum::core

#endif  // GUM_CORE_EXPAND_FRONTIER_SCATTER_H_
