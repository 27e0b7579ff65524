// Immutable per-graph serving substrate (DESIGN.md §13).
//
// GraphContext owns everything about a loaded graph that never changes
// between queries: the partition, the device topology and its reduction
// schedule, the cost model, the hub cache, the destination-shard map, the
// host thread pool, the shared per-destination in-edge structure, and the
// census of a stationary superstep. One context is built once per (graph,
// partition, topology, options) and then any number of GumEngine runs —
// sequential queries, batched multi-source waves, a whole serving session
// — execute against it without paying setup again. The per-query mutable
// half lives in core/run_context.h.
//
// Thread-compatibility: all accessors are const and touch immutable state;
// pull_edges(), stationary_census() and average_edge_weight() are lazily
// built behind std::call_once, so concurrent first calls are safe. The
// context must outlive every engine and RunContext bound to it.

#ifndef GUM_CORE_GRAPH_CONTEXT_H_
#define GUM_CORE_GRAPH_CONTEXT_H_

#include <memory>
#include <mutex>

#include "common/thread_pool.h"
#include "core/census.h"
#include "core/edge_cost_model.h"
#include "core/engine_options.h"
#include "core/expand/pull_edges.h"
#include "core/hub_cache.h"
#include "core/message_store.h"
#include "graph/csr.h"
#include "graph/partition.h"
#include "ml/model.h"
#include "sim/reduction_schedule.h"
#include "sim/topology.h"

namespace gum::core {

class GraphContext {
 public:
  // `g` and `cost_model` (if non-null) must outlive the context. The
  // stealing policies price work with `cost_model` when one is passed and
  // with the substrate's exact cost function (paper Exp-7's oracle run)
  // when it is null — the same contract as the legacy GumEngine
  // constructor, which builds one of these internally.
  GraphContext(const graph::CsrGraph* g, graph::Partition partition,
               sim::Topology topology, EngineOptions options,
               const ml::RegressionModel* cost_model = nullptr);

  GraphContext(const GraphContext&) = delete;
  GraphContext& operator=(const GraphContext&) = delete;

  const graph::CsrGraph& graph() const { return *g_; }
  const graph::Partition& partition() const { return partition_; }
  const sim::Topology& topology() const { return topology_; }
  const EngineOptions& options() const { return options_; }
  const sim::ReductionSchedule& schedule() const { return schedule_; }
  const EdgeCostModel& cost_model() const { return cost_model_; }
  const HubCache& hub_cache() const { return hub_cache_; }
  // Destination shards of the message plane (merge/apply parallel axis):
  // one per resolved host thread.
  const ShardMap& shard_map() const { return shard_map_; }
  int host_threads() const { return host_threads_; }
  // Null when host_threads() == 1 (the serial path).
  ThreadPool* pool() const { return pool_.get(); }
  int num_devices() const { return partition_.num_parts; }

  // The shared per-destination in-edge structure for the destination
  // gather (stationary supersteps and the SpMV pull). Built on first call
  // (thread-safe); data-driven scatter workloads never pay for it.
  const PullEdges& pull_edges() const;

  // Step 1's census of a stationary superstep, whose frontier is every
  // fragment's part_vertices. It depends only on the context, so it is
  // taken once, on first call (thread-safe), with the census function
  // the data-driven loop runs.
  const FrontierCensus& stationary_census() const;

  // The mean out-edge weight, an unweighted edge counting 1, behind the
  // async driver's automatic bucket width. Computed on first call
  // (thread-safe); BSP runs never call it.
  double average_edge_weight() const;

 private:
  const graph::CsrGraph* g_;
  graph::Partition partition_;
  sim::Topology topology_;
  EngineOptions options_;
  sim::ReductionSchedule schedule_;
  EdgeCostModel cost_model_;
  HubCache hub_cache_;
  ShardMap shard_map_;
  int host_threads_ = 1;
  std::unique_ptr<ThreadPool> pool_;
  mutable std::once_flag pull_once_;
  mutable PullEdges pull_;
  mutable std::once_flag census_once_;
  mutable FrontierCensus census_;
  mutable std::once_flag weight_once_;
  mutable double average_weight_ = 1.0;
};

}  // namespace gum::core

#endif  // GUM_CORE_GRAPH_CONTEXT_H_
