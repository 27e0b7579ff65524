#include "core/graph_context.h"

#include <utility>

#include "common/logging.h"
#include "obs/trace.h"

namespace gum::core {

GraphContext::GraphContext(const graph::CsrGraph* g,
                           graph::Partition partition, sim::Topology topology,
                           EngineOptions options,
                           const ml::RegressionModel* cost_model)
    : g_(g),
      partition_(std::move(partition)),
      topology_(std::move(topology)),
      options_(options),
      schedule_(sim::ReductionSchedule::Build(topology_)),
      cost_model_(cost_model != nullptr
                      ? EdgeCostModel::Learned(cost_model)
                      : EdgeCostModel::ExactOracle(options.device)) {
  GUM_CHECK(partition_.num_parts == topology_.num_devices())
      << "partition parts must match device count";
  if (options_.enable_hub_cache) {
    hub_cache_ = HubCache(*g_, options_.t4_hub_in_degree);
  }
  host_threads_ = options_.num_host_threads <= 0
                      ? ThreadPool::HardwareThreads()
                      : options_.num_host_threads;
  if (host_threads_ > 1) {
    pool_ = std::make_unique<ThreadPool>(host_threads_);
  }
  shard_map_ = ShardMap(g_->num_vertices(), host_threads_);
}

const PullEdges& GraphContext::pull_edges() const {
  std::call_once(pull_once_, [this] {
    GUM_TRACE_SCOPE("expand.pull_build");
    pull_.Build(*g_, partition_);
  });
  return pull_;
}

const FrontierCensus& GraphContext::stationary_census() const {
  std::call_once(census_once_, [this] {
    FrontierSoA all;
    all.Assign(partition_.part_vertices);
    census_.Take(*g_, hub_cache_, all);
  });
  return census_;
}

double GraphContext::average_edge_weight() const {
  std::call_once(weight_once_, [this] {
    double total_weight = 0.0;
    for (graph::VertexId u = 0; u < g_->num_vertices(); ++u) {
      const auto weights = g_->OutWeights(u);
      if (weights.empty()) {
        total_weight += g_->OutDegree(u);
      } else {
        for (const float w : weights) total_weight += w;
      }
    }
    if (g_->num_edges() > 0) average_weight_ = total_weight / g_->num_edges();
  });
  return average_weight_;
}

}  // namespace gum::core
