#include "algos/dobfs.h"

#include <algorithm>
#include <limits>

#include "graph/frontier_features.h"
#include "sim/comm_plane.h"
#include "sim/kernel_cost.h"
#include "sim/timeline.h"

namespace gum::algos {

namespace {
using graph::VertexId;
constexpr uint32_t kUnreached = std::numeric_limits<uint32_t>::max();
// Kernel launches per level, mirroring the Gunrock baseline's pipeline.
constexpr int kKernelsPerLevel = 4;
}  // namespace

core::RunResult DirectionOptimizedBfs(
    const graph::CsrGraph& g, const graph::Partition& partition,
    const sim::Topology& topology, VertexId source,
    const DoBfsOptions& options, std::vector<uint32_t>* depths_out,
    DoBfsStats* stats_out) {
  const int n = partition.num_parts;
  const VertexId num_v = g.num_vertices();
  const sim::DeviceParams& dev = options.device;
  const double p_ns = dev.sync_per_peer_us * 1000.0;

  core::RunResult result;
  result.timeline = sim::Timeline(n);
  // Prediction-only plane: DO-BFS charges statistical estimates (mean path
  // bandwidth for pull probes, a nominal lane for push messages), not
  // individual transfers.
  const sim::CommPlane plane(topology);
  DoBfsStats stats;

  std::vector<uint32_t> depth(num_v, kUnreached);
  depth[source] = 0;
  // Frontier per owning device.
  std::vector<std::vector<VertexId>> frontier(n);
  frontier[partition.owner[source]].push_back(source);

  uint64_t unvisited_edges = g.num_edges() - g.OutDegree(source);
  size_t frontier_size = 1;
  uint64_t frontier_edges = g.OutDegree(source);
  uint64_t prev_frontier_edges = 0;
  bool pulling = false;

  for (uint32_t level = 0; frontier_size > 0; ++level) {
    // Beamer's direction heuristic: switch to pull only while the frontier
    // is GROWING past the alpha fraction of the unexplored edges (a
    // shrinking wavefront — the road-network tail — must never pull).
    if (!pulling && frontier_edges > prev_frontier_edges &&
        frontier_edges * options.alpha > unvisited_edges) {
      pulling = true;
    } else if (pulling && frontier_size * options.beta < num_v) {
      pulling = false;
    }

    std::vector<std::vector<VertexId>> next(n);
    if (pulling) {
      ++stats.pull_levels;
      for (int d = 0; d < n; ++d) {
        uint64_t scanned = 0;
        for (const VertexId v : partition.part_vertices[d]) {
          if (depth[v] != kUnreached) continue;
          for (const VertexId u : g.InNeighbors(v)) {
            ++scanned;
            if (depth[u] == level) {
              depth[v] = level + 1;
              next[d].push_back(v);
              break;  // early exit: one parent suffices
            }
          }
        }
        stats.pulled_edges += scanned;
        const auto features = graph::ExtractFrontierFeatures(
            g, partition.part_vertices[d]);
        // Pull gathers are scattered in-CSR reads: worse coalescing than
        // the push direction's sequential adjacency streams.
        constexpr double kPullRandomAccessPenalty = 1.5;
        const double compute_ms =
            static_cast<double>(scanned) * kPullRandomAccessPenalty *
            sim::TrueEdgeCostNs(features, dev) / 1e6;
        // Pull scans are random-access in-CSR reads of a remote-or-local
        // depth array: 4 bytes per depth probe at the mean path bandwidth
        // of this device's peers.
        const double comm_ms =
            plane.MeanPathNs(d, static_cast<double>(scanned) * 4.0) / 1e6;
        result.timeline.Add(level, d, sim::TimeCategory::kCompute,
                            compute_ms);
        result.timeline.Add(level, d, sim::TimeCategory::kCommunication,
                            comm_ms);
        result.timeline.Add(
            level, d, sim::TimeCategory::kOverhead,
            (kKernelsPerLevel * sim::kKernelLaunchUs * 1000.0 +
             p_ns * n) /
                1e6);
        result.edges_processed += scanned;
      }
    } else {
      ++stats.push_levels;
      for (int d = 0; d < n; ++d) {
        if (frontier[d].empty()) {
          result.timeline.Add(level, d, sim::TimeCategory::kOverhead,
                              p_ns * n / 1e6);
          continue;
        }
        uint64_t edges = 0;
        double remote_msgs = 0;
        for (const VertexId u : frontier[d]) {
          edges += g.OutDegree(u);
          for (const VertexId v : g.OutNeighbors(u)) {
            if (depth[v] == kUnreached) {
              depth[v] = level + 1;
              next[partition.owner[v]].push_back(v);
              if (partition.owner[v] != static_cast<uint32_t>(d)) {
                remote_msgs += 1.0;
              }
            }
          }
        }
        stats.pushed_edges += edges;
        const auto features =
            graph::ExtractFrontierFeatures(g, frontier[d]);
        const double compute_ms =
            static_cast<double>(edges) *
            sim::TrueEdgeCostNs(features, dev) / 1e6;
        const double comm_ms =
            sim::CommPlane::NominalLaneNs(remote_msgs *
                                          sim::kBytesPerMessage) /
            1e6;
        result.timeline.Add(level, d, sim::TimeCategory::kCompute,
                            compute_ms);
        result.timeline.Add(level, d, sim::TimeCategory::kCommunication,
                            comm_ms);
        result.timeline.Add(
            level, d, sim::TimeCategory::kOverhead,
            (kKernelsPerLevel * sim::kKernelLaunchUs * 1000.0 +
             p_ns * n) /
                1e6);
        result.edges_processed += edges;
        result.messages_sent += static_cast<uint64_t>(remote_msgs);
      }
    }

    frontier = std::move(next);
    prev_frontier_edges = frontier_edges;
    frontier_size = 0;
    frontier_edges = 0;
    for (const auto& f : frontier) {
      frontier_size += f.size();
      for (const VertexId v : f) frontier_edges += g.OutDegree(v);
    }
    unvisited_edges =
        unvisited_edges >= frontier_edges ? unvisited_edges - frontier_edges
                                          : 0;
    result.total_ms += result.timeline.IterationWall(level);
    result.iterations = static_cast<int>(level) + 1;
  }

  if (depths_out != nullptr) *depths_out = std::move(depth);
  if (stats_out != nullptr) *stats_out = stats;
  return result;
}

}  // namespace gum::algos
