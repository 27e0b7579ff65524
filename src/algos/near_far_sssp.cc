#include "algos/near_far_sssp.h"

#include <algorithm>
#include <limits>

#include "common/bitmap.h"
#include "common/logging.h"
#include "core/async/worklist.h"
#include "graph/frontier_features.h"
#include "sim/kernel_cost.h"
#include "sim/timeline.h"

namespace gum::algos {

namespace {
using core::PriorityWorklist;
using core::WorklistEntry;
using graph::VertexId;
constexpr float kUnreached = std::numeric_limits<float>::max();
// Kernel launches per band: relax + 2-way split + compaction.
constexpr int kKernelsPerBand = 5;
}  // namespace

// Near-far is the degenerate delta-stepping configuration of the shared
// PriorityWorklist (core/async/worklist.h): the NEAR pile is every bucket
// at or below the current band, the FAR pile is everything above it, and
// a band switch is one step of the band cursor. The bespoke two-vector
// driver loop this file used to carry lives in the worklist now; entries
// are lazy (a vertex is pushed again whenever its distance improves) and a
// dirty bitmap drops the superseded ones at pop time.
core::RunResult NearFarSssp(const graph::CsrGraph& g,
                            const graph::Partition& partition,
                            const sim::Topology& topology,
                            VertexId source, const NearFarOptions& options,
                            std::vector<float>* dist_out,
                            NearFarStats* stats_out) {
  const int n = partition.num_parts;
  const VertexId num_v = g.num_vertices();
  const sim::DeviceParams& dev = options.device;
  const double p_ns = dev.sync_per_peer_us * 1000.0;
  (void)topology;

  double delta = options.delta;
  if (delta <= 0.0) {
    // 2x average edge weight, the usual heuristic.
    double total_weight = 0;
    for (VertexId u = 0; u < num_v; ++u) {
      const auto weights = g.OutWeights(u);
      if (weights.empty()) {
        total_weight += g.OutDegree(u);
      } else {
        for (float w : weights) total_weight += w;
      }
    }
    delta = g.num_edges() > 0 ? 2.0 * total_weight / g.num_edges() : 1.0;
  }

  core::RunResult result;
  result.timeline = sim::Timeline(n);
  NearFarStats stats;

  std::vector<float> dist(num_v, kUnreached);
  dist[source] = 0.0f;
  PriorityWorklist worklist(core::AsyncWorklistKind::kBuckets, delta,
                            /*smq_queues=*/0, /*steal_prob=*/0.0,
                            /*steal_batch_size=*/0, /*seed=*/1);
  Bitmap dirty(num_v);
  dirty.Set(source);
  worklist.Push(source, 0.0);

  int64_t band = 0;  // NEAR = buckets <= band, FAR = the rest
  int step = 0;
  std::vector<WorklistEntry> pile;
  std::vector<std::vector<VertexId>> by_owner(n);

  while (!worklist.empty()) {
    pile.clear();
    worklist.Pop(band, std::numeric_limits<int>::max(), &pile);
    for (auto& owned : by_owner) owned.clear();
    size_t live = 0;
    for (const WorklistEntry& entry : pile) {
      if (!dirty.Test(entry.vertex)) continue;  // superseded push
      dirty.Reset(entry.vertex);
      by_owner[partition.owner[entry.vertex]].push_back(entry.vertex);
      ++live;
    }

    if (live == 0) {
      // Band switch: everything left sits in the far piles. The split is
      // one compaction kernel over the far pile on every device (the pile
      // is distributed by ownership).
      if (worklist.empty()) break;
      ++band;
      stats.far_pile_moves += worklist.size();
      for (int d = 0; d < n; ++d) {
        result.timeline.Add(step, d, sim::TimeCategory::kOverhead,
                            (sim::kKernelLaunchUs * 1000.0 +
                             worklist.size() / n * 2.0) /
                                1e6);
      }
      continue;  // next band (possible with gaps)
    }

    for (int d = 0; d < n; ++d) {
      if (by_owner[d].empty()) {
        if (n > 1) {
          result.timeline.Add(step, d, sim::TimeCategory::kOverhead,
                              p_ns * n / 1e6);
        }
        continue;
      }
      uint64_t relaxed = 0;
      for (const VertexId u : by_owner[d]) {
        const auto neighbors = g.OutNeighbors(u);
        const auto weights = g.OutWeights(u);
        for (size_t e = 0; e < neighbors.size(); ++e) {
          const VertexId v = neighbors[e];
          const float w = weights.empty() ? 1.0f : weights[e];
          const float nd = dist[u] + w;
          if (nd < dist[v]) {
            dist[v] = nd;
            dirty.Set(v);
            worklist.Push(v, nd);
          }
          ++relaxed;
        }
      }
      stats.relaxations += relaxed;
      const auto features = graph::ExtractFrontierFeatures(g, by_owner[d]);
      result.timeline.Add(step, d, sim::TimeCategory::kCompute,
                          static_cast<double>(relaxed) *
                              sim::TrueEdgeCostNs(features, dev) / 1e6);
      result.timeline.Add(
          step, d, sim::TimeCategory::kOverhead,
          (kKernelsPerBand * sim::kKernelLaunchUs * 1000.0 +
           p_ns * n) /
              1e6);
      result.edges_processed += relaxed;
    }
    result.total_ms += result.timeline.IterationWall(step);
    ++step;
    GUM_CHECK(step < 10 * 1000 * 1000) << "near-far failed to converge";
  }

  stats.bands = static_cast<int>(band) + 1;
  result.iterations = step;
  if (dist_out != nullptr) *dist_out = std::move(dist);
  if (stats_out != nullptr) *stats_out = stats;
  return result;
}

}  // namespace gum::algos
