#include "core/fast_wcc.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"
#include "graph/frontier_features.h"
#include "sim/kernel_cost.h"
#include "sim/timeline.h"

namespace gum::core {

namespace {

using graph::VertexId;

VertexId Find(std::vector<VertexId>& parent, VertexId v) {
  while (parent[v] != v) {
    parent[v] = parent[parent[v]];
    v = parent[v];
  }
  return v;
}

void Union(std::vector<VertexId>& parent, VertexId a, VertexId b) {
  const VertexId ra = Find(parent, a), rb = Find(parent, b);
  if (ra != rb) parent[std::max(ra, rb)] = std::min(ra, rb);
}

}  // namespace

std::vector<double> HookAndPropose(const graph::CsrGraph& g,
                                   const graph::Partition& partition, int d,
                                   const std::vector<VertexId>& label,
                                   std::vector<VertexId>* parent_scratch,
                                   std::vector<VertexId>* proposed_out) {
  std::vector<VertexId>& parent = *parent_scratch;
  std::vector<VertexId>& proposed = *proposed_out;
  std::iota(parent.begin(), parent.end(), VertexId{0});
  for (const VertexId u : partition.part_vertices[d]) {
    Union(parent, u, label[u]);
    for (const VertexId v : g.OutNeighbors(u)) {
      Union(parent, u, v);
      Union(parent, v, label[v]);
    }
  }
  std::vector<double> remote_updates(partition.num_parts, 0.0);
  for (const VertexId u : partition.part_vertices[d]) {
    const VertexId root = Find(parent, u);
    if (root < proposed[u]) proposed[u] = root;
    for (const VertexId v : g.OutNeighbors(u)) {
      const VertexId vroot = Find(parent, v);
      if (vroot < proposed[v]) {
        proposed[v] = vroot;
        const int owner = static_cast<int>(partition.owner[v]);
        if (owner != d) remote_updates[owner] += 1.0;
      }
    }
  }
  return remote_updates;
}

RunResult FastWcc(const graph::CsrGraph& g, const graph::Partition& partition,
                  const sim::Topology& topology, const FastWccOptions& options,
                  std::vector<VertexId>* labels_out) {
  const int n = partition.num_parts;
  const VertexId num_v = g.num_vertices();
  const sim::DeviceParams& dev = options.device;
  const double p_ns = dev.sync_per_peer_us * 1000.0;

  RunResult result;
  result.timeline = sim::Timeline(n);
  sim::CommPlane plane(topology, options.contention);

  std::vector<VertexId> label(num_v);
  std::iota(label.begin(), label.end(), VertexId{0});

  std::vector<double> hook_edge_cost_ns(n, dev.base_edge_ns);
  for (int d = 0; d < n; ++d) {
    const auto features =
        graph::ExtractFrontierFeatures(g, partition.part_vertices[d]);
    hook_edge_cost_ns[d] = 1.15 * sim::TrueEdgeCostNs(features, dev);
  }

  std::vector<VertexId> parent(num_v);
  std::vector<VertexId> proposed(num_v);

  std::vector<double> compute_ms(n, 0.0);
  std::vector<double> serial_ms(n, 0.0);
  std::vector<std::pair<size_t, size_t>> transfer_range(n);

  int round = 0;
  bool converged = false;
  for (; round < options.max_rounds && !converged; ++round) {
    std::copy(label.begin(), label.end(), proposed.begin());

    // Pass 1: hook/propose per device and enqueue the round's boundary
    // shipments as one batch, so under contention=fair the devices'
    // proposals genuinely compete for lanes.
    sim::TransferBatch batch;
    for (int d = 0; d < n; ++d) {
      // Remote proposals go to the owner, aggregated per (device, owner)
      // pair and routed over the best NVLink path.
      const std::vector<double> remote_updates =
          HookAndPropose(g, partition, d, label, &parent, &proposed);

      const double edges =
          static_cast<double>(partition.part_out_edges[d]);
      compute_ms[d] = edges * hook_edge_cost_ns[d] / 1e6;
      serial_ms[d] = 0.0;
      transfer_range[d].first = batch.size();
      for (int owner = 0; owner < n; ++owner) {
        if (remote_updates[owner] <= 0) continue;
        const double bytes = remote_updates[owner] * dev.bytes_per_message;
        batch.Add(d, owner, bytes, d);
        serial_ms[d] += bytes / dev.serialization_gbps / 1e6;
        result.messages_sent += static_cast<uint64_t>(remote_updates[owner]);
      }
      transfer_range[d].second = batch.size();
      result.edges_processed += partition.part_out_edges[d];
    }

    // Pass 2: settle the round's transfers and post the buckets.
    const sim::SettleResult comm = plane.Settle(batch);
    const double overhead_ms =
        (3 * dev.kernel_launch_us * 1000.0 + p_ns * n) / 1e6;
    for (int d = 0; d < n; ++d) {
      double comm_ms = 0.0;
      if (options.contention == sim::ContentionModel::kOff) {
        // Legacy per-destination accumulation (each term converted to ms
        // before summing), for bit-compatibility with the seed timings.
        for (size_t k = transfer_range[d].first; k < transfer_range[d].second;
             ++k) {
          comm_ms += comm.completion_ns[k] / 1e6;
        }
      } else {
        comm_ms = comm.tag_comm_ns[d] / 1e6;
      }
      result.timeline.Add(round, d, sim::TimeCategory::kCompute,
                          compute_ms[d]);
      result.timeline.Add(round, d, sim::TimeCategory::kCommunication,
                          comm_ms);
      result.timeline.Add(round, d, sim::TimeCategory::kSerialization,
                          serial_ms[d]);
      result.timeline.Add(round, d, sim::TimeCategory::kOverhead,
                          overhead_ms);
    }

    converged = proposed == label;
    label.swap(proposed);
    result.total_ms += result.timeline.IterationWall(round);
  }
  GUM_CHECK(converged || num_v == 0)
      << "FastWcc failed to converge within the round limit";

  result.iterations = round;
  result.link_bytes = plane.link_bytes();
  result.payload_bytes = plane.payload_bytes();
  result.link_busy_ms = plane.link_busy_ms();
  if (labels_out != nullptr) *labels_out = std::move(label);
  return result;
}

}  // namespace gum::core
