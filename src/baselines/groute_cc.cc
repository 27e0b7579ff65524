#include "baselines/groute_cc.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"
#include "core/fast_wcc.h"
#include "graph/frontier_features.h"
#include "sim/kernel_cost.h"
#include "sim/timeline.h"

namespace gum::baselines {

using graph::VertexId;

namespace {
// Per-round per-device overhead: hooking kernel launches + worklist
// bookkeeping.
constexpr double kRoundOverheadUs = 40.0;
// Bandwidth of every ring segment.
constexpr double kRingGbps = 25.0;
// Safety rail on the exchange rounds; expected rounds ~ log2(|V|).
constexpr int kMaxRounds = 64;
}  // namespace

GrouteCcEngine::GrouteCcEngine(const graph::CsrGraph* g,
                               graph::Partition partition,
                               GrouteCcOptions options)
    : g_(g), partition_(std::move(partition)), options_(options) {}

core::RunResult GrouteCcEngine::Run(std::vector<VertexId>* labels_out) {
  const int n = partition_.num_parts;
  const VertexId num_v = g_->num_vertices();
  const sim::DeviceParams& dev = options_.device;

  core::RunResult result;
  result.timeline = sim::Timeline(n);
  // Boundary labels travel one ring hop to the next device (the reduction
  // proceeds around the ring); the plane prices that first hop. Unlike the
  // general Groute engine this model's ring is uniform — the exchange is
  // pipelined, so no segment ever pays the PCIe wrap-around alone.
  sim::CommPlane plane(sim::Topology::Ring(n, kRingGbps),
                       options_.contention, sim::RoutePolicy::kDirectOnly);

  // Current global labels, reduced at the owners after every round.
  std::vector<VertexId> label(num_v);
  std::iota(label.begin(), label.end(), VertexId{0});

  // Per-device UF cost: one whole-fragment feature probe per device,
  // reused across rounds (fragments are static).
  std::vector<double> uf_edge_cost_ns(n, dev.base_edge_ns);
  std::vector<double> fragment_edges(n, 0.0);
  for (int d = 0; d < n; ++d) {
    const auto& inner = partition_.part_vertices[d];
    const auto features = graph::ExtractFrontierFeatures(*g_, inner);
    // Hooking does an extra atomic CAS per edge vs a plain gather.
    uf_edge_cost_ns[d] = 1.15 * sim::TrueEdgeCostNs(features, dev);
    fragment_edges[d] = static_cast<double>(partition_.part_out_edges[d]);
  }

  std::vector<VertexId> parent(num_v);
  std::vector<VertexId> proposed(num_v);
  double clock_ms = 0.0;  // devices run concurrently; rounds synchronize

  int round = 0;
  bool converged = false;
  for (; round < kMaxRounds && !converged; ++round) {
    std::copy(label.begin(), label.end(), proposed.begin());
    double round_wall_ms = 0.0;
    std::vector<double> boundary_updates(n, 0.0);

    for (int d = 0; d < n; ++d) {
      // Local hooking over every owned edge plus the (vertex, label) pairs
      // carried over from the previous exchange; every label bound for
      // another owner ships over the ring.
      double updates = 0.0;
      for (const double to_owner : core::HookAndPropose(
               *g_, partition_, d, label, &parent, &proposed)) {
        updates += to_owner;
      }
      boundary_updates[d] = updates;
      result.edges_processed += partition_.part_out_edges[d];
      result.messages_sent += static_cast<uint64_t>(updates);
    }

    // The round's exchange: each device ships its boundary labels one hop
    // along the ring. Settled as one batch so lane sharing is visible to
    // the contention model.
    sim::TransferBatch batch;
    for (int d = 0; d < n; ++d) {
      batch.Add(d, (d + 1) % n, boundary_updates[d] * sim::kBytesPerMessage,
                d);
    }
    const sim::SettleResult comm = plane.Settle(batch);

    for (int d = 0; d < n; ++d) {
      const double compute_ms =
          fragment_edges[d] * uf_edge_cost_ns[d] / 1e6;
      const double comm_ms = comm.tag_comm_ns[d] / 1e6;
      const double serial_ms = boundary_updates[d] * sim::kBytesPerMessage /
                               sim::kSerializationGbps / 1e6;
      const double overhead_ms = kRoundOverheadUs / 1000.0;
      result.timeline.Add(round, d, sim::TimeCategory::kCompute, compute_ms);
      result.timeline.Add(round, d, sim::TimeCategory::kCommunication,
                          comm_ms);
      result.timeline.Add(round, d, sim::TimeCategory::kSerialization,
                          serial_ms);
      result.timeline.Add(round, d, sim::TimeCategory::kOverhead,
                          overhead_ms);
      round_wall_ms = std::max(
          round_wall_ms, compute_ms + comm_ms + serial_ms + overhead_ms);
    }

    converged = proposed == label;
    label.swap(proposed);
    clock_ms += round_wall_ms;
  }
  GUM_CHECK(converged || num_v == 0)
      << "Groute CC failed to converge within the round limit";

  result.iterations = round;
  result.total_ms = clock_ms;
  result.link_bytes = plane.link_bytes();
  result.payload_bytes = plane.payload_bytes();
  result.link_busy_ms = plane.link_busy_ms();
  if (labels_out != nullptr) *labels_out = std::move(label);
  return result;
}

}  // namespace gum::baselines
