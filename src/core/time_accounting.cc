#include "core/time_accounting.h"

#include <algorithm>

#include "sim/kernel_cost.h"
#include "sim/timeline.h"

namespace gum::core {

double AccountSuperstepTime(
    int iter, sim::CommPlane& plane, const sim::DeviceParams& dev,
    bool aggregate_messages, const FrontierCensus& census,
    const ExpandCounters& counters, const std::vector<double>& apply_msgs,
    const std::vector<int>& owner_of_fragment,
    const std::vector<int>& active, const FStealDecision& fs,
    RunResult* result, const sim::ReductionTree* census_tree) {
  sim::Timeline& tl = result->timeline;
  const int n = static_cast<int>(counters.edges_done.size());
  const int m = static_cast<int>(active.size());
  const double p_ns = dev.sync_per_peer_us * 1000.0;
  double kernel_launch_ns = 0.0;
  // Pass 1: charge compute/serialization/overhead per device and enqueue
  // the superstep's transfers. Enqueue order mirrors the legacy per-device
  // accumulation (per active j: remote gather, local gather per source
  // fragment, then message forwards per destination), so contention=off is
  // bit-identical to the pre-CommPlane accounting.
  sim::TransferBatch batch;
  std::vector<double> compute_ns(n, 0.0);
  std::vector<double> serial_ns(n, 0.0);
  std::vector<double> overhead_ns(n, 0.0);
  for (const int j : active) {
    int kernels = 0;
    int destinations = 0;
    double worked = 0;
    for (int i = 0; i < n; ++i) {
      const double edges = counters.edges_done[i][j];
      if (edges <= 0) continue;
      worked += edges;
      ++kernels;  // one gather kernel per source fragment
      compute_ns[j] += edges * sim::TrueEdgeCostNs(census.features[i], dev);
      const double remote_edges =
          (i == j) ? 0.0 : edges - counters.hub_edges[i][j];
      const double local_edges = edges - remote_edges;
      // Remote gathers are the FSteal fragment payloads — plan-eligible
      // bulk when multipath is on; local reads never stripe.
      if (census_tree != nullptr && i != j) {
        batch.AddBulk(i, j, remote_edges * sim::kBytesPerRemoteEdge, j);
      } else {
        batch.Add(i, j, remote_edges * sim::kBytesPerRemoteEdge, j);
      }
      batch.Add(j, j, local_edges * sim::kBytesPerRemoteEdge, j);
    }
    // Message forwarding to each destination fragment's owner.
    for (int f = 0; f < n; ++f) {
      const double count = aggregate_messages ? counters.agg_msgs[j][f]
                                              : counters.raw_msgs[j][f];
      if (count <= 0) continue;
      const double bytes = count * sim::kBytesPerMessage;
      const int owner = owner_of_fragment[f];
      serial_ns[j] += bytes / sim::kSerializationGbps + 3000.0;  // binning
      ++destinations;
      if (owner != j) {
        batch.Add(j, owner, bytes, j);
      }
    }
    // Apply kernel on the fragments this device owns.
    for (int f = 0; f < n; ++f) {
      if (owner_of_fragment[f] == j && apply_msgs[f] > 0) {
        compute_ns[j] += apply_msgs[f] * 3.0;  // per-message update cost
        ++kernels;
      }
    }
    const double launch_ns = (kernels + 2) * sim::kKernelLaunchUs * 1000.0;
    kernel_launch_ns += launch_ns;
    overhead_ns[j] += launch_ns;
    // Barrier + buffer bookkeeping, Eq. (4). The legacy charge is the
    // all-to-one group factor m; with a reduction tree each device pays
    // only for its tree neighbors plus the barrier's critical path.
    overhead_ns[j] +=
        p_ns * (census_tree != nullptr ? census_tree->SyncFactor(j) : m);
    // Id conversion for outgoing messages.
    overhead_ns[j] += 0.5 * (worked > 0 ? 1.0 : 0.0) * destinations * 1000.0;
    if (fs.applied) {
      // Decision broadcast + stolen-status copies (Table IV overhead).
      const double fsteal_us = 18.0 + 2.5 * m;
      overhead_ns[j] += fsteal_us * 1000.0;
      result->fsteal_sim_overhead_ms += fsteal_us / 1000.0;
    }
  }
  // Pass 2: settle the batch against the interconnect and post the buckets.
  const sim::SettleResult comm = plane.Settle(batch);
  for (const int j : active) {
    tl.Add(iter, j, sim::TimeCategory::kCompute, compute_ns[j] / 1e6);
    tl.Add(iter, j, sim::TimeCategory::kCommunication,
           comm.tag_comm_ns[j] / 1e6);
    tl.Add(iter, j, sim::TimeCategory::kSerialization, serial_ns[j] / 1e6);
    tl.Add(iter, j, sim::TimeCategory::kOverhead, overhead_ns[j] / 1e6);
  }
  if (fs.applied && counters.stolen_edges > 0) {
    // 8 B status copy per stolen edge, ~GB/s.
    result->fsteal_sim_overhead_ms += counters.stolen_edges * 0.000008;
  }
  for (int f = 0; f < n; ++f) {
    double sent = 0;
    for (int j = 0; j < n; ++j) sent += counters.raw_msgs[j][f];
    result->messages_sent += static_cast<uint64_t>(sent);
  }
  return kernel_launch_ns;
}

double AccountGunrockSuperstepTime(
    int iter, sim::CommPlane& plane, const sim::DeviceParams& dev,
    double single_gpu_compute_factor, const FrontierCensus& census,
    const ExpandCounters& counters, RunResult* result) {
  sim::Timeline& tl = result->timeline;
  const int n = static_cast<int>(census.sizes.size());
  const double p_ns = dev.sync_per_peer_us * 1000.0;
  const double compute_factor =
      n == 1 ? single_gpu_compute_factor : kGunrockMultiGpuComputeFactor;
  double kernel_launch_ns = 0.0;
  // Pass 1 charges compute/serial per fragment and enqueues its transfers
  // (local fetch, then one bin per peer); pass 2 posts the buckets.
  sim::TransferBatch batch;
  std::vector<double> frag_compute_ns(n, 0.0);
  std::vector<double> frag_serial_ns(n, 0.0);
  for (int i = 0; i < n; ++i) {
    if (census.sizes[i] == 0) continue;
    const double edge_cost_ns =
        sim::TrueEdgeCostNs(census.features[i], dev) * compute_factor;
    const double edges = counters.edges_done[i][i];

    frag_compute_ns[i] = edges * edge_cost_ns;
    batch.Add(i, i, edges * sim::kBytesPerRemoteEdge, i);
    double serial_ns = 0;
    for (int f = 0; f < n; ++f) {
      const double count = counters.raw_msgs[i][f];
      result->messages_sent += static_cast<uint64_t>(count);
      if (count <= 0) continue;
      const double bytes = count * sim::kBytesPerMessage;
      serial_ns += bytes / sim::kSerializationGbps;
      if (f != i) batch.Add(i, f, bytes, i);
    }
    // The separate kernel always runs with one bin per peer.
    serial_ns += 3000.0 * std::max(1, n - 1);
    frag_serial_ns[i] = serial_ns;
  }
  const sim::SettleResult comm = plane.Settle(batch);
  const double launch_ns = 5 * sim::kKernelLaunchUs * 1000.0;
  const double overhead_ns = launch_ns + p_ns * n;
  for (int i = 0; i < n; ++i) {
    if (census.sizes[i] == 0) continue;
    tl.Add(iter, i, sim::TimeCategory::kCompute, frag_compute_ns[i] / 1e6);
    tl.Add(iter, i, sim::TimeCategory::kCommunication,
           comm.tag_comm_ns[i] / 1e6);
    tl.Add(iter, i, sim::TimeCategory::kSerialization,
           frag_serial_ns[i] / 1e6);
    tl.Add(iter, i, sim::TimeCategory::kOverhead, overhead_ns / 1e6);
    kernel_launch_ns += launch_ns;
  }
  // Idle devices still participate in the barrier.
  for (int i = 0; i < n; ++i) {
    if (census.sizes[i] == 0 && n > 1) {
      tl.Add(iter, i, sim::TimeCategory::kOverhead, p_ns * n / 1e6);
    }
  }
  return kernel_launch_ns;
}

}  // namespace gum::core
