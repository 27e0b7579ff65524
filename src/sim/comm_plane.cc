#include "sim/comm_plane.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace gum::sim {
namespace {

// Directed-lane id space. Direct NVLink lanes (and the local HBM lane on
// the diagonal) live in [0, n*n); the PCIe/QPI fallback for a pair lives in
// [n*n, 2*n*n) so a sub-PCIe direct link and the PCIe path never share a
// capacity pool.
int DirectLane(int n, int src, int dst) { return src * n + dst; }
int PcieLane(int n, int src, int dst) { return n * n + src * n + dst; }

struct Hop {
  int lane = 0;
  int src = 0;
  int dst = 0;
};

}  // namespace

const char* ContentionModelName(ContentionModel model) {
  switch (model) {
    case ContentionModel::kOff:
      return "off";
    case ContentionModel::kFair:
      return "fair";
  }
  return "unknown";
}

Result<ContentionModel> ParseContentionModel(const std::string& name) {
  if (name == "off") return ContentionModel::kOff;
  if (name == "fair") return ContentionModel::kFair;
  return Status::InvalidArgument("unknown contention model '" + name +
                                 "' (expected off|fair)");
}

CommPlane::CommPlane(Topology topology, ContentionModel model,
                     RoutePolicy policy)
    : topo_(std::move(topology)), model_(model), policy_(policy) {
  const int n = topo_.num_devices();
  link_bytes_.assign(n, std::vector<double>(n, 0.0));
  payload_bytes_.assign(n, std::vector<double>(n, 0.0));
  link_busy_ms_.assign(n, std::vector<double>(n, 0.0));
  lane_busy_until_ms_.assign(static_cast<size_t>(n) * n, 0.0);
}

CommRoute CommPlane::Route(int src, int dst) const {
  GUM_CHECK(policy_ != RoutePolicy::kRing)
      << "ring paths are walked hop by hop (NextHop)";
  CommRoute route;
  route.src = src;
  route.dst = dst;
  route.point_to_point_gbps = LegacyGbps(src, dst);
  if (src == dst) return route;
  const double direct = ScaledDirect(src, dst);
  if (policy_ == RoutePolicy::kDirectOnly) {
    route.via_pcie = direct <= 0.0;
    return route;
  }
  const int n = topo_.num_devices();
  const int transit = faults_active_ ? faulted_transit_[src * n + dst]
                                     : topo_.BestTransit(src, dst);
  if (transit >= 0) {
    route.transit = transit;
  } else if (direct <= 0.0 || direct < Topology::kPcieGBps) {
    // EffectiveBandwidth fell back to PCIe (no direct link, or a direct
    // link slower than the PCIe path).
    route.via_pcie = direct < Topology::kPcieGBps;
  }
  return route;
}

int CommPlane::NextHop(int src, int at, int dst) const {
  if (policy_ == RoutePolicy::kRing) return (at + 1) % topo_.num_devices();
  if (policy_ == RoutePolicy::kDirectOnly || at != src) return dst;
  const int transit = Route(src, dst).transit;
  return transit >= 0 ? transit : dst;
}

double CommPlane::ScaledDirect(int src, int dst) const {
  const double direct = topo_.DirectBandwidth(src, dst);
  if (!faults_active_ || src == dst) return direct;
  return direct * link_scale_[src * topo_.num_devices() + dst];
}

void CommPlane::SetLinkScale(int a, int b, double scale) {
  const int n = topo_.num_devices();
  GUM_CHECK(a >= 0 && a < n && b >= 0 && b < n && a != b);
  GUM_CHECK(scale >= 0.0 && scale <= 1.0);
  if (link_scale_.empty()) {
    link_scale_.assign(static_cast<size_t>(n) * n, 1.0);
  }
  link_scale_[a * n + b] *= scale;
  link_scale_[b * n + a] *= scale;
  faults_active_ = true;
  RecomputeFaultRouting();
}

void CommPlane::ClearLinkFaults() {
  if (!faults_active_) return;
  std::fill(link_scale_.begin(), link_scale_.end(), 1.0);
  faults_active_ = false;
}

void CommPlane::RecomputeFaultRouting() {
  // The same rule as Topology::FinalizeRouting, over the scaled matrix:
  // best of {scaled direct, PCIe, best 2-hop with both legs alive at
  // kTransitEfficiency of the bottleneck leg}.
  const int n = topo_.num_devices();
  faulted_effective_.assign(static_cast<size_t>(n) * n, 0.0);
  faulted_transit_.assign(static_cast<size_t>(n) * n, -1);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i == j) {
        faulted_effective_[i * n + j] = Topology::kLocalMemoryGBps;
        continue;
      }
      double best = std::max(ScaledDirect(i, j), Topology::kPcieGBps);
      int best_transit = -1;
      for (int k = 0; k < n; ++k) {
        if (k == i || k == j) continue;
        const double leg1 = ScaledDirect(i, k);
        const double leg2 = ScaledDirect(k, j);
        if (leg1 <= 0.0 || leg2 <= 0.0) continue;
        const double routed =
            std::min(leg1, leg2) * Topology::kTransitEfficiency;
        if (routed > best) {
          best = routed;
          best_transit = k;
        }
      }
      faulted_effective_[i * n + j] = best;
      faulted_transit_[i * n + j] = best_transit;
    }
  }
}

CommPlane::Telemetry CommPlane::SnapshotTelemetry() const {
  return Telemetry{link_bytes_, payload_bytes_, link_busy_ms_,
                   lane_busy_until_ms_, multipath_stats_};
}

void CommPlane::RestoreTelemetry(const Telemetry& telemetry) {
  link_bytes_ = telemetry.link_bytes;
  payload_bytes_ = telemetry.payload_bytes;
  link_busy_ms_ = telemetry.link_busy_ms;
  lane_busy_until_ms_ = telemetry.lane_busy_until_ms;
  multipath_stats_ = telemetry.multipath;
}

TransferPlan CommPlane::PlanBulkTransfer(int src, int dst,
                                         double bytes) const {
  const int n = topo_.num_devices();
  TransferPlan plan = TransferPlanner::Build(
      src, dst, n, bytes, [this](int i, int j) { return ScaledDirect(i, j); });
  if (faults_active_) {
    // How many stripes the nominal topology would have offered — the
    // difference is what the fault overlay dropped (re-striped around).
    const TransferPlan nominal = TransferPlanner::Build(
        src, dst, n, bytes,
        [this](int i, int j) { return topo_.DirectBandwidth(i, j); });
    plan.paths_dropped =
        std::max(0, static_cast<int>(nominal.paths.size()) -
                        static_cast<int>(plan.paths.size()));
  }
  return plan;
}

double CommPlane::StripedTransferNs(int src, int dst, double bytes) const {
  if (src == dst) return bytes / Topology::kLocalMemoryGBps;
  const TransferPlan plan = PlanBulkTransfer(src, dst, bytes);
  // Proportional striping finishes every path together when uncontended.
  return bytes / plan.total_gbps;
}

ReductionTree CommPlane::BuildCensusTree(const std::vector<int>& active) const {
  return ReductionTree::Build(
      topo_.num_devices(), active,
      [this](int i, int j) { return ScaledDirect(i, j); });
}

double CommPlane::CheckpointWritebackGbps(int device) const {
  const int n = topo_.num_devices();
  GUM_CHECK(device >= 0 && device < n);
  // The relay leg is capped by both the NVLink hop and the peer's own PCIe
  // host lane, at store-and-forward efficiency.
  double relay = 0.0;
  for (int peer = 0; peer < n; ++peer) {
    if (peer == device) continue;
    const double leg = ScaledDirect(device, peer);
    if (leg <= 0.0) continue;
    relay = std::max(relay, std::min(leg, Topology::kPcieGBps) *
                                Topology::kTransitEfficiency);
  }
  return Topology::kPcieGBps + relay;
}

double CommPlane::MeanPathNs(int src, double bytes) const {
  const int n = topo_.num_devices();
  double mean_bw = 0.0;
  for (int peer = 0; peer < n; ++peer) {
    mean_bw += LegacyGbps(src, peer);
  }
  mean_bw /= n;
  return bytes / mean_bw;
}

double CommPlane::LaneGbps(int src, int dst) const {
  const double direct = ScaledDirect(src, dst);
  if (src == dst || direct > 0.0) return direct;
  return Topology::kPcieGBps;
}

double CommPlane::LegacyGbps(int src, int dst) const {
  if (policy_ == RoutePolicy::kBestPath || src == dst) {
    if (faults_active_) {
      return faulted_effective_[src * topo_.num_devices() + dst];
    }
    return topo_.EffectiveBandwidth(src, dst);
  }
  const double direct = ScaledDirect(src, dst);
  return direct > 0.0 ? direct : Topology::kPcieGBps;
}

SettleResult CommPlane::Settle(const TransferBatch& batch) {
  GUM_TRACE_SCOPE("comm.settle");
  SettleResult out;
  const int n = topo_.num_devices();
  int max_tag = n - 1;
  for (const Transfer& t : batch.transfers_) {
    GUM_CHECK(t.src >= 0 && t.src < n && t.dst >= 0 && t.dst < n);
    max_tag = std::max(max_tag, t.tag);
  }
  out.completion_ns.reserve(batch.transfers_.size());
  out.tag_comm_ns.assign(static_cast<size_t>(max_tag) + 1, 0.0);
  const MultipathStats before = multipath_stats_;
  if (model_ == ContentionModel::kOff) {
    SettleOff(batch.transfers_, &out);
  } else {
    SettleFair(batch.transfers_, &out);
  }
  if (obs::MetricsEnabled()) {
    auto& reg = obs::MetricsRegistry::Global();
    reg.GetCounter("gum_comm_settle_batches_total").Increment();
    reg.GetCounter("gum_comm_transfers_total")
        .Increment(batch.transfers_.size());
    auto& bytes_hist = reg.GetHistogram("gum_comm_transfer_bytes");
    for (const Transfer& t : batch.transfers_) {
      bytes_hist.Observe(static_cast<uint64_t>(t.bytes));
    }
    // Striping counters exist only once a bulk transfer has actually been
    // planned, so non-multipath runs export byte-identical metrics.
    if (multipath_stats_.bulk_transfers > before.bulk_transfers) {
      reg.GetCounter("gum_comm_bulk_transfers_total")
          .Increment(multipath_stats_.bulk_transfers - before.bulk_transfers);
      reg.GetCounter("gum_comm_striped_transfers_total")
          .Increment(multipath_stats_.striped_transfers -
                     before.striped_transfers);
      reg.GetCounter("gum_comm_stripe_paths_total")
          .Increment(multipath_stats_.paths_used - before.paths_used);
    }
  }
  return out;
}

void CommPlane::SettleOff(const std::vector<Transfer>& transfers,
                          SettleResult* out) {
  // The legacy point-to-point model, transfer by transfer in enqueue order:
  // the exact expression (bytes / EffectiveBandwidth) and the exact
  // per-device accumulation order of the pre-CommPlane engines, so the off
  // mode is bit-compatible with the seed.
  for (const Transfer& t : transfers) {
    const double ns = t.bytes / LegacyGbps(t.src, t.dst);
    out->completion_ns.push_back(ns);
    out->tag_comm_ns[t.tag] += ns;
    link_bytes_[t.src][t.dst] += t.bytes;
    payload_bytes_[t.src][t.dst] += t.bytes;
    link_busy_ms_[t.src][t.dst] += ns / 1e6;
  }
}

void CommPlane::SettleFair(const std::vector<Transfer>& transfers,
                           SettleResult* out) {
  const int n = topo_.num_devices();
  const size_t m = transfers.size();
  // Resolve each transfer into flows once. The common case is one flow
  // over the single best path (hop resolution identical to the pre-plan
  // build, so single-path fair stays byte-for-byte). A bulk transfer
  // under multipath expands into one flow per stripe of its TransferPlan;
  // the flows contend per directed lane like any other transfer, and the
  // transfer completes when its last stripe does. A routed flow occupies
  // (and is charged on) both of its lanes; store-and-forward is modeled
  // as both hops being live for the flow's whole duration, which is the
  // pessimistic (fully pipelined chunks) reading of a 2-hop copy.
  std::vector<std::vector<Hop>> hops;
  std::vector<double> remaining;
  std::vector<size_t> flow_transfer;  // flow index -> enqueue index
  hops.reserve(m);
  remaining.reserve(m);
  flow_transfer.reserve(m);
  for (size_t i = 0; i < m; ++i) {
    const Transfer& t = transfers[i];
    payload_bytes_[t.src][t.dst] += t.bytes;
    const bool stripe = multipath_ && t.bulk && t.src != t.dst && t.bytes > 0.0;
    if (!stripe) {
      const CommRoute route = Route(t.src, t.dst);
      std::vector<Hop> flow;
      if (route.transit >= 0) {
        flow.push_back(
            {DirectLane(n, t.src, route.transit), t.src, route.transit});
        flow.push_back(
            {DirectLane(n, route.transit, t.dst), route.transit, t.dst});
      } else if (route.via_pcie) {
        flow.push_back({PcieLane(n, t.src, t.dst), t.src, t.dst});
      } else {
        flow.push_back({DirectLane(n, t.src, t.dst), t.src, t.dst});
      }
      for (const Hop& h : flow) link_bytes_[h.src][h.dst] += t.bytes;
      hops.push_back(std::move(flow));
      remaining.push_back(t.bytes);
      flow_transfer.push_back(i);
      continue;
    }
    const TransferPlan plan = PlanBulkTransfer(t.src, t.dst, t.bytes);
    multipath_stats_.bulk_transfers += 1;
    if (plan.striped()) multipath_stats_.striped_transfers += 1;
    multipath_stats_.paths_used += static_cast<int64_t>(plan.paths.size());
    multipath_stats_.paths_dropped += plan.paths_dropped;
    multipath_stats_.single_path_ns += t.bytes / plan.best_single_gbps;
    multipath_stats_.striped_ns += t.bytes / plan.total_gbps;
    double assigned = 0.0;
    for (size_t p = 0; p < plan.paths.size(); ++p) {
      const PlanPath& path = plan.paths[p];
      // The last stripe takes the exact remainder so the chunks conserve
      // the payload byte-for-byte.
      const double chunk = p + 1 == plan.paths.size()
                               ? t.bytes - assigned
                               : t.bytes * path.fraction;
      assigned += chunk;
      std::vector<Hop> flow;
      if (path.transit >= 0) {
        flow.push_back(
            {DirectLane(n, t.src, path.transit), t.src, path.transit});
        flow.push_back(
            {DirectLane(n, path.transit, t.dst), path.transit, t.dst});
        multipath_stats_.transit_bytes += chunk;
      } else if (path.via_pcie) {
        flow.push_back({PcieLane(n, t.src, t.dst), t.src, t.dst});
        multipath_stats_.pcie_bytes += chunk;
      } else {
        flow.push_back({DirectLane(n, t.src, t.dst), t.src, t.dst});
        multipath_stats_.direct_bytes += chunk;
      }
      for (const Hop& h : flow) link_bytes_[h.src][h.dst] += chunk;
      hops.push_back(std::move(flow));
      remaining.push_back(chunk);
      flow_transfer.push_back(i);
    }
  }
  const size_t num_flows = hops.size();

  auto lane_gbps = [&](int lane) {
    if (lane >= n * n) return Topology::kPcieGBps;
    return LaneGbps(lane / n, lane % n);
  };

  std::vector<double> flow_completion_ns(num_flows, 0.0);
  std::vector<char> done(num_flows, 0);
  for (size_t i = 0; i < num_flows; ++i) {
    if (remaining[i] <= 0.0) done[i] = 1;
  }

  // Progressive filling: repeatedly compute the unique max-min fair rate
  // allocation over the active flows, advance to the next completion,
  // and retire finished flows. Each round the bottleneck lane is the
  // one whose equal share is smallest (ties broken on lane id), and all
  // its unfrozen users freeze at that share — the resulting rates do not
  // depend on enqueue order.
  double now_ns = 0.0;
  std::vector<double> rate(num_flows, 0.0);   // bytes per ns
  std::vector<double> lane_frozen(2 * n * n, 0.0);
  std::vector<int> lane_unfrozen(2 * n * n, 0);
  while (true) {
    std::vector<size_t> active;
    for (size_t i = 0; i < num_flows; ++i) {
      if (!done[i]) active.push_back(i);
    }
    if (active.empty()) break;

    // Max-min allocation for this round.
    std::vector<char> frozen(num_flows, 0);
    std::fill(lane_frozen.begin(), lane_frozen.end(), 0.0);
    std::fill(lane_unfrozen.begin(), lane_unfrozen.end(), 0);
    for (size_t i : active) {
      for (const Hop& h : hops[i]) ++lane_unfrozen[h.lane];
    }
    size_t unfrozen_left = active.size();
    while (unfrozen_left > 0) {
      int bottleneck = -1;
      double bottleneck_share = 0.0;
      for (int lane = 0; lane < 2 * n * n; ++lane) {
        if (lane_unfrozen[lane] == 0) continue;
        const double share =
            (lane_gbps(lane) - lane_frozen[lane]) / lane_unfrozen[lane];
        if (bottleneck < 0 || share < bottleneck_share) {
          bottleneck = lane;
          bottleneck_share = share;
        }
      }
      GUM_CHECK(bottleneck >= 0);
      // Freeze every unfrozen user of the bottleneck lane at the share.
      // The share value is identical for all of them, so the per-lane
      // frozen-capacity sums below see the same sequence of additions
      // regardless of enqueue order. The floor guards against the residual
      // capacity dipping an ulp below zero after many freezes.
      const double share = bottleneck_share > 0.0 ? bottleneck_share : 1e-12;
      for (size_t i : active) {
        if (frozen[i]) continue;
        bool uses = false;
        for (const Hop& h : hops[i]) uses = uses || h.lane == bottleneck;
        if (!uses) continue;
        frozen[i] = 1;
        rate[i] = share;
        --unfrozen_left;
        for (const Hop& h : hops[i]) {
          lane_frozen[h.lane] += share;
          --lane_unfrozen[h.lane];
        }
      }
    }

    // Advance to the earliest completion under these rates.
    double dt = 0.0;
    bool first = true;
    for (size_t i : active) {
      GUM_CHECK(rate[i] > 0.0);
      const double finish = remaining[i] / rate[i];
      if (first || finish < dt) dt = finish;
      first = false;
    }
    now_ns += dt;
    const double dt_ms = dt / 1e6;
    for (int lane = 0; lane < 2 * n * n; ++lane) {
      if (lane_unfrozen[lane] == 0 && lane_frozen[lane] <= 0.0) continue;
      const int base = lane >= n * n ? lane - n * n : lane;
      link_busy_ms_[base / n][base % n] += dt_ms;
    }
    for (size_t i : active) {
      if (remaining[i] / rate[i] <= dt) {
        done[i] = 1;
        remaining[i] = 0.0;
        flow_completion_ns[i] = now_ns;
      } else {
        remaining[i] -= rate[i] * dt;
      }
    }
  }

  // A transfer completes when its last flow does (identity for the
  // one-flow common case).
  out->completion_ns.assign(m, 0.0);
  for (size_t f = 0; f < num_flows; ++f) {
    double& completion = out->completion_ns[flow_transfer[f]];
    completion = std::max(completion, flow_completion_ns[f]);
  }

  // Under contention the tag's transfers overlap; the charge is the tag's
  // makespan, not the sum of solo durations.
  for (size_t i = 0; i < m; ++i) {
    const int tag = transfers[i].tag;
    out->tag_comm_ns[tag] = std::max(out->tag_comm_ns[tag],
                                     out->completion_ns[i]);
  }
}

double CommPlane::ReserveLane(int src, int dst, double ready_ms,
                              double bytes) {
  const int n = topo_.num_devices();
  GUM_CHECK(src >= 0 && src < n && dst >= 0 && dst < n);
  const double lane_ms = LaneMs(src, dst, bytes);
  double start_ms = ready_ms;
  if (model_ == ContentionModel::kFair) {
    start_ms = std::max(ready_ms, lane_busy_until_ms_[DirectLane(n, src, dst)]);
    lane_busy_until_ms_[DirectLane(n, src, dst)] = start_ms + lane_ms;
  }
  link_bytes_[src][dst] += bytes;
  link_busy_ms_[src][dst] += lane_ms;
  return start_ms;
}

void CommPlane::RecordLinkTraffic(int src, int dst, double bytes) {
  const int n = topo_.num_devices();
  GUM_CHECK(src >= 0 && src < n && dst >= 0 && dst < n);
  link_bytes_[src][dst] += bytes;
  link_busy_ms_[src][dst] += LaneMs(src, dst, bytes);
}

void CommPlane::RecordPayload(int src, int dst, double bytes) {
  payload_bytes_[src][dst] += bytes;
}

std::string CommPlane::RenderAscii(double total_ms) const {
  return RenderAsciiTable(link_bytes_, link_busy_ms_, total_ms);
}

std::string CommPlane::RenderAsciiTable(
    const std::vector<std::vector<double>>& link_bytes,
    const std::vector<std::vector<double>>& link_busy_ms, double total_ms) {
  const int n = static_cast<int>(link_bytes.size());
  double denom_ms = total_ms;
  if (denom_ms <= 0.0) {
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        if (i == j) continue;
        if (i < static_cast<int>(link_busy_ms.size()) &&
            j < static_cast<int>(link_busy_ms[i].size())) {
          denom_ms = std::max(denom_ms, link_busy_ms[i][j]);
        }
      }
    }
  }
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line), "%-9s %12s %12s %12s %7s\n", "lane",
                "traffic MB", "busy ms", "GB/s", "util");
  out += line;
  bool any = false;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      const double bytes = link_bytes[i][j];
      const double busy =
          (i < static_cast<int>(link_busy_ms.size()) &&
           j < static_cast<int>(link_busy_ms[i].size()))
              ? link_busy_ms[i][j]
              : 0.0;
      if (bytes <= 0.0 && busy <= 0.0) continue;
      any = true;
      // 1 GB/s == 1 byte/ns, so achieved GB/s = bytes / (busy_ms * 1e6 ns).
      const double gbps = busy > 0.0 ? bytes / (busy * 1e6) : 0.0;
      const double util = denom_ms > 0.0 ? 100.0 * busy / denom_ms : 0.0;
      std::snprintf(line, sizeof(line), "%3d -> %-3d %12.3f %12.3f %12.2f %6.1f%%\n",
                    i, j, bytes / 1e6, busy, gbps, util);
      out += line;
    }
  }
  if (!any) out += "(no interconnect traffic recorded)\n";
  return out;
}

}  // namespace gum::sim
