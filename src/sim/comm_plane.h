// Link-level interconnect plane (paper §IV-A Eq. 1, Fig. 2 opportunity (2)).
//
// A CommPlane wraps a Topology and owns EVERY bytes -> time conversion in
// the system: engines describe transfers ({src, dst, bytes, tag}) and the
// plane decides the path (direct lane / 2-hop transit / PCIe fallback),
// how concurrent transfers share each directed lane, and what each device
// is charged. Nothing outside src/sim/ may touch Topology bandwidths
// directly — that invariant is what makes the residual-bandwidth stealing
// story of the paper honest at the link level.
//
// Two contention models, selected per engine run:
//   ContentionModel::kOff   — the legacy point-to-point model: every
//       transfer sees the full EffectiveBandwidth of its path,
//       independently of every other transfer. Bit-compatible with the
//       pre-CommPlane engines (same arithmetic, same accumulation order).
//   ContentionModel::kFair  — max-min fair sharing: a batch of transfers
//       is settled by progressive filling; each directed lane time-slices
//       its bandwidth across the transfers occupying it, a routed transfer
//       occupies (and is charged on) BOTH hops, and per-transfer
//       completion times fall out of the event simulation. Deterministic:
//       rates are the unique max-min allocation, ties break on lane id /
//       enqueue index, and completion times are independent of enqueue
//       order.
//
// The plane also accumulates per-directed-link telemetry (payload bytes,
// per-hop traffic bytes, lane busy time) that the engines export into
// RunResult, and renders a lane-utilization table (RenderAscii) alongside
// Timeline::RenderAscii.

#ifndef GUM_SIM_COMM_PLANE_H_
#define GUM_SIM_COMM_PLANE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "sim/topology.h"
#include "sim/transfer_plan.h"

namespace gum::sim {

enum class ContentionModel {
  kOff,   // legacy uncontended point-to-point (bit-compatible with seed)
  kFair,  // max-min fair lane sharing with transit double-charging
};

const char* ContentionModelName(ContentionModel model);
Result<ContentionModel> ParseContentionModel(const std::string& name);

// How the plane picks paths. GUM routes over the best path the topology
// offers; the Gunrock-like baseline is deliberately topology-oblivious
// (direct link or PCIe, never a transit GPU — paper §VI); Groute's router
// stores and forwards along a one-way ring, hop by hop.
enum class RoutePolicy {
  kBestPath,
  kDirectOnly,
  kRing,  // next hop (at + 1) mod n; walked only through NextHop()
};

// The explicit path chosen for a (src, dst) pair.
struct CommRoute {
  int src = 0;
  int dst = 0;
  int transit = -1;      // >= 0: 2-hop route via this device
  bool via_pcie = false; // no usable NVLink path; PCIe/QPI fallback
  // Bandwidth of the whole path under the legacy point-to-point model
  // (what EffectiveBandwidth reported for kBestPath).
  double point_to_point_gbps = 0.0;
};

// One enqueued transfer. `tag` is the charging bucket — engines use the
// initiating device id, and Settle() folds per-transfer times into a
// per-tag communication charge. `bulk` marks the transfer plan-eligible:
// under `fair` with multipath enabled it may be striped across the
// link-disjoint paths of a TransferPlan (sim/transfer_plan.h); everywhere
// else the hint is ignored and the transfer settles single-path.
struct Transfer {
  int src = 0;
  int dst = 0;
  double bytes = 0.0;
  int tag = 0;
  bool bulk = false;
};

// A per-iteration batch of transfers that are in flight together.
class TransferBatch {
 public:
  void Add(int src, int dst, double bytes, int tag) {
    transfers_.push_back(Transfer{src, dst, bytes, tag});
  }
  // A plan-eligible bulk payload (FSteal fragments, ownership migrations).
  void AddBulk(int src, int dst, double bytes, int tag) {
    transfers_.push_back(Transfer{src, dst, bytes, tag, /*bulk=*/true});
  }
  size_t size() const { return transfers_.size(); }
  bool empty() const { return transfers_.empty(); }
  void clear() { transfers_.clear(); }

 private:
  friend class CommPlane;
  std::vector<Transfer> transfers_;
};

struct SettleResult {
  // Completion time of each transfer (ns after the batch epoch), in
  // enqueue order. Under kOff this is the transfer's solo duration.
  std::vector<double> completion_ns;
  // Communication charge per tag: under kOff the sum of the tag's
  // transfer durations in enqueue order (the legacy accumulator, bit for
  // bit); under kFair the makespan of the tag's transfers (they overlap).
  std::vector<double> tag_comm_ns;
};

class CommPlane {
 public:
  CommPlane() = default;
  explicit CommPlane(Topology topology,
                     ContentionModel model = ContentionModel::kOff,
                     RoutePolicy policy = RoutePolicy::kBestPath);

  int num_devices() const { return topo_.num_devices(); }
  const Topology& topology() const { return topo_; }
  ContentionModel model() const { return model_; }
  RoutePolicy policy() const { return policy_; }

  // The explicit path this plane uses for (src, dst). A ring path may be
  // longer than two hops, so kRing planes walk NextHop() instead.
  CommRoute Route(int src, int dst) const;
  // The device after `at` on the path from src to dst (at != dst), for
  // every policy: kBestPath walks Route() (its transit, if any, then dst),
  // kDirectOnly goes straight to dst, kRing forwards to (at + 1) mod n.
  // Allocation-free; a path is walked from at = src until at == dst.
  int NextHop(int src, int at, int dst) const;

  // --- multi-path transfer plans (sim/transfer_plan.h) ---
  // Enables striping of bulk-hinted transfers across link-disjoint paths
  // under the fair model. Off by default; kOff contention and non-bulk
  // transfers are never affected, so disabled runs stay byte-identical.
  void set_multipath(bool on) { multipath_ = on; }
  bool multipath() const { return multipath_; }
  // The plan this plane would stripe a bulk (src, dst) payload across,
  // over the fault-scaled direct matrix: a downed link is not offered as
  // a path and a degraded link receives a proportionally smaller stripe.
  TransferPlan PlanBulkTransfer(int src, int dst, double bytes) const;
  // Uncontended duration of `bytes` striped under PlanBulkTransfer —
  // the multi-path analogue of PointToPointNs, used by recovery migration
  // when multipath is enabled.
  double StripedTransferNs(int src, int dst, double bytes) const;
  // Topology-aware census/aggregation tree over the active devices,
  // built over the fault-scaled direct matrix (link faults reshape it).
  ReductionTree BuildCensusTree(const std::vector<int>& active) const;
  // Multi-path checkpoint write-back bandwidth for `device` (GB/s): its
  // own host PCIe link plus a relay through its fastest (fault-scaled)
  // NVLink peer forwarding over that peer's PCIe lane at transit
  // efficiency. Without multipath the write-back is plain kPcieGBps.
  double CheckpointWritebackGbps(int device) const;
  // Striping telemetry accumulated across bulk settles.
  const MultipathStats& multipath_stats() const { return multipath_stats_; }

  // --- prediction API (no telemetry, no contention) ---
  // Static uncontended estimates over the legacy path bandwidth. These are
  // the only sanctioned bytes -> time conversions for *predictions*: the
  // FSteal/OSteal cost coefficients and migration estimates use them in
  // both contention modes, so plan quality never depends on the model knob.
  double PathBandwidth(int src, int dst) const { return LegacyGbps(src, dst); }
  double PointToPointNs(int src, int dst, double bytes) const {
    return bytes / LegacyGbps(src, dst);
  }
  // Mean path bandwidth from `src` to every device (self included) — the
  // DO-BFS pull-phase estimate of scattered status probes.
  double MeanPathNs(int src, double bytes) const;
  // Flat single-NVLink-lane estimate for models that assume a nominal lane.
  static double NominalLaneNs(double bytes) {
    return bytes / Topology::kNvlinkLaneGBps;
  }
  double AggregateBandwidth(const std::vector<int>& active) const {
    return topo_.AggregateBandwidth(active);
  }

  // --- batch API (the engines' per-iteration transfers) ---
  // Settles every transfer of the batch against the contention model,
  // records link/payload/busy telemetry, and returns per-transfer
  // completion times plus the per-tag charge.
  SettleResult Settle(const TransferBatch& batch);

  // --- single-lane API (the async driver's per-hop sends) ---
  // Duration of `bytes` over the single directed lane src -> dst (its
  // direct link, or PCIe if none; the local HBM lane when src == dst).
  // Pure conversion; no reservation, no telemetry.
  double LaneMs(int src, int dst, double bytes) const {
    return bytes / LaneGbps(src, dst) / 1e6;
  }
  // Reserves the lane for one transfer starting no earlier than ready_ms
  // and records telemetry. Returns the start time: ready_ms under kOff
  // (lanes are infinitely shareable, legacy), max(ready_ms, lane free)
  // under kFair (a store-and-forward hop waits for the lane to drain).
  double ReserveLane(int src, int dst, double ready_ms, double bytes);
  // Accounts bytes and occupancy on a lane without FIFO queueing — for
  // pipelined forwarding hops whose latency the caller models itself.
  // Telemetry-identical to ReserveLane; never delays.
  void RecordLinkTraffic(int src, int dst, double bytes);
  // Records the logical payload of a multi-hop send (once per transfer,
  // where ReserveLane/RecordLinkTraffic record per-hop traffic).
  void RecordPayload(int src, int dst, double bytes);

  // --- fault overlay (fault/fault_plane.h; applied by the engine) ---
  // Scales the direct link pair (a, b) to `scale` of its nominal bandwidth
  // for all subsequent conversions; 0 removes the link. Routing is
  // recomputed over the degraded matrix, so transfers fall back to the
  // next-best 2-hop transit or the PCIe path and every prediction and
  // charge sees the detour honestly. The local HBM lane and the PCIe pool
  // are never faulted. Scales compose per call (multiplicative).
  void SetLinkScale(int a, int b, double scale);
  // Restores every link to nominal. A plane whose faults are cleared (or
  // that never had any) is bit-identical to one without the overlay.
  void ClearLinkFaults();
  bool HasLinkFaults() const { return faults_active_; }

  // --- telemetry snapshot (fault/checkpoint.h) ---
  // Accumulated telemetry as a value, so a rolled-back run restores the
  // exact counters it had at the checkpoint barrier and re-accumulates.
  struct Telemetry {
    std::vector<std::vector<double>> link_bytes;
    std::vector<std::vector<double>> payload_bytes;
    std::vector<std::vector<double>> link_busy_ms;
    std::vector<double> lane_busy_until_ms;
    MultipathStats multipath;
  };
  Telemetry SnapshotTelemetry() const;
  void RestoreTelemetry(const Telemetry& telemetry);

  // --- telemetry (accumulated across Settle/ReserveLane calls) ---
  // Per-hop traffic: bytes that crossed the directed lane i -> j. A routed
  // transfer appears on both of its hops. [i][i] is local memory traffic.
  const std::vector<std::vector<double>>& link_bytes() const {
    return link_bytes_;
  }
  // Logical payload: bytes of transfers whose endpoints were (i, j),
  // counted once regardless of routing.
  const std::vector<std::vector<double>>& payload_bytes() const {
    return payload_bytes_;
  }
  // Time each directed lane spent occupied by at least one transfer.
  const std::vector<std::vector<double>>& link_busy_ms() const {
    return link_busy_ms_;
  }

  // Lane-utilization table over the accumulated telemetry. total_ms <= 0
  // uses the busiest lane as the utilization denominator.
  std::string RenderAscii(double total_ms = 0.0) const;
  // Same table over exported matrices (e.g. RunResult::link_bytes /
  // link_busy_ms) for callers that no longer hold the plane.
  static std::string RenderAsciiTable(
      const std::vector<std::vector<double>>& link_bytes,
      const std::vector<std::vector<double>>& link_busy_ms, double total_ms);

 private:
  // Raw capacity of the directed lane src -> dst: its direct link if one
  // exists, the PCIe fallback otherwise; local HBM on the diagonal.
  double LaneGbps(int src, int dst) const;
  // Legacy point-to-point bandwidth under this plane's route policy.
  double LegacyGbps(int src, int dst) const;
  // Direct bandwidth with the fault overlay applied (nominal when none).
  double ScaledDirect(int src, int dst) const;
  // Re-derives effective bandwidth / best transit over the degraded direct
  // matrix — the same routing rule as Topology::FinalizeRouting.
  void RecomputeFaultRouting();

  void SettleOff(const std::vector<Transfer>& transfers, SettleResult* out);
  void SettleFair(const std::vector<Transfer>& transfers, SettleResult* out);

  Topology topo_;
  ContentionModel model_ = ContentionModel::kOff;
  RoutePolicy policy_ = RoutePolicy::kBestPath;
  bool multipath_ = false;
  MultipathStats multipath_stats_;

  // Fault overlay: per directed pair scale (1 = nominal) plus the routing
  // tables recomputed over the scaled matrix. Inactive (and unallocated)
  // until the first SetLinkScale, so a fault-free run never consults it.
  bool faults_active_ = false;
  std::vector<double> link_scale_;
  std::vector<double> faulted_effective_;
  std::vector<int> faulted_transit_;

  std::vector<std::vector<double>> link_bytes_;
  std::vector<std::vector<double>> payload_bytes_;
  std::vector<std::vector<double>> link_busy_ms_;
  // ReserveLane bookkeeping: when each directed lane next frees up.
  std::vector<double> lane_busy_until_ms_;
};

}  // namespace gum::sim

#endif  // GUM_SIM_COMM_PLANE_H_
