// Per-run and per-iteration results shared by all three engines.

#ifndef GUM_CORE_RUN_RESULT_H_
#define GUM_CORE_RUN_RESULT_H_

#include <cstdint>
#include <vector>

#include "sim/timeline.h"
#include "sim/transfer_plan.h"

namespace gum::core {

struct IterationStats {
  int iteration = 0;
  std::vector<double> fragment_load;  // active edges per fragment (l_i)
  std::vector<double> device_busy_ms; // per-device busy time (all buckets)
  int group_size = 0;                 // active devices (m)
  bool fsteal_applied = false;
  bool osteal_evaluated = false;
  bool group_size_changed = false;
  double wall_ms = 0.0;               // simulated iteration wall time
  double fsteal_decision_host_ms = 0.0;
  double osteal_decision_host_ms = 0.0;
  double stolen_edges = 0.0;          // edges processed away from the owner
  int fsteal_plan_cells = 0;          // off-owner cells of the applied plan
};

// Fault-plane counters (src/fault/, DESIGN.md §11). They count every event
// of the run: a checkpoint rollback restores the rest of the RunResult but
// keeps these.
struct FaultStats {
  int checkpoints_taken = 0;
  double checkpoint_bytes_total = 0.0;  // state written across checkpoints
  double checkpoint_ms_total = 0.0;     // wall charge across checkpoints
  int devices_failed = 0;               // fail-stops observed
  int recovery_events = 0;              // barrier detections that recovered
  int fragments_migrated = 0;           // re-owned away from their ckpt owner
  double recovery_detect_ms = 0.0;      // barrier timeout charges
  double recovery_restore_ms = 0.0;     // checkpoint read-back (slowest dev)
  double recovery_migrate_ms = 0.0;     // inherited-fragment state read-back
  double lost_work_ms = 0.0;            // rolled-back simulated wall time
  double straggler_ms = 0.0;            // extra compute charged to stragglers
  int link_fault_iterations = 0;        // iterations run with a degraded link
  // Total charged recovery time: detection + restore + migration + lost
  // work. Nonzero iff at least one fail-stop was recovered from.
  double RecoveryChargedMs() const;
};

struct RunResult {
  int iterations = 0;
  double total_ms = 0.0;  // simulated end-to-end (sum of iteration walls)
  uint64_t edges_processed = 0;
  uint64_t messages_sent = 0;
  double stolen_edges_total = 0.0;
  int fsteal_applied_iterations = 0;
  int osteal_shrink_events = 0;  // iterations where the group size changed
  double fsteal_decision_host_ms_total = 0.0;
  double osteal_decision_host_ms_total = 0.0;
  // Simulated stealing overhead charged to the timeline (policy generation,
  // broadcast, stolen-status copies) — the "Cost" columns of paper Table IV.
  double fsteal_sim_overhead_ms = 0.0;
  double osteal_sim_overhead_ms = 0.0;
  // Solver effort behind the steal decisions, summed over the run: simplex
  // iterations, MILP branch-and-bound nodes, and applied-plan sizes
  // (off-owner assignment cells). Surfaced in the obs run report.
  int64_t fsteal_lp_iterations_total = 0;
  int64_t fsteal_milp_nodes_total = 0;
  int64_t fsteal_plan_cells_total = 0;
  int64_t osteal_lp_iterations_total = 0;
  int64_t osteal_milp_nodes_total = 0;

  // --- fault plane (src/fault/, DESIGN.md §11) ---
  // All zero unless a fault plan or a checkpoint cadence was active; the
  // obs run report emits its `faults` section only when one was.
  bool fault_plan_active = false;
  FaultStats faults;

  sim::Timeline timeline;
  std::vector<IterationStats> iteration_stats;

  // Per-hop traffic between device pairs over the whole run, as charged by
  // the CommPlane: with contention=fair a 2-hop routed transfer appears on
  // BOTH of its lanes; with contention=off (the legacy point-to-point
  // model) traffic equals payload. link_bytes[i][i] is local memory
  // traffic from remote-edge gathers. Filled from CommPlane telemetry.
  std::vector<std::vector<double>> link_bytes;
  // Logical payload between endpoint pairs, counted once per transfer
  // regardless of routing.
  std::vector<std::vector<double>> payload_bytes;
  // Time each directed lane spent occupied by at least one transfer.
  std::vector<std::vector<double>> link_busy_ms;
  // Off-diagonal traffic (per-hop under contention=fair).
  double TotalRemoteBytes() const;
  // Off-diagonal payload (per-transfer; never double-counts transit hops).
  double TotalPayloadBytes() const;

  // --- multi-path transfer plans (sim/transfer_plan.h, DESIGN.md §8) ---
  // Active only under contention=fair with multipath=on; the obs run
  // report emits its `comm.multipath` section only when it was.
  bool multipath_active = false;
  sim::MultipathStats multipath;

  // --- async engine mode (src/core/async/, DESIGN.md §15) ---
  // Filled by the async driver; all zero (and the obs run report's `async`
  // section absent) for a BSP run.
  bool async_active = false;
  int64_t async_batches = 0;          // micro-batches processed
  int64_t async_stale_skips = 0;      // popped entries superseded lazily
  int64_t async_range_steals = 0;     // priority-range steal events
  int64_t async_range_steal_entries = 0;  // worklist entries moved by them
  double async_range_steal_bytes = 0.0;   // state bytes charged for them
  int64_t async_smq_rebalances = 0;   // intra-worklist SMQ queue steals
  int quiescence_rounds = 0;          // charged termination censuses
  double async_delta = 0.0;           // resolved bucket width
  // Pushes per bucket index across all device worklists (relative to each
  // worklist's first bucket, clamped; worklist.h kHistogramBuckets wide).
  std::vector<uint64_t> async_bucket_histogram;

  // --- mutation plane (graph/mutation.h, DESIGN.md §14) ---
  // Filled by the streaming drivers (gum_cli --mutations, gum_serve
  // --update-rate) on the aggregate result; all zero for a static run, and
  // the obs run report emits its `mutations` section only when active.
  bool mutation_plane_active = false;
  int mutation_epochs = 0;
  int mutation_events_applied = 0;  // effective inserts + deletes
  int mutation_noops = 0;
  double mutation_delta_bytes = 0.0;  // overlay bytes summed over epochs
  int mutation_compactions = 0;
  int mutation_incremental_epochs = 0;
  int mutation_skipped_epochs = 0;
  int mutation_fallbacks = 0;  // lost-monotonicity full replays
  double mutation_apply_ms = 0.0;    // charged delta-apply barriers
  double mutation_compact_ms = 0.0;  // charged CSR compactions
  double mutation_restore_ms = 0.0;  // charged fallback restores

  // Bucket totals over the whole run (simulated ms).
  double ComputeMs() const {
    return timeline.TotalByCategory(sim::TimeCategory::kCompute);
  }
  double CommunicationMs() const {
    return timeline.TotalByCategory(sim::TimeCategory::kCommunication);
  }
  double SerializationMs() const {
    return timeline.TotalByCategory(sim::TimeCategory::kSerialization);
  }
  double OverheadMs() const {
    return timeline.TotalByCategory(sim::TimeCategory::kOverhead);
  }
  // Device-cycles lost to stragglers (the paper folds this into
  // "communication" in the Fig. 6 breakdown).
  double StarvationMs() const;
};

}  // namespace gum::core

#endif  // GUM_CORE_RUN_RESULT_H_
