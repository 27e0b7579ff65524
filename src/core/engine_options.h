// Options shared by the GUM engine and the baseline presets
// (baselines/gunrock.h, baselines/groute.h), and their one check.

#ifndef GUM_CORE_ENGINE_OPTIONS_H_
#define GUM_CORE_ENGINE_OPTIONS_H_

#include <cstdint>

#include "common/status.h"
#include "core/async/async_options.h"
#include "core/expand/expand_backend.h"
#include "core/fsteal.h"
#include "core/osteal.h"
#include "fault/checkpoint.h"
#include "fault/fault_plane.h"
#include "sim/comm_plane.h"
#include "sim/device.h"

namespace gum::core {

// The BSP loop's per-superstep device-time model (core/time_accounting.h).
enum class TimeModel { kGum, kGunrock };

struct EngineOptions {
  // --- execution mode (DESIGN.md §15) ---
  // kBsp runs the barriered superstep loop below — byte-identical (stdout
  // and values) to a build without the async subsystem. kAsync routes the
  // run through src/core/async/: per-device priority worklists drained in
  // micro-batches with no global barrier, termination via a charged
  // quiescence census. Async runs are seed-deterministic (byte-identical
  // for a fixed async.seed across thread counts) and converge
  // to the same fixpoint for monotone apps (DESIGN.md §7).
  EngineMode mode = EngineMode::kBsp;
  AsyncConfig async;

  // --- stealing mechanisms (the paper's contribution) ---
  bool enable_fsteal = true;
  bool enable_osteal = true;
  FStealConfig fsteal;
  OStealConfig osteal;

  // --- intra-GPU / communication optimizations ("opt" of Fig. 10) ---
  bool enable_hub_cache = true;
  uint32_t t4_hub_in_degree = 128;      // Example 6 threshold
  bool enable_message_aggregation = true;

  // --- Eq. (4) p estimation ---
  // "p is a parameter that can be estimated during previous iterations":
  // when true, OSteal's p comes from an EWMA over the observed per-
  // iteration synchronization overhead, seeded with sync_prior_us. When
  // false, OSteal is given the device's true constant (oracle).
  bool estimate_sync_online = true;
  double sync_prior_us = 200.0;  // deliberately generic starting guess

  // --- substrate ---
  sim::DeviceParams device;
  // Interconnect contention model (sim/comm_plane.h): kOff reproduces the
  // legacy point-to-point timing bit for bit; kFair time-slices each lane
  // across the transfers occupying it. Results (values, messages) are
  // identical either way — only time and link telemetry differ.
  sim::ContentionModel contention = sim::ContentionModel::kOff;
  // How a transfer picks its lanes (sim/comm_plane.h). BSP runs take
  // kBestPath or kDirectOnly (the Gunrock preset: never through a transit
  // GPU); kRing is the async driver's hop-by-hop Groute ring.
  sim::RoutePolicy route = sim::RoutePolicy::kBestPath;
  // Multi-path transfer plans + topology-aware census trees
  // (sim/transfer_plan.h). Only meaningful under contention=fair: bulk
  // payloads (FSteal fragments, OSteal/recovery migrations, checkpoint
  // write-back) stripe across link-disjoint paths, and the census sync
  // charge follows a reduction tree instead of all-to-one. Values are
  // byte-identical either way — multipath only changes simulated time and
  // link telemetry (DESIGN.md §7/§8).
  sim::MultipathMode multipath = sim::MultipathMode::kOff;

  // --- expand backend (core/expand/, DESIGN.md §12) ---
  // kScatter reproduces the pre-backend engine bit for bit (stdout and
  // values). kSpmv / kAuto change accounted time and message telemetry but
  // never values: every backend is byte-identical on values for every
  // thread count. Iterations that run a non-scatter mode skip
  // the frontier-steal solve (the linear-algebra backend does not
  // frontier-steal); ownership stealing stays active.
  ExpandBackendKind expand_backend = ExpandBackendKind::kScatter;

  // --- time model (kGunrock: the baselines/gunrock.h preset) ---
  TimeModel time_model = TimeModel::kGum;
  // Gunrock's compute-rate multiplier on one GPU; read only by its model.
  double gunrock_single_gpu_compute_factor = 0.70;

  // --- host execution ---
  // Host threads expanding the per-executor work units of Step 4
  // (core/expand/frontier_scatter.h). <= 0 selects the hardware
  // concurrency; 1 runs the units serially, depositing each message as it
  // is emitted. The message plane's merge and apply split the vertices
  // into one destination shard per resolved thread (core/message_store.h
  // ShardMap). Results are bit-identical for every setting (see
  // DESIGN.md, "Determinism contract").
  int num_host_threads = 0;

  // --- fault plane (src/fault/, DESIGN.md §11) ---
  // Deterministic fault schedule queried at every superstep barrier. Null,
  // or a plane whose plan is empty, disables every fault-plane code path —
  // the run is bit-identical to a build without the subsystem. The plane
  // must outlive the engine and match the device count.
  const fault::FaultPlane* fault_plane = nullptr;
  // Periodic checkpoint cadence (checkpoint.every == 0 disables). Charged
  // honestly: each snapshot costs its owners a PCIe read-back, so turning
  // checkpoints on changes reported time (never values).
  fault::CheckpointConfig checkpoint;

  // --- safety rails ---
  int max_iterations = 200000;
  bool record_iteration_stats = true;
};

// Checks one run's options against its device count and its app (fixed-
// round? has AsyncPriority?). Returns InvalidArgument naming the first
// combination the engines cannot run faithfully; both drivers check it at
// entry, and the tools call it behind their flag-naming messages.
Status ValidateRunOptions(const EngineOptions& options, int num_devices,
                          bool fixed_round_app, bool async_capable_app);

}  // namespace gum::core

#endif  // GUM_CORE_ENGINE_OPTIONS_H_
