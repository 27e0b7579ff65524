// The GUM multi-GPU graph processing engine (paper §V).
//
// BSP execution with remote work stealing. Per iteration (paper Example 4):
//   Step 1  generate frontiers (apply previous messages);
//   Step 2  ownership stealing — when the previous iteration was
//           synchronization-bound, enumerate group sizes over the reduction
//           tree and possibly shrink/grow the communication group;
//   Step 3  frontier stealing — solve the Eq.-1 MILP over the cost
//           coefficient matrix (with evicted devices forbidden) and split
//           each fragment's frontier into per-worker contiguous ranges;
//   Step 4  process the frontiers — every worker expands the vertices
//           assigned to it (remote adjacency over NVLink unless hub-cached),
//           messages are combined per target vertex and forwarded to the
//           target fragment's owner.
//
// GumEngine is a thin orchestrator over layered components (see
// docs/architecture.md):
//   core/graph_context.h   — the immutable per-graph substrate (partition,
//                            topology geometry, cost model, hub cache,
//                            shard map, thread pool, shared PullEdges)
//   core/run_context.h     — the per-query mutable state (values, frontier,
//                            message store, backend staging arenas)
//   core/superstep.h       — Step-4 decomposition into per-executor work
//                            units, expanded on a host ThreadPool
//   core/message_store.h   — deterministic inbox + per-worker staging,
//                            destination-sharded merge/apply
//   core/time_accounting.h — the analytic device-time model
// Results are bit-identical for every num_host_threads and num_msg_shards
// setting; see DESIGN.md, "Determinism contract".
//
// Serving mode (DESIGN.md §13): build one GraphContext, then run many
// queries against it — GumEngine(&context) plus a reused RunContext keeps
// every high-water arena warm between runs. The legacy constructor builds
// and owns a context internally, so existing call sites are unchanged.
//
// Algorithm semantics are exact; device time is accounted by the analytic
// substrate model (see DESIGN.md §1). The App concept:
//
//   struct App {
//     using Value = ...;            // per-vertex state
//     using Message = ...;          // combined per target vertex
//     std::string name() const;
//     int fixed_rounds() const;     // -1 => data-driven, else round count
//     Value InitValue(VertexId v) const;
//     bool IsInitiallyActive(VertexId v) const;
//     Message InitialAccumulator() const;  // Combine identity (fixed-rounds)
//     // Called exactly once per active vertex per iteration; may mutate the
//     // vertex value (delta-PageRank consumes its residual here). Returns
//     // the payload broadcast along the vertex's out-edges. Must not mutate
//     // App member state (runs concurrently on host threads).
//     Message OnFrontier(VertexId u, Value& val, uint32_t out_degree);
//     // Per-edge message; nullopt suppresses the edge.
//     std::optional<Message> Scatter(const Message& payload, VertexId dst,
//                                    float weight) const;
//     Message Combine(const Message& a, const Message& b) const;  // assoc.
//     // Applies the combined message; true activates dst next iteration.
//     bool Apply(VertexId v, Value& val, const Message& msg) const;
//     // Optional (SpMV pull fusion, core/expand/expand_backend.h):
//     // Message CombineAll(const Message& acc, const Message& payload,
//     //                    float weight) const;
//   };
//
// Step 4 runs on one of the pluggable expand backends (core/expand/,
// selected by EngineOptions::expand_backend + the per-iteration density
// heuristic). Vertex values are byte-identical across backends.

#ifndef GUM_CORE_ENGINE_H_
#define GUM_CORE_ENGINE_H_

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "core/async/async_engine.h"
#include "core/edge_cost_model.h"
#include "core/engine_options.h"
#include "core/expand/expand_backend.h"
#include "core/expand/frontier_scatter.h"
#include "core/expand/spmv.h"
#include "core/graph_context.h"
#include "core/hub_cache.h"
#include "core/message_store.h"
#include "core/run_context.h"
#include "core/run_result.h"
#include "core/superstep.h"
#include "core/time_accounting.h"
#include "core/vertex_state.h"
#include "fault/checkpoint.h"
#include "fault/fault_plane.h"
#include "fault/recovery.h"
#include "graph/csr.h"
#include "graph/frontier_features.h"
#include "graph/partition.h"
#include "ml/model.h"
#include "sim/comm_plane.h"
#include "sim/kernel_cost.h"
#include "sim/reduction_schedule.h"
#include "sim/timeline.h"
#include "sim/topology.h"

namespace gum::core {

template <typename App>
class GumEngine {
 public:
  using VertexId = graph::VertexId;
  using Value = typename App::Value;
  using Message = typename App::Message;

  // Legacy constructor: builds and owns the immutable context. `g` and
  // `cost_model` (if non-null) must outlive the engine. A null cost_model
  // forces the exact oracle regardless of options.
  GumEngine(const graph::CsrGraph* g, graph::Partition partition,
            sim::Topology topology, EngineOptions options,
            const ml::RegressionModel* cost_model = nullptr)
      : owned_ctx_(std::make_unique<GraphContext>(g, std::move(partition),
                                                  std::move(topology), options,
                                                  cost_model)),
        ctx_(owned_ctx_.get()) {}

  // Serving constructor: runs against an externally owned context (which
  // must outlive the engine). Many engines — including engines of
  // different App types — may share one context.
  explicit GumEngine(const GraphContext* ctx) : ctx_(ctx) {
    GUM_CHECK(ctx_ != nullptr) << "GumEngine needs a GraphContext";
  }

  const GraphContext& context() const { return *ctx_; }

  // Repoints the engine at a new externally owned context (which must
  // outlive the engine) — the mutation-plane epoch barrier, where the
  // GraphContext is rebuilt over the mutated graph. Only valid between
  // runs; any legacy-constructor-owned context is released.
  void Rebind(const GraphContext* ctx) {
    GUM_CHECK(ctx != nullptr) << "GumEngine needs a GraphContext";
    ctx_ = ctx;
    owned_ctx_.reset();
  }

  // Runs the app to convergence; returns timing statistics and, optionally,
  // the final vertex values. Allocates a fresh RunContext — byte-identical
  // to the pre-context-split engine.
  RunResult Run(App& app, std::vector<Value>* values_out = nullptr) {
    RunContext<App> rc;
    return Run(app, rc, values_out);
  }

  // Runs the app against a caller-owned RunContext (reusable across runs —
  // the serving fast path; results are identical to a fresh context).
  // `run_options`, when non-null, overrides the context's options for this
  // run only. It may change run-scoped knobs (fault plane, checkpoint and
  // recovery configs, steal switches, max_iterations, expand backend,
  // record_iteration_stats) but must keep the geometry-defining fields the
  // context was built from (device, threads, shards, hub cache, topology).
  RunResult Run(App& app, RunContext<App>& rc,
                std::vector<Value>* values_out = nullptr,
                const EngineOptions* run_options = nullptr) {
    const graph::CsrGraph& g = ctx_->graph();
    const graph::Partition& partition = ctx_->partition();
    const EngineOptions& options =
        run_options != nullptr ? *run_options : ctx_->options();
    // Async mode routes the whole run through the priority-worklist driver
    // (core/async/async_engine.h); everything below is the BSP superstep
    // loop, untouched when mode == kBsp.
    if (options.mode == EngineMode::kAsync) {
      if constexpr (AsyncCapable<App>) {
        AsyncDriver<App> driver(ctx_);
        return driver.Run(app, rc, values_out, options);
      } else {
        GUM_CHECK(false) << "async mode requires an app with AsyncPriority ("
                         << app.name() << " is BSP-only)";
      }
    }
    ThreadPool* pool = ctx_->pool();
    const int n = partition.num_parts;
    const VertexId num_v = g.num_vertices();
    const sim::DeviceParams& dev = options.device;
    const double p_ns = dev.sync_per_peer_us * 1000.0;

    RunResult result;
    result.timeline = sim::Timeline(n);
    // Every transfer of the run is charged and recorded through this plane;
    // its telemetry is exported into the result after the last iteration.
    sim::CommPlane plane(ctx_->topology(), options.contention);
    // Multi-path plans only compose with the fair model: kOff is the
    // bit-compatible legacy conversion, so striping stays disabled there
    // and contention=off runs are byte-identical regardless of the knob.
    const bool multipath =
        options.multipath == sim::MultipathMode::kOn &&
        options.contention == sim::ContentionModel::kFair;
    plane.set_multipath(multipath);

    // SoA vertex state: dense value array + fragment-major frontier arena
    // (core/vertex_state.h), ascending within each fragment.
    VertexState<Value>& state = rc.state;
    auto& values = state.values;
    auto& frontier = state.frontier;
    values.resize(num_v);
    for (VertexId v = 0; v < num_v; ++v) values[v] = app.InitValue(v);
    frontier.BuildByOwner(num_v, partition.owner, n, [&app](VertexId v) {
      return app.IsInitiallyActive(v);
    });

    MessageStore<Message>& store = rc.store;
    store.Reset(num_v);
    // Destination shards: the parallel axis of the merge and apply phases.
    const ShardMap& shard_map = ctx_->shard_map();

    std::vector<int> owner_of_fragment(n);
    for (int i = 0; i < n; ++i) owner_of_fragment[i] = i;
    std::vector<int> active(n);
    for (int i = 0; i < n; ++i) active[i] = i;
    int group_size = n;

    const int fixed_rounds = app.fixed_rounds();
    double prev_wall_ms = 1e18;  // first iteration never triggers OSteal
    // Eq. (4)'s p, estimated online from observed iterations (paper §IV-A:
    // "a parameter that can be estimated during previous iterations").
    double p_estimate_ns = options.estimate_sync_online
                               ? options.sync_prior_us * 1000.0
                               : p_ns;

    // Expand backends and scratch live in the RunContext, reused across
    // iterations (and across runs in serving mode). The SpMV backend's
    // heavy structures are built lazily on first use — and the pull
    // gather's in-edge CSR comes from the shared GraphContext build — so
    // scatter-only runs never pay for them.
    FrontierScatterBackend<App>& scatter_backend = rc.scatter_backend;
    SpmvBackend<App>& spmv_backend = rc.spmv_backend;
    ExpandCounters& expand_counters = rc.expand_counters;
    std::vector<double>& apply_msgs = rc.apply_msgs;
    apply_msgs.assign(n, 0.0);
    ApplyScratch& apply_scratch = rc.apply_scratch;
    FrontierSoA& next_frontier = rc.next_frontier;
    next_frontier.Reset(n);

    // --- fault plane state (DESIGN.md §11) ---
    // With no plane (or an empty plan) every guard below is dead and the
    // run is bit-identical to a fault-free build.
    const fault::FaultPlane* faults =
        options.fault_plane != nullptr && options.fault_plane->active()
            ? options.fault_plane
            : nullptr;
    if (faults != nullptr) {
      GUM_CHECK(faults->num_devices() == n)
          << "fault plane bound to " << faults->num_devices()
          << " devices, engine has " << n;
    }
    const int ckpt_every = options.checkpoint.every;
    std::vector<bool> failed(n, false);
    std::vector<int> survivors = AllDevices(n);
    sim::ReductionSchedule survivor_schedule = ctx_->schedule();
    fault::Checkpoint<Value> ckpt;
    bool recovery_pending = false;
    double pending_lost_ms = 0.0;
    // Monotonic fault accounting, kept outside RunResult so checkpoint
    // rollback never erases it; folded into the result after the loop.
    // Timeline charges DO roll back — the discarded execution (including
    // any recovery charged on it) is re-charged as lost work at restore.
    struct FaultAccounting {
      int checkpoints_taken = 0;
      double checkpoint_bytes_total = 0.0;
      double checkpoint_ms_total = 0.0;
      int devices_failed = 0;
      int recovery_events = 0;
      int fragments_migrated = 0;
      double recovery_detect_ms = 0.0;
      double recovery_restore_ms = 0.0;
      double recovery_migrate_ms = 0.0;
      double lost_work_ms = 0.0;
      double straggler_ms = 0.0;
      int link_fault_iterations = 0;
    } facct;
    const auto fragment_state_bytes = [&](int i) {
      return fault::FragmentStateBytes(partition.part_vertices[i].size(),
                                       frontier.FragmentSize(i),
                                       sizeof(Value));
    };
    // Snapshots everything the loop needs to re-enter at `next_iter`. The
    // initial snapshot is free (state is still host-resident); periodic
    // ones charge their owners a PCIe read-back before being taken.
    const auto take_checkpoint = [&](int next_iter) {
      ckpt.iteration = next_iter;
      ckpt.state = state;
      ckpt.owner_of_fragment = owner_of_fragment;
      ckpt.active = active;
      ckpt.group_size = group_size;
      ckpt.p_estimate_ns = p_estimate_ns;
      ckpt.prev_wall_ms = prev_wall_ms;
      ckpt.result = result;
      ckpt.comm = plane.SnapshotTelemetry();
    };
    if (faults != nullptr) take_checkpoint(0);

    for (int iter = 0; iter < options.max_iterations; ++iter) {
      // --- fail-stop detection at the superstep barrier ---
      if (faults != nullptr) {
        std::vector<int> newly;
        for (const int d : faults->FailuresAt(iter)) {
          // Replay re-crosses the failure iteration; already-dead devices
          // never re-trigger.
          if (!failed[d]) newly.push_back(d);
        }
        if (!newly.empty()) {
          obs::TraceInstant("fault.failstop");
          for (const int d : newly) failed[d] = true;
          survivors.clear();
          std::vector<int> failed_list;
          for (int i = 0; i < n; ++i) {
            (failed[i] ? failed_list : survivors).push_back(i);
          }
          GUM_CHECK(!survivors.empty()) << "fault plan killed every device";
          survivor_schedule =
              sim::ReductionSchedule::BuildWithForbidden(ctx_->topology(),
                                                         failed_list);
          // State is lost only if a dead device owned fragments or worked
          // in the group; a device OSteal already evicted takes nothing
          // with it, so the run continues from live state.
          bool state_lost = false;
          for (const int d : newly) {
            for (int i = 0; i < n; ++i) {
              state_lost = state_lost || owner_of_fragment[i] == d;
            }
            state_lost = state_lost ||
                         std::find(active.begin(), active.end(), d) !=
                             active.end();
          }
          facct.devices_failed += static_cast<int>(newly.size());
          if (state_lost) {
            // Roll back to the last checkpoint; everything charged since
            // (including the lost iterations' walls) becomes lost work,
            // re-charged at the restore barrier below.
            pending_lost_ms = result.total_ms - ckpt.result.total_ms;
            state = ckpt.state;
            owner_of_fragment = ckpt.owner_of_fragment;
            active = ckpt.active;
            group_size = ckpt.group_size;
            p_estimate_ns = ckpt.p_estimate_ns;
            prev_wall_ms = ckpt.prev_wall_ms;
            result = ckpt.result;
            plane.RestoreTelemetry(ckpt.comm);
            iter = ckpt.iteration;
            recovery_pending = true;
          } else {
            // Nothing rolls back: charge the barrier timeout and continue
            // with the shrunk candidate set.
            const double detect_ms =
                options.recovery.detect_timeout_us / 1000.0;
            for (const int d : survivors) {
              result.timeline.Add(iter, d, sim::TimeCategory::kOverhead,
                                  detect_ms);
            }
            facct.recovery_detect_ms += detect_ms;
            ++facct.recovery_events;
          }
        }
        // --- link-fault overlay for this iteration ---
        plane.ClearLinkFaults();
        const auto link_faults = faults->LinkFaultsAt(iter);
        for (const auto& lf : link_faults) {
          plane.SetLinkScale(lf.a, lf.b, lf.scale);
        }
        if (!link_faults.empty()) ++facct.link_fault_iterations;
      }
      if (fixed_rounds >= 0) {
        if (iter >= fixed_rounds) break;
        // Stationary workload: every inner vertex is active each round.
        frontier.Assign(partition.part_vertices);
      }

      // --- Step 1: workload census ---
      std::vector<double> loads(n, 0.0);
      std::vector<graph::FrontierFeatures> features(n);
      std::vector<double> remote_discount(n, 1.0);
      double total_load = 0.0;
      size_t total_frontier = 0;
      {
      GUM_TRACE_SCOPE("gum.census");
      const HubCache& hub_cache = ctx_->hub_cache();
      for (int i = 0; i < n; ++i) {
        double hub_load = 0.0;
        for (VertexId v : frontier.Fragment(i)) {
          loads[i] += g.OutDegree(v);
          if (hub_cache.IsHub(v)) hub_load += g.OutDegree(v);
        }
        total_load += loads[i];
        total_frontier += frontier.FragmentSize(i);
        features[i] = graph::ExtractFrontierFeatures(g, frontier.Fragment(i));
        if (loads[i] > 0) remote_discount[i] = 1.0 - hub_load / loads[i];
      }
      }
      if (fixed_rounds < 0 && total_frontier == 0) break;

      IterationStats stats;
      stats.iteration = iter;
      stats.fragment_load = loads;

      // Per-iteration expand-mode decision (DESIGN.md §12): depends only
      // on the census loads and the constant edge count, so it is
      // deterministic for every thread and shard count.
      const ExpandMode expand_mode = SelectExpandMode(
          options.expand_backend, total_load,
          static_cast<double>(g.num_edges()), options.spmv);

      // --- fault recovery: rebuild ownership over the survivors ---
      // Runs at the first barrier after a rollback: drive the OSteal
      // enumeration over the survivor schedule (dead columns forbidden),
      // then charge detection, checkpoint read-back, migration, and the
      // rolled-back work at this barrier.
      bool recovered_this_iter = false;
      if (recovery_pending) {
        recovery_pending = false;
        recovered_this_iter = true;
        GUM_TRACE_SCOPE("fault.recover");
        const auto cost_surv = BuildCostMatrix(
            features, remote_discount, ctx_->cost_model(), plane, survivors);
        OStealDecision dec = fault::RebuildOwnership(
            cost_surv, loads, survivor_schedule, p_estimate_ns,
            options.osteal, static_cast<int>(survivors.size()),
            options.enable_osteal);
        stats.osteal_evaluated = options.enable_osteal;
        stats.osteal_decision_host_ms = dec.decision_host_ms;
        result.osteal_decision_host_ms_total += dec.decision_host_ms;
        result.osteal_lp_iterations_total += dec.lp_iterations_total;
        result.osteal_milp_nodes_total += dec.milp_nodes_total;
        std::vector<double> frag_bytes(n);
        for (int i = 0; i < n; ++i) frag_bytes[i] = fragment_state_bytes(i);
        const fault::RecoveryCharge charge = fault::ComputeRecoveryCharge(
            options.recovery, owner_of_fragment, dec.owner, failed,
            frag_bytes, multipath ? &plane : nullptr);
        if (dec.group_size != group_size) {
          stats.group_size_changed = true;
          ++result.osteal_shrink_events;
        }
        group_size = dec.group_size;
        owner_of_fragment = dec.owner;
        active = dec.active;
        for (const int d : survivors) {
          result.timeline.Add(iter, d, sim::TimeCategory::kOverhead,
                              charge.per_device_ms[d] + pending_lost_ms);
        }
        facct.recovery_detect_ms += charge.detect_ms;
        facct.recovery_restore_ms += charge.restore_ms;
        facct.recovery_migrate_ms += charge.migrate_ms;
        facct.lost_work_ms += pending_lost_ms;
        facct.fragments_migrated += charge.fragments_migrated;
        ++facct.recovery_events;
        pending_lost_ms = 0.0;
        obs::TraceInstant("fault.recover");
        if (obs::MetricsEnabled()) {
          auto& reg = obs::MetricsRegistry::Global();
          reg.GetCounter("gum_fault_recoveries_total").Increment();
          reg.GetCounter("gum_fault_fragments_migrated_total")
              .Increment(charge.fragments_migrated);
        }
      }

      // --- Step 2: ownership stealing ---
      // Evaluate OSteal when the previous iteration was latency-bound, or
      // whenever the group is already shrunk (so it can grow back as the
      // workload recovers, paper §IV-B). After a fail-stop the enumeration
      // runs over the survivor schedule, capped at the survivor count —
      // with no failures both equal the full schedule, bit for bit.
      if (!recovered_this_iter && options.enable_osteal && n > 1 &&
          (prev_wall_ms < options.osteal.t3_trigger_ms ||
           group_size < n)) {
        GUM_TRACE_SCOPE("gum.osteal");
        const auto cost_full =
            BuildCostMatrix(features, remote_discount, ctx_->cost_model(),
                            plane, survivors);
        OStealDecision dec = DecideOSteal(cost_full, loads,
                                          survivor_schedule, p_estimate_ns,
                                          options.osteal,
                                          static_cast<int>(survivors.size()));
        stats.osteal_evaluated = true;
        stats.osteal_decision_host_ms = dec.decision_host_ms;
        result.osteal_decision_host_ms_total += dec.decision_host_ms;
        result.osteal_lp_iterations_total += dec.lp_iterations_total;
        result.osteal_milp_nodes_total += dec.milp_nodes_total;
        if (dec.group_size != group_size) {
          // Migrate residual frontier status from re-owned fragments.
          if (multipath) {
            // Bulk ownership migrations stripe across link-disjoint paths
            // and contend with each other as one settled batch.
            sim::TransferBatch migration;
            for (int i = 0; i < n; ++i) {
              if (dec.owner[i] != owner_of_fragment[i] &&
                  frontier.FragmentSize(i) > 0) {
                const double bytes =
                    static_cast<double>(frontier.FragmentSize(i)) *
                    dev.bytes_per_message;
                migration.AddBulk(owner_of_fragment[i], dec.owner[i], bytes,
                                  dec.owner[i]);
              }
            }
            if (!migration.empty()) {
              const sim::SettleResult settled = plane.Settle(migration);
              for (int d = 0; d < n; ++d) {
                if (settled.tag_comm_ns[d] > 0.0) {
                  result.timeline.Add(iter, d, sim::TimeCategory::kOverhead,
                                      settled.tag_comm_ns[d] / 1e6);
                }
              }
            }
          } else {
            for (int i = 0; i < n; ++i) {
              if (dec.owner[i] != owner_of_fragment[i] &&
                  frontier.FragmentSize(i) > 0) {
                const double bytes =
                    static_cast<double>(frontier.FragmentSize(i)) *
                    dev.bytes_per_message;
                const double ns = plane.PointToPointNs(
                    owner_of_fragment[i], dec.owner[i], bytes);
                result.timeline.Add(iter, dec.owner[i],
                                    sim::TimeCategory::kOverhead, ns / 1e6);
              }
            }
          }
          group_size = dec.group_size;
          owner_of_fragment = dec.owner;
          active = dec.active;
          stats.group_size_changed = true;
          ++result.osteal_shrink_events;
        }
        // Policy generation itself costs time on the coordinator and a
        // broadcast to every worker.
        const double osteal_sim_us = 12.0 + 4.0 * n;
        for (int d : active) {
          result.timeline.Add(iter, d, sim::TimeCategory::kOverhead,
                              osteal_sim_us / 1000.0);
        }
        result.osteal_sim_overhead_ms += osteal_sim_us / 1000.0;
      }
      stats.group_size = group_size;

      // --- Step 3: frontier stealing ---
      // Non-scatter modes take the identity plan: the linear-algebra
      // backend has no per-executor frontier ranges to steal (push runs
      // the identity plan, pull parallelizes over destinations).
      FStealDecision fs;
      if (expand_mode == ExpandMode::kScatter && options.enable_fsteal &&
          group_size > 1) {
        GUM_TRACE_SCOPE("gum.fsteal");
        const auto cost = BuildCostMatrix(features, remote_discount,
                                          ctx_->cost_model(), plane, active);
        fs = DecideFSteal(cost, loads, owner_of_fragment, active,
                          options.fsteal);
      } else {
        fs.assignment.assign(n, std::vector<double>(n, 0.0));
        for (int i = 0; i < n; ++i) {
          fs.assignment[i][owner_of_fragment[i]] = loads[i];
        }
      }
      stats.fsteal_applied = fs.applied;
      stats.fsteal_decision_host_ms = fs.decision_host_ms;
      stats.fsteal_plan_cells = fs.plan_cells;
      result.fsteal_decision_host_ms_total += fs.decision_host_ms;
      result.fsteal_lp_iterations_total += fs.lp_iterations;
      result.fsteal_milp_nodes_total += fs.milp_nodes;
      result.fsteal_plan_cells_total += fs.plan_cells;
      if (fs.applied) ++result.fsteal_applied_iterations;

      // --- Step 4: process the frontiers (pluggable expand backend) ---
      std::fill(apply_msgs.begin(), apply_msgs.end(), 0.0);
      {
        GUM_TRACE_SCOPE("gum.expand");
        switch (expand_mode) {
          case ExpandMode::kScatter:
            scatter_backend.Expand(pool, g, partition, &ctx_->hub_cache(),
                                   owner_of_fragment, active, fs, loads, app,
                                   values, frontier, shard_map, store,
                                   &expand_counters);
            break;
          case ExpandMode::kSpmvPush:
            spmv_backend.ExpandPush(pool, g, partition,
                                    owner_of_fragment, app, values, frontier,
                                    shard_map, store, &expand_counters);
            break;
          case ExpandMode::kSpmvPull:
            spmv_backend.UseSharedPullEdges(&ctx_->pull_edges());
            spmv_backend.ExpandPull(pool, g, partition,
                                    owner_of_fragment, app, values, frontier,
                                    shard_map, store, &expand_counters);
            break;
        }
      }
      const std::vector<std::vector<double>>& edges_done =
          expand_counters.edges_done;
      const std::vector<std::vector<double>>& hub_edges =
          expand_counters.hub_edges;
      const std::vector<std::vector<double>>& agg_msgs =
          expand_counters.agg_msgs;
      const std::vector<std::vector<double>>& raw_msgs =
          expand_counters.raw_msgs;
      const double stolen_edges_this_iter = expand_counters.stolen_edges;
      result.edges_processed += expand_counters.edges_processed;
      result.stolen_edges_total += stolen_edges_this_iter;
      stats.stolen_edges = stolen_edges_this_iter;

      // --- apply phase (end of superstep; next frontier) ---
      {
        GUM_TRACE_SCOPE("gum.apply");
        if (fixed_rounds >= 0) {
          // Stationary workload: the frontier is rebuilt from part_vertices
          // at the top of the next round, so no next-frontier is built.
          ApplySuperstep(pool, shard_map, partition, app, store,
                         values, /*fixed_rounds=*/true, &apply_scratch,
                         nullptr, &apply_msgs);
        } else {
          ApplySuperstep(pool, shard_map, partition, app, store,
                         values, /*fixed_rounds=*/false, &apply_scratch,
                         &next_frontier, &apply_msgs);
          std::swap(frontier, next_frontier);
        }
      }

      // --- time accounting ---
      // With multipath the census/aggregation sync follows a topology-aware
      // reduction tree over this iteration's active group (rebuilt per
      // iteration so link faults and group changes reshape it), and the
      // FSteal fragment payloads are bulk-hinted for striping.
      sim::ReductionTree census_tree;
      if (multipath) census_tree = plane.BuildCensusTree(active);
      const TimeAccountingSummary acct = [&] {
        GUM_TRACE_SCOPE("gum.account");
        return AccountSuperstepTime(
            iter, plane, dev, p_ns, options.enable_message_aggregation,
            features, edges_done, hub_edges, agg_msgs, raw_msgs, apply_msgs,
            owner_of_fragment, active, fs, stolen_edges_this_iter, &result,
            multipath ? &census_tree : nullptr, multipath);
      }();

      // --- fault plane: straggler slowdown ---
      // A straggler's kernels run `factor`x slower this iteration; charge
      // the extra compute on whatever the accounting layer charged it
      // (including stolen work it executed).
      if (faults != nullptr) {
        for (const int d : active) {
          const double slow = faults->ComputeSlowdown(d, iter);
          if (slow > 1.0) {
            const double extra =
                (slow - 1.0) *
                result.timeline.Get(iter, d, sim::TimeCategory::kCompute);
            if (extra > 0.0) {
              result.timeline.Add(iter, d, sim::TimeCategory::kCompute,
                                  extra);
              facct.straggler_ms += extra;
            }
          }
        }
      }

      // Refresh the p estimate from this iteration's observed barrier cost:
      // average per-device overhead minus the kernel-launch time actually
      // charged by the accounting layer, divided by the group size.
      if (options.estimate_sync_online && !active.empty()) {
        double overhead_sum = 0;
        for (const int d : active) {
          overhead_sum +=
              result.timeline.Get(iter, d, sim::TimeCategory::kOverhead);
        }
        const double per_device_ns =
            (overhead_sum * 1e6 - acct.kernel_launch_ns_total) /
            active.size();
        const double observed_p =
            std::max(0.0, per_device_ns / active.size());
        p_estimate_ns = (1.0 - options.sync_ewma_alpha) * p_estimate_ns +
                        options.sync_ewma_alpha * observed_p;
      }

      // --- fault plane: periodic checkpoint ---
      // Each active owner writes its fragments' state to host storage over
      // PCIe; the write is charged inside this iteration's wall (and is
      // therefore part of its own snapshot's accounted past).
      const bool checkpoint_due =
          ckpt_every > 0 && (iter + 1) % ckpt_every == 0;
      if (checkpoint_due) {
        GUM_TRACE_SCOPE("fault.checkpoint");
        double slowest_ms = 0.0;
        for (const int d : active) {
          double dev_bytes = 0.0;
          for (int i = 0; i < n; ++i) {
            if (owner_of_fragment[i] == d) dev_bytes += fragment_state_bytes(i);
          }
          // With multipath the write-back stripes across the device's own
          // PCIe host lane plus an NVLink relay through its fastest peer.
          const double ms =
              multipath
                  ? dev_bytes / plane.CheckpointWritebackGbps(d) / 1e6
                  : fault::CheckpointTransferMs(dev_bytes);
          result.timeline.Add(iter, d, sim::TimeCategory::kOverhead, ms);
          facct.checkpoint_bytes_total += dev_bytes;
          slowest_ms = std::max(slowest_ms, ms);
        }
        ++facct.checkpoints_taken;
        facct.checkpoint_ms_total += slowest_ms;
        obs::TraceInstant("fault.checkpoint");
      }

      const double wall = result.timeline.IterationWall(iter);
      result.total_ms += wall;
      stats.wall_ms = wall;
      stats.device_busy_ms.resize(n);
      for (int d = 0; d < n; ++d) {
        stats.device_busy_ms[d] = result.timeline.DeviceIterationTotal(iter, d);
      }
      if (options.record_iteration_stats) {
        result.iteration_stats.push_back(std::move(stats));
      }
      if (obs::MetricsEnabled()) {
        auto& reg = obs::MetricsRegistry::Global();
        reg.GetCounter("gum_iterations_total").Increment();
        if (fs.applied) reg.GetCounter("gum_fsteal_applied_total").Increment();
        if (stats.osteal_evaluated) {
          reg.GetCounter("gum_osteal_evaluations_total").Increment();
        }
        reg.GetHistogram("gum_fsteal_decision_us")
            .Observe(static_cast<uint64_t>(fs.decision_host_ms * 1000.0));
        reg.GetHistogram("gum_iteration_frontier_vertices")
            .Observe(static_cast<uint64_t>(total_frontier));
        reg.GetGauge("gum_group_size").Set(group_size);
        reg.GetGauge("gum_expand_backend").Set(static_cast<int>(expand_mode));
        reg.GetCounter("gum_expand_iterations_total",
                       {{"backend", ExpandModeName(expand_mode)}})
            .Increment();
        // Serving-mode memory residency: the high-water arenas this
        // RunContext keeps across iterations and queries.
        reg.GetGauge("gum_frontier_arena_bytes")
            .Set(static_cast<double>(rc.FrontierArenaBytes()));
        reg.GetGauge("gum_staging_bytes")
            .Set(static_cast<double>(rc.StagingBytes()));
      }
      prev_wall_ms = wall;
      result.iterations = iter + 1;
      // Snapshot after the wall is in total_ms, so a restore resumes with
      // exactly the accounted past of this barrier. Without a fault plan
      // the snapshot is never read; only the charge above matters.
      if (checkpoint_due && faults != nullptr) take_checkpoint(iter + 1);
    }

    // Fold the monotonic fault accounting into the result.
    result.fault_plan_active = faults != nullptr;
    result.checkpoints_taken = facct.checkpoints_taken;
    result.checkpoint_bytes_total = facct.checkpoint_bytes_total;
    result.checkpoint_ms_total = facct.checkpoint_ms_total;
    result.devices_failed = facct.devices_failed;
    result.recovery_events = facct.recovery_events;
    result.fragments_migrated = facct.fragments_migrated;
    result.recovery_detect_ms = facct.recovery_detect_ms;
    result.recovery_restore_ms = facct.recovery_restore_ms;
    result.recovery_migrate_ms = facct.recovery_migrate_ms;
    result.lost_work_ms = facct.lost_work_ms;
    result.straggler_ms = facct.straggler_ms;
    result.link_fault_iterations = facct.link_fault_iterations;
    if (faults != nullptr) plane.ClearLinkFaults();

    result.link_bytes = plane.link_bytes();
    result.payload_bytes = plane.payload_bytes();
    result.link_busy_ms = plane.link_busy_ms();
    result.multipath_active = multipath;
    result.multipath = plane.multipath_stats();

    if (values_out != nullptr) *values_out = std::move(values);
    return result;
  }

 private:
  static std::vector<int> AllDevices(int n) {
    std::vector<int> all(n);
    for (int i = 0; i < n; ++i) all[i] = i;
    return all;
  }

  std::unique_ptr<GraphContext> owned_ctx_;
  const GraphContext* ctx_;
};

}  // namespace gum::core

#endif  // GUM_CORE_ENGINE_H_
