// The GUM multi-GPU graph processing engine (paper §V).
//
// BSP execution with remote work stealing. Per iteration (paper Example 4):
//   Step 1  generate frontiers (the previous Step 4 applied its messages
//           and built them) and take the workload census;
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
//                            shard map, thread pool, shared PullEdges,
//                            the stationary census)
//   core/run_context.h     — the per-query mutable state (values, frontier,
//                            message store, expand backend and its arenas)
//   core/census.h          — the Step-1 workload census
//   core/expand/           — Step 4: per-executor work units scattered on
//                            a host ThreadPool, then merged and applied per
//                            destination shard, or the destination gather;
//                            both apply in place and build the next
//                            frontier
//   core/message_store.h   — the push's deterministic inbox + per-worker
//                            staging, replayed per destination shard
//   core/time_accounting.h — the analytic device-time models
// Results are bit-identical for every num_host_threads setting; see
// DESIGN.md, "Determinism contract".
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
//   };
//
// Step 4 scatters or gathers (core/expand/; EngineOptions::expand_backend
// and the per-iteration density rule pick the direction). Vertex values
// are byte-identical either way.
//
// This is the one BSP superstep loop over Scatter/Combine/Apply apps; the
// Gunrock comparator is a preset of it (baselines/gunrock.h), and the time
// model (EngineOptions::time_model) is the loop's one policy hook.

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
#include "core/census.h"
#include "core/edge_cost_model.h"
#include "core/engine_options.h"
#include "core/expand/expand_backend.h"
#include "core/expand/frontier_scatter.h"
#include "core/graph_context.h"
#include "core/hub_cache.h"
#include "core/message_store.h"
#include "core/run_context.h"
#include "core/run_result.h"
#include "core/time_accounting.h"
#include "core/vertex_state.h"
#include "fault/checkpoint.h"
#include "fault/fault_plane.h"
#include "fault/recovery.h"
#include "graph/csr.h"
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
  // selects the exact oracle.
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
  // run only. It may change run-scoped knobs (fault plane, checkpoint
  // config, steal switches, max_iterations, expand backend,
  // record_iteration_stats) but must keep the geometry-defining fields the
  // context was built from (device, threads, hub cache, topology).
  RunResult Run(App& app, RunContext<App>& rc,
                std::vector<Value>* values_out = nullptr,
                const EngineOptions* run_options = nullptr) {
    const EngineOptions& options =
        run_options != nullptr ? *run_options : ctx_->options();
    GUM_CHECK_OK(ValidateRunOptions(options, ctx_->partition().num_parts,
                                    app.fixed_rounds() >= 0,
                                    AsyncCapable<App>));
    // Async mode routes the whole run through the priority-worklist driver
    // (core/async/async_engine.h); BSP mode runs the superstep loop.
    if constexpr (AsyncCapable<App>) {
      if (options.mode == EngineMode::kAsync) {
        RunResult result =
            AsyncDriver<App>(ctx_).Run(app, rc, values_out, options);
        result.async_active = true;
        return result;
      }
    }
    return BspRun(*ctx_, options, app, rc).Run(values_out);
  }

 private:
  // One BSP run. Its members are the loop state; its private member
  // functions are the phases of a superstep, which Run calls in order
  // (docs/architecture.md).
  class BspRun {
   public:
    BspRun(const GraphContext& ctx, const EngineOptions& options, App& app,
           RunContext<App>& rc)
        : ctx_(ctx),
          options_(options),
          app_(app),
          rc_(rc),
          g_(ctx.graph()),
          partition_(ctx.partition()),
          n_(partition_.num_parts),
          fixed_rounds_(app.fixed_rounds()),
          // Multi-path plans only compose with the fair model: kOff is the
          // bit-compatible legacy conversion, so striping stays disabled
          // there and contention=off runs are byte-identical regardless of
          // the knob.
          multipath_(options.multipath == sim::MultipathMode::kOn &&
                     options.contention == sim::ContentionModel::kFair),
          // With no plane (or an empty plan) every fault guard is dead and
          // the run is bit-identical to a fault-free build (DESIGN.md §11).
          faults_(options.fault_plane != nullptr &&
                          options.fault_plane->active()
                      ? options.fault_plane
                      : nullptr),
          // Every transfer of the run is charged and recorded through this
          // plane; its telemetry is exported into the result after the
          // last iteration.
          plane_(ctx.topology(), options.contention, options.route),
          // Eq. (4)'s p is estimated online from observed iterations (paper
          // §IV-A: "a parameter that can be estimated during previous
          // iterations"); the first iteration never triggers OSteal.
          group_{.owner_of_fragment = AllDevices(n_),
                 .active = AllDevices(n_),
                 .p_estimate_ns = (options.estimate_sync_online
                                       ? options.sync_prior_us
                                       : options.device.sync_per_peer_us) *
                                  1000.0,
                 .prev_wall_ms = 1e18},
          failed_(n_, false),
          survivors_(AllDevices(n_)),
          survivor_schedule_(ctx.schedule()) {
      plane_.set_multipath(multipath_);
      result_.timeline = sim::Timeline(n_);
      const VertexId num_v = g_.num_vertices();
      // SoA vertex state: dense value array + fragment-major frontier
      // arena (core/vertex_state.h), ascending within each fragment.
      rc_.state.values.resize(num_v);
      for (VertexId v = 0; v < num_v; ++v) {
        rc_.state.values[v] = app_.InitValue(v);
      }
      rc_.state.frontier.BuildByOwner(
          num_v, partition_.owner, n_,
          [this](VertexId v) { return app_.IsInitiallyActive(v); });
      // Only push supersteps touch the store, and a stationary superstep
      // always gathers, so a fixed-round run leaves it unallocated.
      if (!stationary()) rc_.store.Reset(num_v);
      rc_.apply_msgs.assign(n_, 0.0);
      rc_.scatter_backend.ResetNextFrontier(n_);
    }

    RunResult Run(std::vector<Value>* values_out) {
      const int ckpt_every = options_.checkpoint.every;
      if (faults_ != nullptr) TakeCheckpoint(0);
      for (int iter = 0; iter < options_.max_iterations; ++iter) {
        if (faults_ != nullptr) iter = Barrier(iter);
        if (stationary()) {
          if (iter >= fixed_rounds_) break;
          // Every inner vertex is active each round.
          rc_.state.frontier.Assign(partition_.part_vertices);
        }
        const FrontierCensus& census = Census();
        if (!stationary() && census.total_frontier == 0) break;
        IterationStats stats;
        stats.iteration = iter;
        stats.fragment_load = census.loads;
        // Per-iteration expand-mode decision (DESIGN.md §12): depends only
        // on the census loads and the constant edge count, so it is
        // deterministic for every thread count.
        const ExpandMode mode =
            SelectExpandMode(options_.expand_backend, census.total_load,
                             static_cast<double>(g_.num_edges()));
        if (recovery_pending_) {
          Recover(iter, census, stats);
        } else {
          OSteal(iter, census, stats);
        }
        stats.group_size = static_cast<int>(group_.active.size());
        const FStealDecision fs = FSteal(mode, census, stats);
        Expand(mode, fs, census, stats);
        const double kernel_launch_ns = Account(iter, census, fs);
        if (faults_ != nullptr) ChargeStragglers(iter);
        EstimateP(iter, kernel_launch_ns);
        const bool checkpoint_due =
            ckpt_every > 0 && (iter + 1) % ckpt_every == 0;
        if (checkpoint_due) ChargeCheckpoint(iter);
        Record(iter, mode, fs, census.total_frontier, stats);
        // Snapshot after the wall is in total_ms, so a restore resumes
        // with exactly the accounted past of this barrier. Without a fault
        // plan the snapshot is never read; only the charge above matters.
        if (checkpoint_due && faults_ != nullptr) TakeCheckpoint(iter + 1);
      }
      return Finish(values_out);
    }

   private:
    bool stationary() const { return fixed_rounds_ >= 0; }

    // Snapshots everything the loop needs to re-enter at `next_iter`. The
    // initial snapshot is free (state is still host-resident); periodic
    // ones charge their owners a PCIe read-back before being taken.
    void TakeCheckpoint(int next_iter) {
      ckpt_.iteration = next_iter;
      ckpt_.state = rc_.state;
      ckpt_.group = group_;
      ckpt_.result = result_;
      ckpt_.comm = plane_.SnapshotTelemetry();
    }

    // The superstep barrier: fail-stop detection, rollback, and the link-
    // fault overlay. Returns the iteration to run, rewound on rollback.
    int Barrier(int iter) {
      std::vector<int> newly;
      for (const int d : faults_->FailuresAt(iter)) {
        // Replay re-crosses the failure iteration; already-dead devices
        // never re-trigger.
        if (!failed_[d]) newly.push_back(d);
      }
      if (!newly.empty()) {
        obs::TraceInstant("fault.failstop");
        for (const int d : newly) failed_[d] = true;
        survivors_.clear();
        std::vector<int> failed_list;
        for (int i = 0; i < n_; ++i) {
          (failed_[i] ? failed_list : survivors_).push_back(i);
        }
        GUM_CHECK(!survivors_.empty()) << "fault plan killed every device";
        survivor_schedule_ = sim::ReductionSchedule::BuildWithForbidden(
            ctx_.topology(), failed_list);
        // State is lost only if a dead device owned fragments or worked in
        // the group; a device OSteal already evicted takes nothing with
        // it, so the run continues from live state.
        bool state_lost = false;
        for (const int d : newly) {
          state_lost = state_lost ||
                       std::ranges::count(group_.owner_of_fragment, d) > 0 ||
                       std::ranges::count(group_.active, d) > 0;
        }
        result_.faults.devices_failed += static_cast<int>(newly.size());
        if (state_lost) {
          iter = Rollback();
        } else {
          // Nothing rolls back: charge the barrier timeout and continue
          // with the shrunk candidate set.
          for (const int d : survivors_) {
            result_.timeline.Add(iter, d, sim::TimeCategory::kOverhead,
                                 fault::kDetectTimeoutMs);
          }
          result_.faults.recovery_detect_ms += fault::kDetectTimeoutMs;
          ++result_.faults.recovery_events;
        }
      }
      plane_.ClearLinkFaults();
      const auto link_faults = faults_->LinkFaultsAt(iter);
      for (const auto& lf : link_faults) {
        plane_.SetLinkScale(lf.a, lf.b, lf.scale);
      }
      if (!link_faults.empty()) ++result_.faults.link_fault_iterations;
      return iter;
    }

    // Restores the last checkpoint and returns its resume iteration.
    // Everything charged since (including the lost iterations' walls)
    // becomes lost work, re-charged at the recovery barrier. The fault
    // counters count every event of the run, so they survive.
    int Rollback() {
      pending_lost_ms_ = result_.total_ms - ckpt_.result.total_ms;
      rc_.state = ckpt_.state;
      group_ = ckpt_.group;
      const FaultStats faults = result_.faults;
      result_ = ckpt_.result;
      result_.faults = faults;
      plane_.RestoreTelemetry(ckpt_.comm);
      recovery_pending_ = true;
      return ckpt_.iteration;
    }

    // Step 1: the workload census. A stationary superstep's census depends
    // only on the context, which takes it once; a data-driven one re-takes
    // it for this frontier.
    const FrontierCensus& Census() {
      GUM_TRACE_SCOPE("gum.census");
      if (stationary()) return ctx_.stationary_census();
      dynamic_census_.Take(g_, ctx_.hub_cache(), rc_.state.frontier);
      return dynamic_census_;
    }

    // Fault recovery at the first barrier after a rollback: drives the
    // OSteal enumeration over the survivor schedule (dead columns
    // forbidden), then charges detection, checkpoint read-back, migration,
    // and the rolled-back work at this barrier.
    void Recover(int iter, const FrontierCensus& census,
                 IterationStats& stats) {
      recovery_pending_ = false;
      GUM_TRACE_SCOPE("fault.recover");
      const auto cost =
          BuildCostMatrix(census.features, census.remote_discount,
                          ctx_.cost_model(), plane_, survivors_);
      OStealDecision dec = fault::RebuildOwnership(
          cost, census.loads, survivor_schedule_, group_.p_estimate_ns,
          static_cast<int>(survivors_.size()), options_.enable_osteal);
      stats.osteal_evaluated = options_.enable_osteal;
      std::vector<double> frag_bytes(n_);
      for (int i = 0; i < n_; ++i) frag_bytes[i] = FragmentStateBytes(i);
      const fault::RecoveryCharge charge = fault::ComputeRecoveryCharge(
          group_.owner_of_fragment, dec.owner, failed_, frag_bytes,
          multipath_ ? &plane_ : nullptr);
      AdoptOSteal(std::move(dec), /*always=*/true, stats);
      for (const int d : survivors_) {
        result_.timeline.Add(iter, d, sim::TimeCategory::kOverhead,
                             charge.per_device_ms[d] + pending_lost_ms_);
      }
      FaultStats& faults = result_.faults;
      faults.recovery_detect_ms += charge.detect_ms;
      faults.recovery_restore_ms += charge.restore_ms;
      faults.recovery_migrate_ms += charge.migrate_ms;
      faults.lost_work_ms += pending_lost_ms_;
      faults.fragments_migrated += charge.fragments_migrated;
      ++faults.recovery_events;
      pending_lost_ms_ = 0.0;
      obs::TraceInstant("fault.recover");
      if (obs::MetricsEnabled()) {
        auto& reg = obs::MetricsRegistry::Global();
        reg.GetCounter("gum_fault_recoveries_total").Increment();
        reg.GetCounter("gum_fault_fragments_migrated_total")
            .Increment(charge.fragments_migrated);
      }
    }

    // Step 2: ownership stealing. Evaluated when the previous iteration
    // was latency-bound, or whenever the group is already shrunk (so it can
    // grow back as the workload recovers, paper §IV-B). After a fail-stop
    // the enumeration runs over the survivor schedule, capped at the
    // survivor count — with no failures both equal the full schedule, bit
    // for bit.
    void OSteal(int iter, const FrontierCensus& census,
                IterationStats& stats) {
      const int group_size = static_cast<int>(group_.active.size());
      if (!options_.enable_osteal || n_ <= 1 ||
          !(group_.prev_wall_ms < options_.osteal.t3_trigger_ms ||
            group_size < n_)) {
        return;
      }
      GUM_TRACE_SCOPE("gum.osteal");
      const auto cost =
          BuildCostMatrix(census.features, census.remote_discount,
                          ctx_.cost_model(), plane_, survivors_);
      OStealDecision dec = DecideOSteal(
          cost, census.loads, survivor_schedule_, group_.p_estimate_ns,
          static_cast<int>(survivors_.size()));
      stats.osteal_evaluated = true;
      if (dec.group_size != group_size) ChargeMigration(iter, dec.owner);
      AdoptOSteal(std::move(dec), /*always=*/false, stats);
      // Policy generation itself costs time on the coordinator and a
      // broadcast to every worker.
      const double osteal_sim_us = 12.0 + 4.0 * n_;
      for (const int d : group_.active) {
        result_.timeline.Add(iter, d, sim::TimeCategory::kOverhead,
                             osteal_sim_us / 1000.0);
      }
      result_.osteal_sim_overhead_ms += osteal_sim_us / 1000.0;
    }

    // Migrates the residual frontier status of every fragment `owner`
    // re-owns to its new owner. With multipath the migrations stripe
    // across link-disjoint paths and contend as one settled batch.
    void ChargeMigration(int iter, const std::vector<int>& owner) {
      sim::TransferBatch migration;
      for (int i = 0; i < n_; ++i) {
        const int from = group_.owner_of_fragment[i];
        const size_t frontier = rc_.state.frontier.FragmentSize(i);
        if (owner[i] == from || frontier == 0) continue;
        const double bytes = static_cast<double>(frontier) *
                             sim::kBytesPerMessage;
        if (multipath_) {
          migration.AddBulk(from, owner[i], bytes, owner[i]);
        } else {
          result_.timeline.Add(iter, owner[i], sim::TimeCategory::kOverhead,
                               plane_.PointToPointNs(from, owner[i], bytes) /
                                   1e6);
        }
      }
      if (migration.empty()) return;
      const sim::SettleResult settled = plane_.Settle(migration);
      for (int d = 0; d < n_; ++d) {
        if (settled.tag_comm_ns[d] > 0.0) {
          result_.timeline.Add(iter, d, sim::TimeCategory::kOverhead,
                               settled.tag_comm_ns[d] / 1e6);
        }
      }
    }

    // Folds an OSteal decision's solver effort into the run and counts a
    // group-size change. Adopts the decision's ownership when the size
    // changes, or always when `always` (recovery rebuilds ownership over
    // the survivors even at an unchanged size).
    void AdoptOSteal(OStealDecision&& dec, bool always,
                     IterationStats& stats) {
      stats.osteal_decision_host_ms = dec.decision_host_ms;
      result_.osteal_decision_host_ms_total += dec.decision_host_ms;
      result_.osteal_lp_iterations_total += dec.lp_iterations_total;
      result_.osteal_milp_nodes_total += dec.milp_nodes_total;
      const bool changed =
          dec.group_size != static_cast<int>(group_.active.size());
      if (changed) {
        stats.group_size_changed = true;
        ++result_.osteal_shrink_events;
      }
      if (changed || always) {
        group_.owner_of_fragment = std::move(dec.owner);
        group_.active = std::move(dec.active);
      }
    }

    // Step 3: frontier stealing. Non-scatter modes keep each fragment with
    // its owner (an unapplied decision): the linear-algebra backend has no
    // per-executor frontier ranges to steal (push runs the identity plan,
    // pull parallelizes over destinations).
    FStealDecision FSteal(ExpandMode mode, const FrontierCensus& census,
                          IterationStats& stats) {
      FStealDecision fs;
      if (mode == ExpandMode::kScatter && options_.enable_fsteal &&
          group_.active.size() > 1) {
        GUM_TRACE_SCOPE("gum.fsteal");
        const auto cost =
            BuildCostMatrix(census.features, census.remote_discount,
                            ctx_.cost_model(), plane_, group_.active);
        fs = DecideFSteal(cost, census.loads, group_.owner_of_fragment,
                          group_.active, options_.fsteal);
      }
      stats.fsteal_applied = fs.applied;
      stats.fsteal_decision_host_ms = fs.decision_host_ms;
      stats.fsteal_plan_cells = fs.plan_cells;
      result_.fsteal_decision_host_ms_total += fs.decision_host_ms;
      result_.fsteal_lp_iterations_total += fs.lp_iterations;
      result_.fsteal_milp_nodes_total += fs.milp_nodes;
      result_.fsteal_plan_cells_total += fs.plan_cells;
      if (fs.applied) ++result_.fsteal_applied_iterations;
      return fs;
    }

    // Step 4: process the frontiers on the mode's expand backend, which
    // applies in place and leaves the next frontier and apply_msgs set
    // (DESIGN.md §7, §12); the SpMSpV push is the scatter pipeline over the
    // identity plan, without the hub cache.
    void Expand(ExpandMode mode, const FStealDecision& fs,
                const FrontierCensus& census, IterationStats& stats) {
      ThreadPool* pool = ctx_.pool();
      const std::vector<int>& owner = group_.owner_of_fragment;
      auto& values = rc_.state.values;
      ExpandCounters& counters = rc_.expand_counters;
      const HubCache* hub_cache =
          mode == ExpandMode::kSpmvPush ? nullptr : &ctx_.hub_cache();
      {
        GUM_TRACE_SCOPE("gum.expand");
        // Stationary supersteps and dense pulls gather; the rest push.
        if (stationary() || mode == ExpandMode::kSpmvPull) {
          rc_.scatter_backend.Gather(
              pool, g_, partition_, hub_cache, owner, group_.active, fs,
              census, ctx_.pull_edges(),
              mode == ExpandMode::kSpmvPull ? GatherCharge::kRemoteGathers
                                            : GatherCharge::kMessages,
              stationary() ? GatherSources::kEveryVertex
                           : GatherSources::kFrontier,
              app_, values, &rc_.state.frontier, &rc_.apply_msgs,
              &counters);
        } else {
          rc_.scatter_backend.Expand(
              pool, g_, partition_, hub_cache, owner, group_.active, fs,
              census, app_, values, &rc_.state.frontier, ctx_.shard_map(),
              rc_.store, &rc_.apply_msgs, &counters);
        }
      }
      result_.edges_processed += counters.edges_processed;
      result_.stolen_edges_total += counters.stolen_edges;
      stats.stolen_edges = counters.stolen_edges;
    }

    // Time accounting under the run's time model. With multipath the
    // census/aggregation sync follows a topology-aware reduction tree over
    // this iteration's active group (rebuilt per iteration so link faults
    // and group changes reshape it), and the FSteal fragment payloads are
    // bulk-hinted for striping. The Gunrock model prices this superstep's
    // census, taken before apply. Returns the kernel-launch time charged,
    // in ns.
    double Account(int iter, const FrontierCensus& census,
                   const FStealDecision& fs) {
      sim::ReductionTree census_tree;
      if (multipath_) census_tree = plane_.BuildCensusTree(group_.active);
      GUM_TRACE_SCOPE("gum.account");
      if (options_.time_model == TimeModel::kGunrock) {
        return AccountGunrockSuperstepTime(
            iter, plane_, options_.device,
            options_.gunrock_single_gpu_compute_factor, census,
            rc_.expand_counters, &result_);
      }
      return AccountSuperstepTime(
          iter, plane_, options_.device, options_.enable_message_aggregation,
          census, rc_.expand_counters, rc_.apply_msgs,
          group_.owner_of_fragment, group_.active, fs, &result_,
          multipath_ ? &census_tree : nullptr);
    }

    // A straggler's kernels run `factor`x slower this iteration; charge
    // the extra compute on whatever the accounting layer charged it
    // (including stolen work it executed).
    void ChargeStragglers(int iter) {
      for (const int d : group_.active) {
        const double slow = faults_->ComputeSlowdown(d, iter);
        if (slow <= 1.0) continue;
        const double extra =
            (slow - 1.0) *
            result_.timeline.Get(iter, d, sim::TimeCategory::kCompute);
        if (extra > 0.0) {
          result_.timeline.Add(iter, d, sim::TimeCategory::kCompute, extra);
          result_.faults.straggler_ms += extra;
        }
      }
    }

    // Refreshes the p estimate from this iteration's observed barrier
    // cost: average per-device overhead minus the kernel-launch time
    // actually charged by the accounting layer, divided by the group size.
    void EstimateP(int iter, double kernel_launch_ns) {
      // EWMA weight of the newest observation.
      constexpr double kSyncEwmaAlpha = 0.2;
      const std::vector<int>& active = group_.active;
      if (!options_.estimate_sync_online || active.empty()) return;
      double overhead_sum = 0;
      for (const int d : active) {
        overhead_sum +=
            result_.timeline.Get(iter, d, sim::TimeCategory::kOverhead);
      }
      const double per_device_ns =
          (overhead_sum * 1e6 - kernel_launch_ns) / active.size();
      const double observed_p = std::max(0.0, per_device_ns / active.size());
      group_.p_estimate_ns = (1.0 - kSyncEwmaAlpha) * group_.p_estimate_ns +
                             kSyncEwmaAlpha * observed_p;
    }

    // The periodic checkpoint's charge: each active owner writes its
    // fragments' state to host storage over PCIe inside this iteration's
    // wall (and therefore inside its own snapshot's accounted past).
    void ChargeCheckpoint(int iter) {
      GUM_TRACE_SCOPE("fault.checkpoint");
      double slowest_ms = 0.0;
      for (const int d : group_.active) {
        double dev_bytes = 0.0;
        for (int i = 0; i < n_; ++i) {
          if (group_.owner_of_fragment[i] == d) {
            dev_bytes += FragmentStateBytes(i);
          }
        }
        // With multipath the write-back stripes across the device's own
        // PCIe host lane plus an NVLink relay through its fastest peer.
        const double ms =
            multipath_ ? dev_bytes / plane_.CheckpointWritebackGbps(d) / 1e6
                       : fault::CheckpointTransferMs(dev_bytes);
        result_.timeline.Add(iter, d, sim::TimeCategory::kOverhead, ms);
        result_.faults.checkpoint_bytes_total += dev_bytes;
        slowest_ms = std::max(slowest_ms, ms);
      }
      ++result_.faults.checkpoints_taken;
      result_.faults.checkpoint_ms_total += slowest_ms;
      obs::TraceInstant("fault.checkpoint");
    }

    // Closes the superstep: its wall, its stats and its metrics.
    void Record(int iter, ExpandMode mode, const FStealDecision& fs,
                size_t total_frontier, IterationStats& stats) {
      const double wall = result_.timeline.IterationWall(iter);
      result_.total_ms += wall;
      stats.wall_ms = wall;
      stats.device_busy_ms.resize(n_);
      for (int d = 0; d < n_; ++d) {
        stats.device_busy_ms[d] =
            result_.timeline.DeviceIterationTotal(iter, d);
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
        reg.GetGauge("gum_group_size").Set(stats.group_size);
        reg.GetGauge("gum_expand_backend").Set(static_cast<int>(mode));
        reg.GetCounter("gum_expand_iterations_total",
                       {{"backend", ExpandModeName(mode)}})
            .Increment();
        // Serving-mode memory residency: the high-water arenas this
        // RunContext keeps across iterations and queries.
        reg.GetGauge("gum_frontier_arena_bytes")
            .Set(static_cast<double>(rc_.FrontierArenaBytes()));
        reg.GetGauge("gum_staging_bytes")
            .Set(static_cast<double>(rc_.StagingBytes()));
      }
      if (options_.record_iteration_stats) {
        result_.iteration_stats.push_back(std::move(stats));
      }
      group_.prev_wall_ms = wall;
      result_.iterations = iter + 1;
    }

    // Exports the plane's telemetry and the values.
    RunResult Finish(std::vector<Value>* values_out) {
      result_.fault_plan_active = faults_ != nullptr;
      if (faults_ != nullptr) plane_.ClearLinkFaults();
      result_.link_bytes = plane_.link_bytes();
      result_.payload_bytes = plane_.payload_bytes();
      result_.link_busy_ms = plane_.link_busy_ms();
      result_.multipath_active = multipath_;
      result_.multipath = plane_.multipath_stats();
      if (values_out != nullptr) *values_out = std::move(rc_.state.values);
      return std::move(result_);
    }

    // Bytes a device moves to snapshot or restore fragment i.
    double FragmentStateBytes(int i) const {
      return fault::FragmentStateBytes(partition_.part_vertices[i].size(),
                                       rc_.state.frontier.FragmentSize(i),
                                       sizeof(Value));
    }

    const GraphContext& ctx_;
    const EngineOptions& options_;
    App& app_;
    RunContext<App>& rc_;
    const graph::CsrGraph& g_;
    const graph::Partition& partition_;
    const int n_;
    const int fixed_rounds_;  // -1: data-driven
    const bool multipath_;
    const fault::FaultPlane* const faults_;  // null: no fault plane

    RunResult result_;
    sim::CommPlane plane_;
    GroupState group_;
    FrontierCensus dynamic_census_;
    // --- fault plane state (DESIGN.md §11) ---
    std::vector<bool> failed_;
    std::vector<int> survivors_;
    sim::ReductionSchedule survivor_schedule_;
    fault::Checkpoint<Value> ckpt_;
    bool recovery_pending_ = false;
    double pending_lost_ms_ = 0.0;
  };

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
