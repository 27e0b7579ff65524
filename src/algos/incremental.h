// Incremental recompute over the mutation plane (DESIGN.md §14).
//
// After an epoch's mutation batch, the previous converged values are a
// warm starting point: for the monotone min-combine apps (BFS, SSSP, WCC)
// every value only ever tightens, so resuming from the warm values with a
// frontier re-seeded from mutation-affected vertices converges to the
// *same unique fixed point* a full recompute reaches — byte for byte,
// because both computations take the min over the identical set of
// left-to-right path sums. Deletions can break that argument (a removed
// edge may have been the tight support of its head's value), so each
// epoch is planned first:
//
//   kSkip        — no effective events: values are already the epoch's
//                  fixed point; no engine run at all.
//   kIncremental — warm start is provably sound; run with the affected
//                  seed frontier.
//   kFallback    — monotonicity lost: restore the epoch-0 vertex state
//                  (InitValue state is graph-free, so the restore point
//                  stays valid for every epoch) and replay forward on the
//                  mutated graph. The restore read-back is charged like
//                  any checkpoint restore (fault/checkpoint.h).
//
// Soundness rules per app:
//   BFS/SSSP — insert (u,v): seed u when u is reached (activation then
//     cascades, so batch-internal chains resolve). delete (u,v,w): safe
//     iff NOT tight, i.e. warm[u] reached implies warm[u] + w != warm[v];
//     a tight delete forces kFallback. A slack edge supports no shortest
//     path (any path through it is strictly beaten by routing optimally
//     to v), so removing it leaves the fixed point untouched.
//   WCC — inserts seed both endpoints (labels only ever shrink); any
//     effective delete may split a component, kFallback.
//   PR  — fixed-round power iteration from warm values computes a
//     different sequence than from InitValue, so *any* effective event
//     forces kFallback; only empty batches skip.
//
// IncrementalApp<App> is the engine-facing wrapper: it forwards the whole
// App concept but redirects InitValue to the warm values and
// IsInitiallyActive to the seed bitmap — the engine re-derives its state
// from the app each run, so warm-starting needs zero engine changes.

#ifndef GUM_ALGOS_INCREMENTAL_H_
#define GUM_ALGOS_INCREMENTAL_H_

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "algos/apps.h"
#include "common/bitmap.h"
#include "core/engine.h"
#include "core/graph_context.h"
#include "core/run_context.h"
#include "core/vertex_state.h"
#include "fault/checkpoint.h"
#include "graph/mutation.h"

namespace gum::algos {

template <typename App>
struct IncrementalApp {
  using Value = typename App::Value;
  using Message = typename App::Message;

  App* inner = nullptr;
  const std::vector<Value>* warm = nullptr;
  const Bitmap* seeds = nullptr;

  std::string name() const { return inner->name() + "+inc"; }
  int fixed_rounds() const { return inner->fixed_rounds(); }
  Value InitValue(VertexId v) const { return (*warm)[v]; }
  bool IsInitiallyActive(VertexId v) const { return seeds->Test(v); }
  Message InitialAccumulator() const { return inner->InitialAccumulator(); }
  Message OnFrontier(VertexId v, Value& val, uint32_t out_degree) {
    return inner->OnFrontier(v, val, out_degree);
  }
  std::optional<Message> Scatter(const Message& payload, VertexId dst,
                                 float weight) const {
    return inner->Scatter(payload, dst, weight);
  }
  Message Combine(const Message& a, const Message& b) const {
    return inner->Combine(a, b);
  }
  bool Apply(VertexId v, Value& val, const Message& msg) const {
    return inner->Apply(v, val, msg);
  }
};

enum class EpochPlanKind { kSkip, kIncremental, kFallback };

inline const char* EpochPlanKindName(EpochPlanKind kind) {
  switch (kind) {
    case EpochPlanKind::kSkip:
      return "skip";
    case EpochPlanKind::kIncremental:
      return "incremental";
    case EpochPlanKind::kFallback:
      return "fallback";
  }
  return "unknown";
}

// The per-epoch soundness decision plus, for kIncremental, the affected
// seed frontier.
struct EpochPlan {
  EpochPlanKind kind = EpochPlanKind::kSkip;
  Bitmap seeds;
  size_t seed_count = 0;

  void Seed(VertexId v) {
    if (seeds.TestAndSet(v)) ++seed_count;
  }
};

// --- per-app epoch planners ---

namespace internal {

// Shared BFS/SSSP planner: `step(warm_u, ev)` is the relaxed value the
// deleted edge would have produced at its head.
template <typename Value, typename Step>
EpochPlan PlanMinPath(std::span<const graph::MutationEvent> effective,
                      const std::vector<Value>& warm, Value unreached,
                      Step&& step) {
  EpochPlan plan;
  if (effective.empty()) return plan;
  plan.seeds.Resize(warm.size());
  plan.kind = EpochPlanKind::kIncremental;
  for (const graph::MutationEvent& ev : effective) {
    if (ev.kind == graph::MutationKind::kInsertEdge) {
      if (warm[ev.u] != unreached) plan.Seed(ev.u);
      continue;
    }
    // Effective deletes: tight edges were (potentially) the head's
    // support — lost monotonicity, restore and replay.
    if (warm[ev.u] != unreached && step(warm[ev.u], ev) == warm[ev.v]) {
      plan.kind = EpochPlanKind::kFallback;
      return plan;
    }
  }
  return plan;
}

}  // namespace internal

inline EpochPlan PlanEpoch(const BfsApp&,
                           std::span<const graph::MutationEvent> effective,
                           const std::vector<BfsApp::Value>& warm) {
  return internal::PlanMinPath(
      effective, warm, BfsApp::kUnreached,
      [](BfsApp::Value warm_u, const graph::MutationEvent&) {
        return warm_u + 1;
      });
}

inline EpochPlan PlanEpoch(const SsspApp&,
                           std::span<const graph::MutationEvent> effective,
                           const std::vector<SsspApp::Value>& warm) {
  return internal::PlanMinPath(
      effective, warm, SsspApp::kUnreached,
      [](SsspApp::Value warm_u, const graph::MutationEvent& ev) {
        return warm_u + ev.weight;
      });
}

inline EpochPlan PlanEpoch(const WccApp&,
                           std::span<const graph::MutationEvent> effective,
                           const std::vector<WccApp::Value>& warm) {
  EpochPlan plan;
  if (effective.empty()) return plan;
  plan.seeds.Resize(warm.size());
  plan.kind = EpochPlanKind::kIncremental;
  for (const graph::MutationEvent& ev : effective) {
    if (ev.kind != graph::MutationKind::kInsertEdge) {
      plan.kind = EpochPlanKind::kFallback;
      return plan;
    }
    plan.Seed(ev.u);
    plan.Seed(ev.v);
  }
  return plan;
}

inline EpochPlan PlanEpoch(const PageRankApp&,
                           std::span<const graph::MutationEvent> effective,
                           const std::vector<PageRankApp::Value>&) {
  EpochPlan plan;
  if (effective.empty()) return plan;
  // Fixed-round power iteration has no warm-start: rounds from converged
  // values compute a different sequence than rounds from InitValue.
  plan.kind = EpochPlanKind::kFallback;
  return plan;
}

// A standing query over an epoching graph: runs the app once in full,
// keeps the converged values warm, and after every AdvanceEpoch re-plans
// and re-runs as cheaply as soundness allows. Engines are rebuilt per
// epoch (they are thin views over the epoch's GraphContext); the two
// RunContexts persist, so arenas keep their high-water capacity across
// epochs — the serving fast path.
template <typename App>
class IncrementalSession {
 public:
  using Value = typename App::Value;

  struct EpochRunStats {
    EpochPlanKind kind = EpochPlanKind::kSkip;
    size_t seed_count = 0;
    // Charged restore read-back (kFallback only): each surviving device
    // reloads its fragment's checkpointed values + frontier over PCIe,
    // devices in parallel.
    double restore_ms = 0.0;
    core::RunResult result;
  };

  // Full run on the epoch-0 graph; captures the epoch-0 restore point.
  core::RunResult RunInitial(const core::GraphContext& ctx, App app,
                             const core::EngineOptions* run_options = nullptr) {
    app_ = app;
    const graph::VertexId num_v = ctx.graph().num_vertices();
    state0_.values.resize(num_v);
    for (graph::VertexId v = 0; v < num_v; ++v) {
      state0_.values[v] = app_.InitValue(v);
    }
    init_active_.Resize(num_v);
    for (graph::VertexId v = 0; v < num_v; ++v) {
      if (app_.IsInitiallyActive(v)) init_active_.Set(v);
    }
    state0_.frontier.BuildByOwner(
        num_v, ctx.partition().owner, ctx.num_devices(),
        [this](graph::VertexId v) { return init_active_.Test(v); });

    core::GumEngine<App> engine(&ctx);
    core::RunResult result = engine.Run(app_, rc_full_, nullptr, run_options);
    values_ = rc_full_.state.values;
    return result;
  }

  // Recompute after the context advanced one epoch. `effective` is the
  // batch's effective event set (EpochAdvanceStats::effective).
  EpochRunStats RunEpoch(const core::GraphContext& ctx,
                         std::span<const graph::MutationEvent> effective,
                         const core::EngineOptions* run_options = nullptr) {
    EpochRunStats stats;
    EpochPlan plan = PlanEpoch(app_, effective, values_);
    stats.kind = plan.kind;
    stats.seed_count = plan.seed_count;
    switch (plan.kind) {
      case EpochPlanKind::kSkip:
        // Values are already the mutated graph's fixed point.
        ++skips_;
        return stats;
      case EpochPlanKind::kIncremental: {
        ++incremental_epochs_;
        IncrementalApp<App> inc{&app_, &values_, &plan.seeds};
        core::GumEngine<IncrementalApp<App>> engine(&ctx);
        stats.result = engine.Run(inc, rc_inc_, nullptr, run_options);
        break;
      }
      case EpochPlanKind::kFallback: {
        ++fallbacks_;
        stats.restore_ms = ChargeRestore(ctx);
        IncrementalApp<App> inc{&app_, &state0_.values, &init_active_};
        core::GumEngine<IncrementalApp<App>> engine(&ctx);
        stats.result = engine.Run(inc, rc_inc_, nullptr, run_options);
        break;
      }
    }
    values_ = rc_inc_.state.values;
    return stats;
  }

  const App& app() const { return app_; }
  const std::vector<Value>& values() const { return values_; }
  int skips() const { return skips_; }
  int incremental_epochs() const { return incremental_epochs_; }
  int fallbacks() const { return fallbacks_; }

 private:
  double ChargeRestore(const core::GraphContext& ctx) const {
    double ms = 0.0;
    for (int d = 0; d < ctx.num_devices(); ++d) {
      const size_t frag_vertices = ctx.partition().part_vertices[d].size();
      const size_t frontier_vertices = state0_.frontier.FragmentSize(d);
      ms = std::max(ms, fault::CheckpointTransferMs(fault::FragmentStateBytes(
                            frag_vertices, frontier_vertices, sizeof(Value))));
    }
    return ms;
  }

  App app_{};
  std::vector<Value> values_;
  // Epoch-0 restore point; InitValue state never depends on the edge set,
  // so it stays a valid restart for every epoch's graph.
  core::VertexState<Value> state0_;
  Bitmap init_active_;
  core::RunContext<App> rc_full_;
  core::RunContext<IncrementalApp<App>> rc_inc_;
  int skips_ = 0;
  int incremental_epochs_ = 0;
  int fallbacks_ = 0;
};

}  // namespace gum::algos

#endif  // GUM_ALGOS_INCREMENTAL_H_
