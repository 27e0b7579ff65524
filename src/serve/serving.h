// The serving session: many queries against one GraphContext
// (DESIGN.md §13).
//
// ServeSession<Traits> binds a single-source engine and a batched
// (bit-parallel multi-source) engine to one immutable GraphContext and
// drains a QueryQueue through them: each NextBatch becomes either one
// single-source run (width 1) or one multi-source wave (one bit lane per
// query, algos/multi_source.h). Both engines reuse persistent RunContexts,
// so steady-state queries run entirely out of high-water arenas — the
// payoff of the GraphContext/RunContext split.
//
// Time model: the stream is admitted at simulated t=0 and batches run
// back-to-back, so a query's latency is the simulated makespan through its
// own batch. Batched waves shorten the stream (shared structure expands
// once per wave) at the cost of head-of-line latency for early queries —
// the trade-off the serve soak benchmark sweeps.
//
// Fault compose: ServeOptions can pin a fault plane to one batch index.
// Only that batch runs under the plane (with checkpointing enabled via a
// per-run options override); the engine rolls the batch back to its last
// checkpoint and replays it on the survivors, so every other batch — and
// every per-query result — is byte-identical to the fault-free stream.

#ifndef GUM_SERVE_SERVING_H_
#define GUM_SERVE_SERVING_H_

#include <utility>
#include <vector>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "algos/apps.h"
#include "algos/multi_source.h"
#include "core/engine.h"
#include "core/graph_context.h"
#include "core/run_context.h"
#include "serve/query.h"
#include "serve/query_queue.h"
#include "serve/serve_stats.h"

namespace gum::serve {

// Traits bind a QueryKind to its single-source and batched apps plus the
// lane extraction that recovers per-query values from a wave.
struct BfsServeTraits {
  using SingleApp = algos::BfsApp;
  using BatchApp = algos::MultiSourceBfsApp;
  using ValueType = algos::BfsApp::Value;
  static constexpr QueryKind kKind = QueryKind::kBfs;

  static SingleApp MakeSingle(graph::VertexId source) {
    SingleApp app;
    app.source = source;
    return app;
  }
  static BatchApp MakeBatch(std::vector<graph::VertexId> sources) {
    return BatchApp(std::move(sources));
  }
  static std::vector<ValueType> Extract(
      const std::vector<BatchApp::Value>& vals, int lane) {
    return algos::ExtractBfsLane(vals, lane);
  }
};

struct SsspServeTraits {
  using SingleApp = algos::SsspApp;
  using BatchApp = algos::MultiSourceSsspApp;
  using ValueType = algos::SsspApp::Value;
  static constexpr QueryKind kKind = QueryKind::kSssp;

  static SingleApp MakeSingle(graph::VertexId source) {
    SingleApp app;
    app.source = source;
    return app;
  }
  static BatchApp MakeBatch(std::vector<graph::VertexId> sources) {
    return BatchApp(std::move(sources));
  }
  static std::vector<ValueType> Extract(
      const std::vector<BatchApp::Value>& vals, int lane) {
    return algos::ExtractSsspLane(vals, lane);
  }
};

template <typename Traits>
class ServeSession {
 public:
  using ValueType = typename Traits::ValueType;

  // `ctx` must outlive the session.
  explicit ServeSession(const core::GraphContext* ctx)
      : ctx_(ctx), single_engine_(ctx), batch_engine_(ctx) {}

  // Repoints both engines at a new context (which must outlive the
  // session) — the mutation-plane epoch barrier. RunContext arenas are
  // kept: the engine rebuilds all per-run state from the context on every
  // Run, so reuse across rebinds is byte-identical to fresh contexts.
  void Rebind(const core::GraphContext* ctx) {
    GUM_CHECK(ctx != nullptr) << "ServeSession needs a GraphContext";
    ctx_ = ctx;
    single_engine_.Rebind(ctx);
    batch_engine_.Rebind(ctx);
  }

  // Drains `queue` (or its next `opts.max_batches` batches when that is
  // >= 0, leaving the rest queued), returning per-query results in service
  // order. Every query in the queue must match Traits::kKind.
  ServeOutcome<ValueType> ServeAll(QueryQueue& queue,
                                   const ServeOptions& opts) {
    ServeOutcome<ValueType> outcome;
    ServeStats& stats = outcome.stats;
    double clock_ms = opts.clock_base_ms;
    int batch_index = opts.first_batch_index;
    while (!queue.empty() &&
           (opts.max_batches < 0 || stats.batches < opts.max_batches)) {
      const std::vector<Query> batch = queue.NextBatch(opts.batch_width);
      GUM_TRACE_SCOPE("serve.batch");
      for (const Query& q : batch) {
        GUM_CHECK(q.kind == Traits::kKind)
            << "query " << q.id << " kind " << QueryKindName(q.kind)
            << " does not match this session";
      }

      // Per-run options override for the faulted batch only; geometry
      // fields stay the context's, so the override is run-scoped.
      core::EngineOptions faulted_options = ctx_->options();
      const core::EngineOptions* run_options = nullptr;
      if (batch_index == opts.fault_batch && opts.fault_plane != nullptr) {
        faulted_options.fault_plane = opts.fault_plane;
        if (opts.ckpt_every > 0) {
          faulted_options.checkpoint.every = opts.ckpt_every;
        }
        run_options = &faulted_options;
      }

      BatchStats bs;
      bs.batch = batch_index;
      bs.width = static_cast<int>(batch.size());
      bs.kind = Traits::kKind;
      core::RunResult result;
      if (batch.size() == 1) {
        auto app = Traits::MakeSingle(batch[0].source);
        result = single_engine_.Run(app, rc_single_, nullptr, run_options);
      } else {
        std::vector<graph::VertexId> sources;
        sources.reserve(batch.size());
        for (const Query& q : batch) sources.push_back(q.source);
        auto app = Traits::MakeBatch(std::move(sources));
        result = batch_engine_.Run(app, rc_batch_, nullptr, run_options);
      }
      clock_ms += result.total_ms;
      bs.iterations = result.iterations;
      bs.wall_ms = result.total_ms;
      bs.recovery_ms = result.faults.RecoveryChargedMs();
      stats.recovery_ms += bs.recovery_ms;

      {
        GUM_TRACE_SCOPE("serve.extract");
        for (size_t lane = 0; lane < batch.size(); ++lane) {
          QueryResult qr;
          qr.id = batch[lane].id;
          qr.batch = batch_index;
          qr.lane = static_cast<int>(lane);
          qr.latency_ms = clock_ms;
          qr.iterations = result.iterations;
          stats.query_results.push_back(qr);
          if (opts.keep_values) {
            outcome.values.push_back(
                batch.size() == 1
                    ? rc_single_.state.values
                    : Traits::Extract(rc_batch_.state.values,
                                      static_cast<int>(lane)));
          }
          if (obs::MetricsEnabled()) {
            obs::MetricsRegistry::Global()
                .GetHistogram("gum_serve_query_latency_us")
                .Observe(static_cast<uint64_t>(qr.latency_ms * 1000.0));
          }
        }
      }
      stats.queries += static_cast<int>(batch.size());
      ++stats.batches;
      stats.batch_stats.push_back(bs);
      if (obs::MetricsEnabled()) {
        auto& reg = obs::MetricsRegistry::Global();
        reg.GetCounter("gum_serve_queries_total")
            .Increment(static_cast<uint64_t>(batch.size()));
        reg.GetCounter("gum_serve_batches_total").Increment();
        reg.GetGauge("gum_serve_recovery_ms").Set(stats.recovery_ms);
      }
      ++batch_index;
    }
    stats.makespan_ms = clock_ms;
    return outcome;
  }

 private:
  const core::GraphContext* ctx_;
  core::GumEngine<typename Traits::SingleApp> single_engine_;
  core::GumEngine<typename Traits::BatchApp> batch_engine_;
  core::RunContext<typename Traits::SingleApp> rc_single_;
  core::RunContext<typename Traits::BatchApp> rc_batch_;
};

}  // namespace gum::serve

#endif  // GUM_SERVE_SERVING_H_
