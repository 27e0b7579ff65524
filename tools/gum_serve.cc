// gum_serve — serve a stream of point queries against one loaded
// GraphContext (DESIGN.md §13).
//
// Builds the immutable context once (graph, partition, topology geometry,
// expand structures), then drains a query stream through batched
// bit-parallel multi-source waves: up to 64 same-kind BFS/SSSP sources per
// wave, one bit lane each (algos/multi_source.h). Per-query latency is
// simulated time from stream admission to the query's batch completion.
//
// Graph sources: --graph=PATH or --gen=rmat|web|road|er with its generator
// flags, exactly as gum_cli documents them (both parse in cli_setup.h).
//
// Query stream (pick one):
//   --sources=a,b,c              explicit source list (<= 64 per batch;
//                                longer streams split into batches)
//   --queries=N --query-seed=S   N random sources (default 64 / seed 1)
//
// Serving:
//   --algo=bfs|sssp              query kind (default bfs)
//   --batch-width=N              max queries per wave, 1..64 (default 64;
//                                1 = the sequential baseline)
//   --devices=N --partitioner=random|seg|metis
//   --host-threads=N --expand=scatter|spmv|auto
//   --contention=off|fair        interconnect contention model (default off)
//   --multipath=off|on           stripe bulk transfers across link-disjoint
//                                paths (fair contention only; per-query
//                                values never change)
//
// Fault compose (gum fault plane, DESIGN.md §11):
//   --fault-plan=SPEC --fault-seed=S
//   --fault-batch=K              run batch K under the fault plane (with
//                                --ckpt-every checkpoints); the device loss
//                                replays only that batch, all per-query
//                                results stay byte-identical
//   --ckpt-every=N
//
// Mutation plane (DESIGN.md §14) — streaming updates between query waves:
//   --mutations=SPEC             mutation plan (graph/mutation.h grammar:
//                                "ins:u-v@K[xW];del:u-v@K;delv:u@K" or
//                                "rand:EPOCHSxPER" / "rand-ins:EPOCHSxPER")
//   --mutation-seed=S            seed for rand streams (default 1)
//   --update-rate=R              serve R query batches, then apply the next
//                                mutation epoch at the barrier (default 1);
//                                apply/compaction charge lands on the
//                                stream clock, so later queries pay for it
//   --compact-every=N            fold the delta overlay back into a flat
//                                CSR every N epochs (0 = never)
//
// Output / observability:
//   --save-values=PREFIX         per-query "vertex value" files
//                                PREFIX.q<id>.txt
//   --report=PATH                schema-versioned serve report JSON
//   --metrics=PATH --trace=PATH  obs plane artifacts
//
// Soak benchmark (CI serve-smoke):
//   --bench-json=PATH            sweep batch width x host threads over the
//                                stream, writing Google-benchmark-shaped
//                                JSON: BM_Serve_batched/wW/tT vs
//                                BM_Serve_sequential/wW/tT (simulated
//                                makespan as real_time ns, plus qps and
//                                latency percentiles as extra fields);
//                                it writes nothing else, so --save-values,
//                                --report, --metrics, --trace and
//                                --mutations are rejected with it
//   --bench-widths=1,8,64 --bench-threads=1,4
//
// Example:
//   gum_serve --gen=rmat --scale=14 --queries=64 --batch-width=64

#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "algos/multi_source.h"
#include "cli_setup.h"
#include "common/flags.h"
#include "common/json.h"
#include "common/random.h"
#include "core/epoch_context.h"
#include "core/graph_context.h"
#include "obs/run_report.h"
#include "serve/query_queue.h"
#include "serve/serving.h"

using namespace gum;  // NOLINT(build/namespaces)

namespace {

constexpr const char* kKnownFlags[] = {
    "graph",       "gen",         "scale",       "edge-factor", "weighted",
    "seed",        "rows",        "cols",        "algo",        "devices",
    "partitioner", "host-threads", "expand",      "sources",
    "queries",     "query-seed",  "batch-width", "fault-plan",  "fault-seed",
    "fault-batch", "ckpt-every",  "save-values", "report",      "metrics",
    "trace",       "bench-json",  "bench-widths", "bench-threads", "help",
    "contention",  "multipath",   "mutations",   "mutation-seed",
    "update-rate", "compact-every",
};

void PrintUsage() {
  std::cout <<
      "usage: gum_serve (--graph=PATH | --gen=rmat|web|road|er [gen flags])\n"
      "                 [--algo=bfs|sssp] [--devices=N]\n"
      "                 [--partitioner=random|seg|metis]\n"
      "                 [--sources=a,b,c | --queries=N --query-seed=S]\n"
      "                 [--batch-width=N] [--host-threads=N]\n"
      "                 [--expand=scatter|spmv|auto]\n"
      "                 [--contention=off|fair] [--multipath=off|on]\n"
      "                 [--fault-plan=SPEC] [--fault-seed=S] "
      "[--fault-batch=K] [--ckpt-every=N]\n"
      "                 [--mutations=SPEC] [--mutation-seed=S] "
      "[--update-rate=R] [--compact-every=N]\n"
      "                 [--save-values=PREFIX] [--report=PATH] "
      "[--metrics=PATH] [--trace=PATH]\n"
      "                 [--bench-json=PATH] [--bench-widths=LIST] "
      "[--bench-threads=LIST]\n";
}

struct ServeConfig {
  std::vector<graph::VertexId> sources;
  core::EngineOptions options;  // geometry the GraphContext is built from
  serve::ServeOptions serve;    // batch width and the fault compose
  std::vector<int64_t> bench_widths, bench_threads;  // --bench-json sweep
};

serve::QueryQueue BuildQueue(const std::vector<graph::VertexId>& sources,
                             serve::QueryKind kind) {
  serve::QueryQueue queue;
  for (size_t i = 0; i < sources.size(); ++i) {
    queue.Admit(serve::Query{static_cast<int>(i), kind, sources[i]});
  }
  return queue;
}

template <typename Traits>
serve::ServeOutcome<typename Traits::ValueType> ServeStream(
    const core::GraphContext& ctx, const ServeConfig& cfg, int batch_width,
    bool keep_values) {
  serve::ServeSession<Traits> session(&ctx);
  serve::QueryQueue queue = BuildQueue(cfg.sources, Traits::kKind);
  serve::ServeOptions opts = cfg.serve;
  opts.batch_width = batch_width;
  opts.keep_values = keep_values;
  return session.ServeAll(queue, opts);
}

template <typename Traits>
int RunBench(const FlagParser& flags, const cli::Setup& setup,
             const ServeConfig& cfg) {
  std::ofstream out(flags.GetString("bench-json", ""));
  JsonWriter w(out, 1);
  w.BeginObject();
  w.Key("benchmarks").BeginArray();
  const auto emit = [&w](const std::string& name, double makespan_ms,
                         const serve::ServeStats& stats) {
    w.BeginObject();
    w.Key("name").Value(name);
    w.Key("run_type").Value("iteration");
    w.Key("real_time").Value(makespan_ms * 1e6);  // simulated ns
    w.Key("time_unit").Value("ns");
    w.Key("qps").Value(stats.QueriesPerSecond());
    w.Key("p50_ms").Value(stats.LatencyPercentile(0.50));
    w.Key("p99_ms").Value(stats.LatencyPercentile(0.99));
    w.EndObject();
  };

  for (const int64_t t : cfg.bench_threads) {
    core::EngineOptions options = cfg.options;
    options.num_host_threads = static_cast<int>(t);
    const core::GraphContext ctx(&setup.graph, setup.partition,
                                 setup.topology, options);
    // One sequential (width-1) reference per thread count, re-emitted
    // under every width suffix so --expect-faster pairs line up.
    const auto seq = ServeStream<Traits>(ctx, cfg, 1, /*keep_values=*/false);
    for (const int64_t width : cfg.bench_widths) {
      const auto batched = ServeStream<Traits>(ctx, cfg,
                                               static_cast<int>(width),
                                               /*keep_values=*/false);
      const std::string suffix =
          "/w" + std::to_string(width) + "/t" + std::to_string(t);
      emit("BM_Serve_batched" + suffix, batched.stats.makespan_ms,
           batched.stats);
      emit("BM_Serve_sequential" + suffix, seq.stats.makespan_ms, seq.stats);
      std::cout << "w=" << width << " t=" << t << ": batched "
                << batched.stats.makespan_ms << " ms, sequential "
                << seq.stats.makespan_ms << " ms, p99 "
                << batched.stats.LatencyPercentile(0.99) << " ms\n";
    }
  }
  w.EndArray();
  w.EndObject();
  out << "\n";
  return 0;
}

// Shared tail of the serve drivers: obs artifacts, report, saved values,
// and the stdout summary. `extra_config` rides along in the report's
// meta.config (mutation-plane knobs; empty for the static path, keeping
// mutations-off reports byte-identical).
template <typename ValueT>
int FinishServe(
    const FlagParser& flags, const ServeConfig& cfg, int num_devices,
    const serve::ServeOutcome<ValueT>& outcome, cli::ObsArtifacts& artifacts,
    const std::vector<std::pair<std::string, std::string>>& extra_config) {
  const serve::ServeStats& stats = outcome.stats;
  artifacts.Finish(/*timeline=*/nullptr);
  if (artifacts.want_report()) {
    obs::RunReportMeta meta = artifacts.ReportMeta("gum-serve", num_devices);
    meta.config = {
        {"batch_width", std::to_string(cfg.serve.batch_width)},
        {"host_threads", std::to_string(cfg.options.num_host_threads)},
        {"expand",
         core::ExpandBackendKindName(cfg.options.expand_backend)},
        {"queries", std::to_string(cfg.sources.size())},
    };
    const serve::ServeOptions& so = cfg.serve;
    if (so.fault_plane != nullptr && so.fault_batch >= 0) {
      meta.config.emplace_back("fault_plan", so.fault_plane->Describe());
      meta.config.emplace_back("fault_batch", std::to_string(so.fault_batch));
      meta.config.emplace_back("ckpt_every", std::to_string(so.ckpt_every));
    }
    for (const auto& kv : extra_config) meta.config.push_back(kv);
    obs::ServeReportStats report;
    report.batch_width = so.batch_width;
    report.queries = stats.queries;
    report.batches = stats.batches;
    report.makespan_ms = stats.makespan_ms;
    report.queries_per_second = stats.QueriesPerSecond();
    report.p50_ms = stats.LatencyPercentile(0.50);
    report.p90_ms = stats.LatencyPercentile(0.90);
    report.p99_ms = stats.LatencyPercentile(0.99);
    report.recovery_ms = stats.recovery_ms;
    for (const serve::QueryResult& q : stats.query_results) {
      report.queries_detail.push_back(
          obs::ServeQueryReport{q.id, q.batch, q.lane, q.latency_ms});
    }
    artifacts.WriteServeReport(meta, report);
  }
  if (flags.Has("save-values")) {
    const std::string prefix = flags.GetString("save-values", "");
    for (size_t i = 0; i < stats.query_results.size(); ++i) {
      const serve::QueryResult& q = stats.query_results[i];
      std::ofstream out(prefix + ".q" + std::to_string(q.id) + ".txt");
      const auto& values = outcome.values[i];
      for (size_t v = 0; v < values.size(); ++v) {
        out << v << " " << values[v] << "\n";
      }
    }
  }

  std::cout << "queries:         " << stats.queries << "\n"
            << "batches:         " << stats.batches << "\n"
            << "batch width:     " << cfg.serve.batch_width << "\n"
            << "makespan:        " << stats.makespan_ms << " ms\n"
            << "throughput:      " << stats.QueriesPerSecond()
            << " queries/s\n"
            << "latency p50:     " << stats.LatencyPercentile(0.50)
            << " ms\n"
            << "latency p90:     " << stats.LatencyPercentile(0.90)
            << " ms\n"
            << "latency p99:     " << stats.LatencyPercentile(0.99)
            << " ms\n";
  if (stats.recovery_ms > 0.0) {
    std::cout << "recovery:        " << stats.recovery_ms << " ms\n";
  }
  return 0;
}

template <typename Traits>
int RunServe(const FlagParser& flags, const cli::Setup& setup,
             const ServeConfig& cfg, cli::ObsArtifacts& artifacts) {
  serve::ServeOutcome<typename Traits::ValueType> outcome;
  {
    const core::GraphContext ctx(&setup.graph, setup.partition,
                                 setup.topology, cfg.options);
    outcome = ServeStream<Traits>(ctx, cfg, cfg.serve.batch_width,
                                  flags.Has("save-values"));
  }
  return FinishServe(flags, cfg, setup.partition.num_parts, outcome,
                     artifacts, {});
}

// Streaming serve: interleave mutation epochs with query batches. Every
// `update_rate` batches the stream pauses at a barrier, the next mutation
// epoch lands on the epoched context (delta overlay, optional compaction),
// both engines rebind to the rebuilt GraphContext, and the apply/compaction
// charge is added to the stream clock — later queries pay the update cost
// in their latency. Batch numbering and the clock are continuous across
// segments, so --fault-batch keeps addressing absolute batch indices.
template <typename Traits>
int RunServeMutating(const FlagParser& flags, const cli::Setup& setup,
                     const ServeConfig& cfg, const cli::SetupFlags& shared,
                     int update_rate, cli::ObsArtifacts& artifacts) {
  const graph::MutationStream& stream = setup.mutations;
  serve::ServeOutcome<typename Traits::ValueType> outcome;
  int epochs_applied = 0;
  int events_applied = 0;
  int noops = 0;
  int compactions = 0;
  double update_ms = 0.0;
  {
    core::EpochedGraphContext ectx(setup.graph, setup.partition,
                                   setup.topology, cfg.options,
                                   /*symmetric=*/false);
    serve::ServeSession<Traits> session(&ectx.ctx());
    serve::QueryQueue queue = BuildQueue(cfg.sources, Traits::kKind);
    serve::ServeOptions opts = cfg.serve;
    opts.keep_values = flags.Has("save-values");
    opts.max_batches = update_rate;

    double clock_ms = 0.0;
    int batch_index = 0;
    int epoch = 0;
    while (!queue.empty()) {
      opts.clock_base_ms = clock_ms;
      opts.first_batch_index = batch_index;
      auto seg = session.ServeAll(queue, opts);
      outcome.stats.queries += seg.stats.queries;
      outcome.stats.batches += seg.stats.batches;
      outcome.stats.recovery_ms += seg.stats.recovery_ms;
      for (auto& b : seg.stats.batch_stats) {
        outcome.stats.batch_stats.push_back(b);
      }
      for (auto& q : seg.stats.query_results) {
        outcome.stats.query_results.push_back(q);
      }
      for (auto& v : seg.values) outcome.values.push_back(std::move(v));
      clock_ms = seg.stats.makespan_ms;
      batch_index += seg.stats.batches;

      if (!queue.empty() && epoch < stream.num_epochs()) {
        ++epoch;
        const core::EpochAdvanceStats adv =
            ectx.AdvanceEpoch(stream.BatchAt(epoch), shared.compact_every);
        session.Rebind(&ectx.ctx());
        const double epoch_ms = adv.apply_ms + adv.compact_ms;
        clock_ms += epoch_ms;
        update_ms += epoch_ms;
        ++epochs_applied;
        events_applied += adv.inserted + adv.deleted;
        noops += adv.noops;
        if (adv.compacted) ++compactions;
        std::cout << "epoch " << epoch << ": +" << adv.inserted << "/-"
                  << adv.deleted << " edges (" << adv.noops << " noop"
                  << (adv.compacted ? ", compacted" : "") << "), "
                  << epoch_ms << " ms\n";
      }
    }
    outcome.stats.makespan_ms = clock_ms;
  }

  std::cout << "updates:         " << epochs_applied << " epochs, "
            << events_applied << " applied, " << noops << " noop, "
            << compactions << " compactions, " << update_ms << " ms\n";
  const std::vector<std::pair<std::string, std::string>> extra_config = {
      {"mutations", flags.GetString("mutations", "none")},
      {"mutation_seed", std::to_string(shared.mutation_seed)},
      {"update_rate", std::to_string(update_rate)},
      {"compact_every", std::to_string(shared.compact_every)},
  };
  return FinishServe(flags, cfg, setup.partition.num_parts, outcome,
                     artifacts, extra_config);
}

// Everything gum_serve reads, parsed and cross-checked before the graph is
// built. `sources` is filled once the graph exists.
struct ServeFlags {
  cli::SetupFlags shared;
  std::string algo;
  ServeConfig cfg;
  int num_queries = 64;
  uint64_t query_seed = 1;
  int update_rate = 1;
};

Result<ServeFlags> ParseServeFlags(const FlagParser& flags) {
  ServeFlags f;
  GUM_RETURN_IF_ERROR(flags.KnownFlagsOnly(
      {std::begin(kKnownFlags), std::end(kKnownFlags)}));
  GUM_ASSIGN_OR_RETURN(f.shared, cli::ParseSetupFlags(flags));
  GUM_ASSIGN_OR_RETURN(f.algo, flags.GetEnum("algo", "bfs", {"bfs", "sssp"}));
  GUM_ASSIGN_OR_RETURN(f.num_queries, cli::GetIntFlag(flags, "queries", 64, 1));
  GUM_ASSIGN_OR_RETURN(f.query_seed, cli::GetSeedFlag(flags, "query-seed"));
  GUM_ASSIGN_OR_RETURN(f.update_rate,
                       cli::GetIntFlag(flags, "update-rate", 1, 1));

  ServeConfig& cfg = f.cfg;
  GUM_ASSIGN_OR_RETURN(cfg.serve.batch_width,
                       cli::GetIntFlag(flags, "batch-width", 64, 1,
                                       algos::kMaxBatchLanes));
  GUM_ASSIGN_OR_RETURN(cfg.bench_widths,
                       flags.GetIntList("bench-widths", {1, 8, 64}, 1,
                                        algos::kMaxBatchLanes));
  GUM_ASSIGN_OR_RETURN(cfg.bench_threads,
                       flags.GetIntList("bench-threads", {1, 4}, 0,
                                        cli::kMaxThreads));
  // -1 (the default) serves every batch fault-free.
  GUM_ASSIGN_OR_RETURN(cfg.serve.fault_batch,
                       cli::GetIntFlag(flags, "fault-batch", -1, -1));
  // The context stays checkpoint-free: --ckpt-every applies to the faulted
  // batch only.
  cfg.options = f.shared.options;
  cfg.serve.ckpt_every = std::exchange(cfg.options.checkpoint.every, 0);
  if (f.shared.fault_plane.active()) {
    if (cfg.serve.fault_batch < 0) {
      return Status::InvalidArgument(
          "--fault-plan needs --fault-batch=K (the batch to run under the "
          "plane)");
    }
    if (cfg.serve.ckpt_every <= 0) cfg.serve.ckpt_every = 2;
  }

  if (flags.Has("bench-json")) {
    // The sweep writes only its JSON, so a per-run output would silently
    // stay unwritten.
    for (const char* output : {"trace", "metrics", "report", "save-values"}) {
      if (flags.Has(output)) {
        return Status::InvalidArgument("--" + std::string(output) +
                                       " does not compose with --bench-json");
      }
    }
    if (!f.shared.mutation_plan.empty()) {
      return Status::InvalidArgument(
          "--mutations does not compose with --bench-json (use "
          "bench/mutation_throughput)");
    }
  }
  if (f.shared.mutation_plan.empty() &&
      (flags.Has("update-rate") || flags.Has("compact-every"))) {
    return Status::InvalidArgument(
        "--update-rate/--compact-every need an active --mutations stream");
  }
  return f;
}

// `artifacts` started recording before the set-up, so the trace covers it
// too.
template <typename Traits>
int Serve(const FlagParser& flags, const ServeFlags& f,
          const cli::Setup& setup, cli::ObsArtifacts& artifacts) {
  // Backstop: ParseServeFlags names the flag behind every combination this
  // rejects, so a valid command line never fails here. The options checked
  // are the widest any batch runs: the faulted batch's, which add the fault
  // plane and its checkpoints to the context's.
  core::EngineOptions widest = f.cfg.options;
  if (f.cfg.serve.fault_plane != nullptr) {
    widest.fault_plane = f.cfg.serve.fault_plane;
    widest.checkpoint.every = f.cfg.serve.ckpt_every;
  }
  const Status valid = core::ValidateRunOptions(
      widest, setup.partition.num_parts, /*fixed_round_app=*/false,
      core::AsyncCapable<typename Traits::SingleApp> &&
          core::AsyncCapable<typename Traits::BatchApp>);
  if (!valid.ok()) return cli::Fail(valid);
  if (setup.mutations.active()) {
    return RunServeMutating<Traits>(flags, setup, f.cfg, f.shared,
                                    f.update_rate, artifacts);
  }
  if (flags.Has("bench-json")) return RunBench<Traits>(flags, setup, f.cfg);
  return RunServe<Traits>(flags, setup, f.cfg, artifacts);
}

}  // namespace

int main(int argc, char** argv) {
  const FlagParser flags(argc, argv);
  if (flags.GetBool("help", false)) {
    PrintUsage();
    return 0;
  }
  auto flags_or = ParseServeFlags(flags);
  if (!flags_or.ok()) return cli::Fail(flags_or.status(), PrintUsage);
  ServeFlags& f = *flags_or;
  ServeConfig& cfg = f.cfg;
  if (f.shared.fault_plane.active()) {
    cfg.serve.fault_plane = &f.shared.fault_plane;
  }

  cli::ObsArtifacts artifacts(flags);
  auto setup = cli::BuildSetup(f.shared, /*symmetrize=*/false);
  if (!setup.ok()) return cli::Fail(setup.status());
  // --- query stream ---
  if (flags.Has("sources")) {
    auto sources = cli::GetVertexList(flags, "sources", setup->graph);
    if (!sources.ok()) return cli::Fail(sources.status());
    cfg.sources = std::move(*sources);
  } else {
    Rng rng(f.query_seed);
    for (int i = 0; i < f.num_queries; ++i) {
      cfg.sources.push_back(static_cast<graph::VertexId>(
          rng.NextBounded(setup->graph.num_vertices())));
    }
  }

  return f.algo == "bfs"
             ? Serve<serve::BfsServeTraits>(flags, f, *setup, artifacts)
             : Serve<serve::SsspServeTraits>(flags, f, *setup, artifacts);
}
