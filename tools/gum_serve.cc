// gum_serve — serve a stream of point queries against one loaded
// GraphContext (DESIGN.md §13).
//
// Builds the immutable context once (graph, partition, topology geometry,
// expand structures), then drains a query stream through batched
// bit-parallel multi-source waves: up to 64 same-kind BFS/SSSP sources per
// wave, one bit lane each (algos/multi_source.h). Per-query latency is
// simulated time from stream admission to the query's batch completion.
//
// Graph sources (pick one):
//   --graph=PATH                 text edge list ("src dst [weight]")
//   --gen=rmat|web|road|er       synthetic generator, with
//       --scale=N --edge-factor=F [--weighted] [--seed=S]      (rmat, web, er)
//       --rows=R --cols=C [--seed=S]                           (road)
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
//   --host-threads=N --msg-shards=N --expand=scatter|spmv|auto
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
//                                latency percentiles as extra fields)
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
#include "common/flags.h"
#include "common/json.h"
#include "common/random.h"
#include "core/epoch_context.h"
#include "core/graph_context.h"
#include "fault/fault_plane.h"
#include "graph/mutation.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/partition.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "obs/trace.h"
#include "serve/query_queue.h"
#include "serve/serving.h"
#include "sim/comm_plane.h"
#include "sim/topology.h"
#include "sim/transfer_plan.h"

using namespace gum;  // NOLINT(build/namespaces)

namespace {

constexpr const char* kKnownFlags[] = {
    "graph",       "gen",         "scale",       "edge-factor", "weighted",
    "seed",        "rows",        "cols",        "algo",        "devices",
    "partitioner", "host-threads", "msg-shards", "expand",      "sources",
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
      "                 [--batch-width=N] [--host-threads=N] "
      "[--msg-shards=N]\n"
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

Result<graph::EdgeList> LoadOrGenerate(const FlagParser& flags) {
  if (flags.Has("graph")) {
    return graph::LoadEdgeListText(flags.GetString("graph", ""));
  }
  const std::string gen = flags.GetString("gen", "");
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  // RMAT, web and ER sizes are 2^scale vertices; the generators CHECK the
  // same range.
  const auto scale = [&] { return flags.GetIntInRange("scale", 14, 1, 30); };
  if (gen == "rmat") {
    graph::RmatOptions opt;
    GUM_ASSIGN_OR_RETURN(opt.scale, scale());
    opt.edge_factor = flags.GetDouble("edge-factor", 16);
    opt.weighted = flags.GetBool("weighted", false);
    opt.seed = seed;
    return graph::Rmat(opt);
  }
  if (gen == "web") {
    graph::WebCrawlOptions opt;
    GUM_ASSIGN_OR_RETURN(opt.scale, scale());
    opt.edge_factor = flags.GetDouble("edge-factor", 12);
    opt.weighted = flags.GetBool("weighted", false);
    opt.seed = seed;
    return graph::WebCrawl(opt);
  }
  if (gen == "road") {
    graph::RoadGridOptions opt;
    opt.rows = static_cast<uint32_t>(flags.GetInt("rows", 128));
    opt.cols = static_cast<uint32_t>(flags.GetInt("cols", 128));
    opt.seed = seed;
    return graph::RoadGrid(opt);
  }
  if (gen == "er") {
    GUM_ASSIGN_OR_RETURN(const int64_t er_scale, scale());
    const graph::VertexId n = graph::VertexId{1} << er_scale;
    const graph::EdgeId m = static_cast<graph::EdgeId>(
        flags.GetDouble("edge-factor", 16) * n);
    return graph::ErdosRenyi(n, m, flags.GetBool("weighted", false), seed);
  }
  return Status::InvalidArgument(
      "need --graph=PATH or --gen=rmat|web|road|er");
}

struct ServeConfig {
  std::vector<graph::VertexId> sources;
  int batch_width = 64;
  int fault_batch = -1;
  int ckpt_every = 0;
  core::EngineOptions options;  // geometry the GraphContext is built from
  const fault::FaultPlane* fault_plane = nullptr;
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
  serve::ServeOptions opts;
  opts.batch_width = batch_width;
  opts.fault_batch = cfg.fault_batch;
  opts.fault_plane = cfg.fault_plane;
  opts.ckpt_every = cfg.ckpt_every;
  opts.keep_values = keep_values;
  return session.ServeAll(queue, opts);
}

template <typename Traits>
int RunBench(const FlagParser& flags, const graph::CsrGraph& g,
             const graph::Partition& partition, const sim::Topology& topology,
             const ServeConfig& cfg) {
  const auto widths_or = flags.GetIntList("bench-widths", {1, 8, 64});
  const auto threads_or = flags.GetIntList("bench-threads", {1, 4});
  if (!widths_or.ok() || !threads_or.ok()) {
    std::cerr << (!widths_or.ok() ? widths_or.status() : threads_or.status())
                     .ToString()
              << "\n";
    return 1;
  }

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

  for (const int64_t t : *threads_or) {
    core::EngineOptions options = cfg.options;
    options.num_host_threads = static_cast<int>(t);
    const core::GraphContext ctx(&g, partition, topology, options);
    // One sequential (width-1) reference per thread count, re-emitted
    // under every width suffix so --expect-faster pairs line up.
    const auto seq = ServeStream<Traits>(ctx, cfg, 1, /*keep_values=*/false);
    for (const int64_t width : *widths_or) {
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
    const FlagParser& flags, const ServeConfig& cfg,
    const graph::Partition& partition,
    const serve::ServeOutcome<ValueT>& outcome, obs::TraceSession& trace,
    const std::vector<std::pair<std::string, std::string>>& extra_config) {
  const bool want_trace = flags.Has("trace");
  const bool want_metrics = flags.Has("metrics");
  const bool want_report = flags.Has("report");
  const bool keep_values = flags.Has("save-values");
  const serve::ServeStats& stats = outcome.stats;

  if (want_metrics || want_report) obs::SetMetricsEnabled(false);
  if (want_trace) {
    trace.Stop();
    std::ofstream out(flags.GetString("trace", ""));
    trace.WriteChromeTrace(out);
  }
  if (want_metrics) {
    std::ofstream out(flags.GetString("metrics", ""));
    obs::MetricsRegistry::Global().WriteJson(out);
  }
  if (want_report) {
    obs::RunReportMeta meta;
    meta.system = "gum-serve";
    meta.algorithm = flags.GetString("algo", "bfs");
    meta.dataset = flags.Has("graph") ? flags.GetString("graph", "")
                                      : flags.GetString("gen", "");
    meta.num_devices = partition.num_parts;
    meta.config = {
        {"batch_width", std::to_string(cfg.batch_width)},
        {"host_threads", std::to_string(cfg.options.num_host_threads)},
        {"msg_shards", std::to_string(cfg.options.num_msg_shards)},
        {"expand",
         core::ExpandBackendKindName(cfg.options.expand_backend)},
        {"queries", std::to_string(cfg.sources.size())},
    };
    if (cfg.fault_plane != nullptr && cfg.fault_batch >= 0) {
      meta.config.emplace_back("fault_plan", cfg.fault_plane->Describe());
      meta.config.emplace_back("fault_batch",
                               std::to_string(cfg.fault_batch));
      meta.config.emplace_back("ckpt_every",
                               std::to_string(cfg.ckpt_every));
    }
    for (const auto& kv : extra_config) meta.config.push_back(kv);
    obs::ServeReportStats report;
    report.batch_width = cfg.batch_width;
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
    std::ofstream out(flags.GetString("report", ""));
    obs::WriteServeReport(out, meta, report, &obs::MetricsRegistry::Global());
  }
  if (keep_values) {
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
            << "batch width:     " << cfg.batch_width << "\n"
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
int RunServe(const FlagParser& flags, const graph::CsrGraph& g,
             const graph::Partition& partition, const sim::Topology& topology,
             const ServeConfig& cfg) {
  const bool want_trace = flags.Has("trace");
  const bool want_metrics = flags.Has("metrics");
  const bool want_report = flags.Has("report");
  obs::TraceSession trace;
  if (want_trace) trace.Start();
  if (want_metrics || want_report) obs::SetMetricsEnabled(true);

  const bool keep_values = flags.Has("save-values");
  serve::ServeOutcome<typename Traits::ValueType> outcome;
  {
    const core::GraphContext ctx(&g, partition, topology, cfg.options);
    outcome = ServeStream<Traits>(ctx, cfg, cfg.batch_width, keep_values);
  }
  return FinishServe(flags, cfg, partition, outcome, trace, {});
}

// Streaming serve: interleave mutation epochs with query batches. Every
// `update_rate` batches the stream pauses at a barrier, the next mutation
// epoch lands on the epoched context (delta overlay, optional compaction),
// both engines rebind to the rebuilt GraphContext, and the apply/compaction
// charge is added to the stream clock — later queries pay the update cost
// in their latency. Batch numbering and the clock are continuous across
// segments, so --fault-batch keeps addressing absolute batch indices.
template <typename Traits>
int RunServeMutating(const FlagParser& flags, const graph::CsrGraph& g,
                     const graph::Partition& partition,
                     const sim::Topology& topology, const ServeConfig& cfg,
                     const graph::MutationStream& stream,
                     const std::string& mutation_spec, uint64_t mutation_seed,
                     int update_rate, int compact_every) {
  const bool want_trace = flags.Has("trace");
  const bool want_metrics = flags.Has("metrics");
  const bool want_report = flags.Has("report");
  obs::TraceSession trace;
  if (want_trace) trace.Start();
  if (want_metrics || want_report) obs::SetMetricsEnabled(true);

  const bool keep_values = flags.Has("save-values");
  serve::ServeOutcome<typename Traits::ValueType> outcome;
  int epochs_applied = 0;
  int events_applied = 0;
  int noops = 0;
  int compactions = 0;
  double update_ms = 0.0;
  {
    core::EpochedGraphContext ectx(g, partition, topology, cfg.options,
                                   /*symmetric=*/false);
    serve::ServeSession<Traits> session(&ectx.ctx());
    serve::QueryQueue queue = BuildQueue(cfg.sources, Traits::kKind);
    serve::ServeOptions opts;
    opts.batch_width = cfg.batch_width;
    opts.fault_batch = cfg.fault_batch;
    opts.fault_plane = cfg.fault_plane;
    opts.ckpt_every = cfg.ckpt_every;
    opts.keep_values = keep_values;
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
            ectx.AdvanceEpoch(stream.BatchAt(epoch), compact_every);
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
      {"mutations", mutation_spec},
      {"mutation_seed", std::to_string(mutation_seed)},
      {"update_rate", std::to_string(update_rate)},
      {"compact_every", std::to_string(compact_every)},
  };
  return FinishServe(flags, cfg, partition, outcome, trace, extra_config);
}

}  // namespace

int main(int argc, char** argv) {
  const FlagParser flags(argc, argv);
  if (flags.GetBool("help", false)) {
    PrintUsage();
    return 0;
  }
  if (Status s = flags.KnownFlagsOnly(
          {std::begin(kKnownFlags), std::end(kKnownFlags)});
      !s.ok()) {
    std::cerr << s.ToString() << "\n";
    PrintUsage();
    return 1;
  }

  auto edges = LoadOrGenerate(flags);
  if (!edges.ok()) {
    std::cerr << edges.status().ToString() << "\n";
    PrintUsage();
    return 1;
  }
  const auto algo_or = flags.GetEnum("algo", "bfs", {"bfs", "sssp"});
  if (!algo_or.ok()) {
    std::cerr << algo_or.status().ToString() << "\n";
    return 1;
  }
  const std::string algo = *algo_or;
  auto g = graph::CsrGraph::FromEdgeList(*edges, {});
  if (!g.ok()) {
    std::cerr << g.status().ToString() << "\n";
    return 1;
  }
  std::cout << "graph:           " << g->num_vertices() << " vertices, "
            << g->num_edges() << " edges\n";

  // The hybrid cube-mesh topology has at most 8 devices.
  const auto devices_or = flags.GetIntInRange("devices", 8, 1, 8);
  if (!devices_or.ok()) {
    std::cerr << devices_or.status().ToString() << "\n";
    return 1;
  }
  const int devices = static_cast<int>(*devices_or);
  graph::PartitionOptions popt;
  const auto pname_or =
      flags.GetEnum("partitioner", "random", {"random", "seg", "metis"});
  if (!pname_or.ok()) {
    std::cerr << pname_or.status().ToString() << "\n";
    return 1;
  }
  const std::string pname = *pname_or;
  popt.kind = pname == "seg"     ? graph::PartitionerKind::kSegment
              : pname == "metis" ? graph::PartitionerKind::kMetisLike
                                 : graph::PartitionerKind::kRandom;
  auto partition = graph::PartitionGraph(*g, devices, popt);
  if (!partition.ok()) {
    std::cerr << partition.status().ToString() << "\n";
    return 1;
  }
  auto topology = sim::Topology::HybridCubeMeshSubset(devices);
  if (!topology.ok()) {
    std::cerr << topology.status().ToString() << "\n";
    return 1;
  }

  // --- query stream ---
  ServeConfig cfg;
  if (flags.Has("sources")) {
    const auto sources_or = flags.GetIntList("sources", {});
    if (!sources_or.ok()) {
      std::cerr << sources_or.status().ToString() << "\n";
      return 1;
    }
    for (const int64_t s : *sources_or) {
      if (s < 0 || s >= static_cast<int64_t>(g->num_vertices())) {
        std::cerr << "--sources vertex " << s << " out of range\n";
        return 1;
      }
      cfg.sources.push_back(static_cast<graph::VertexId>(s));
    }
    if (cfg.sources.empty()) {
      std::cerr << "--sources needs at least one vertex\n";
      return 1;
    }
  } else {
    const int num_queries = static_cast<int>(flags.GetInt("queries", 64));
    if (num_queries <= 0) {
      std::cerr << "--queries must be positive\n";
      return 1;
    }
    Rng rng(static_cast<uint64_t>(flags.GetInt("query-seed", 1)));
    for (int i = 0; i < num_queries; ++i) {
      cfg.sources.push_back(static_cast<graph::VertexId>(
          rng.NextBounded(g->num_vertices())));
    }
  }

  cfg.batch_width = static_cast<int>(flags.GetInt("batch-width", 64));
  if (cfg.batch_width < 1 || cfg.batch_width > algos::kMaxBatchLanes) {
    std::cerr << "--batch-width must be 1.." << algos::kMaxBatchLanes << "\n";
    return 1;
  }

  const auto expand_or =
      flags.GetEnum("expand", "scatter", {"scatter", "spmv", "auto"});
  if (!expand_or.ok()) {
    std::cerr << expand_or.status().ToString() << "\n";
    return 1;
  }
  core::ParseExpandBackendKind(*expand_or, &cfg.options.expand_backend);
  cfg.options.num_host_threads =
      static_cast<int>(flags.GetInt("host-threads", 0));
  cfg.options.num_msg_shards =
      static_cast<int>(flags.GetInt("msg-shards", 0));
  const auto contention =
      sim::ParseContentionModel(flags.GetString("contention", "off"));
  if (!contention.ok()) {
    std::cerr << contention.status().ToString() << "\n";
    return 1;
  }
  cfg.options.contention = *contention;
  const auto multipath =
      sim::ParseMultipathMode(flags.GetString("multipath", "off"));
  if (!multipath.ok()) {
    std::cerr << multipath.status().ToString() << "\n";
    return 1;
  }
  cfg.options.multipath = *multipath;

  // --- fault compose ---
  cfg.fault_batch = static_cast<int>(flags.GetInt("fault-batch", -1));
  cfg.ckpt_every = static_cast<int>(flags.GetInt("ckpt-every", 0));
  fault::FaultPlane fault_plane;
  {
    auto plan = fault::FaultPlan::Parse(flags.GetString("fault-plan", "none"));
    if (!plan.ok()) {
      std::cerr << plan.status().ToString() << "\n";
      return 1;
    }
    auto plane = fault::FaultPlane::Create(
        *plan, partition->num_parts,
        static_cast<uint64_t>(flags.GetInt("fault-seed", 1)));
    if (!plane.ok()) {
      std::cerr << plane.status().ToString() << "\n";
      return 1;
    }
    fault_plane = std::move(*plane);
  }
  if (fault_plane.active()) {
    if (cfg.fault_batch < 0) {
      std::cerr << "--fault-plan needs --fault-batch=K (the batch to run "
                   "under the plane)\n";
      return 1;
    }
    if (cfg.ckpt_every <= 0) cfg.ckpt_every = 2;
    cfg.fault_plane = &fault_plane;
  }

  // --- mutation compose ---
  const std::string mutation_spec = flags.GetString("mutations", "none");
  const uint64_t mutation_seed =
      static_cast<uint64_t>(flags.GetInt("mutation-seed", 1));
  graph::MutationStream mutation_stream;
  {
    auto plan = graph::MutationPlan::Parse(mutation_spec);
    if (!plan.ok()) {
      std::cerr << plan.status().ToString() << "\n";
      return 1;
    }
    if (!plan->empty()) {
      auto stream = graph::MutationStream::Create(*plan, *g, mutation_seed);
      if (!stream.ok()) {
        std::cerr << stream.status().ToString() << "\n";
        return 1;
      }
      mutation_stream = std::move(*stream);
    }
  }
  const int update_rate = static_cast<int>(flags.GetInt("update-rate", 1));
  const int compact_every = static_cast<int>(flags.GetInt("compact-every", 0));
  if (mutation_stream.active()) {
    if (update_rate < 1) {
      std::cerr << "--update-rate must be >= 1\n";
      return 1;
    }
    if (compact_every < 0) {
      std::cerr << "--compact-every must be >= 0\n";
      return 1;
    }
    if (flags.Has("bench-json")) {
      std::cerr << "--mutations does not compose with --bench-json (use "
                   "bench/mutation_throughput)\n";
      return 1;
    }
  } else if (flags.Has("update-rate") || flags.Has("compact-every")) {
    std::cerr << "--update-rate/--compact-every need an active "
                 "--mutations stream\n";
    return 1;
  }

  if (mutation_stream.active()) {
    return algo == "bfs"
               ? RunServeMutating<serve::BfsServeTraits>(
                     flags, *g, *partition, *topology, cfg, mutation_stream,
                     mutation_spec, mutation_seed, update_rate, compact_every)
               : RunServeMutating<serve::SsspServeTraits>(
                     flags, *g, *partition, *topology, cfg, mutation_stream,
                     mutation_spec, mutation_seed, update_rate, compact_every);
  }
  if (flags.Has("bench-json")) {
    return algo == "bfs" ? RunBench<serve::BfsServeTraits>(
                               flags, *g, *partition, *topology, cfg)
                         : RunBench<serve::SsspServeTraits>(
                               flags, *g, *partition, *topology, cfg);
  }
  return algo == "bfs" ? RunServe<serve::BfsServeTraits>(flags, *g, *partition,
                                                         *topology, cfg)
                       : RunServe<serve::SsspServeTraits>(
                             flags, *g, *partition, *topology, cfg);
}
