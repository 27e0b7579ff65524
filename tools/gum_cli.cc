// gum_cli — run any engine / algorithm / graph combination from the shell.
//
// Graph sources (pick one):
//   --graph=PATH                 text edge list ("src dst [weight]")
//   --gen=rmat|web|road|er       synthetic generator, with
//       --scale=N --edge-factor=F [--weighted] [--seed=S]      (rmat, web, er)
//       --rows=R --cols=C [--seed=S]                           (road)
//
// Execution:
//   --engine=gum|gunrock|groute  (default gum)
//   --algo=bfs|sssp|wcc|pr|dpr|astar   (default bfs)
//   --target=V                   A* goal vertex (astar only; default: last
//                                vertex). On --gen=road the CLI builds the
//                                admissible Manhattan grid heuristic; on
//                                other graphs A* degenerates to SSSP order.
//   --mode=bsp|async             execution mode (default bsp; async runs the
//                                priority-worklist driver of src/core/async/,
//                                gum engine only, DESIGN.md §15)
//   --delta=W                    async bucket width (> 0; default: app-aware)
//   --worklist=buckets|smq       async worklist flavor (default buckets)
//   --steal-prob=P               SMQ rebalance probability in [0,1]
//   --steal-batch=N              SMQ entries moved per rebalance (>= 1)
//   --async-seed=S               seed behind async ordering; a fixed seed is
//                                byte-reproducible across thread counts
//   --devices=N                  1..8 on the hybrid cube mesh (default 8)
//   --partitioner=random|seg|metis
//   --source=V                   traversal source (default: max out-degree)
//   --sources=a,b,c              batched multi-source traversal: up to 64
//                                bfs/sssp sources run in one bit-parallel
//                                wave (gum engine; DESIGN.md §13);
//                                --save-values then writes one depth or
//                                distance column per source
//   --pr-rounds=N --epsilon=E    PageRank controls
//   --no-fsteal --no-osteal      disable GUM's stealing mechanisms
//   --contention=off|fair        interconnect contention model (default off;
//                                fair time-slices each lane across the
//                                transfers occupying it)
//   --multipath=off|on           stripe bulk transfers across link-disjoint
//                                paths and sync the census over a topology-
//                                aware reduction tree (gum engine, fair
//                                contention; values never change — only
//                                simulated time and link telemetry)
//   --host-threads=N             host threads for the superstep runtime
//                                (0 = hardware concurrency, 1 = serial;
//                                results are identical for every setting)
//   --msg-shards=N               destination shards for the message plane's
//                                parallel merge/apply (0 = match host
//                                threads; results identical for every
//                                setting)
//
// Output:
//   --timeline                   print the per-device utilization chart
//   --show-links                 print the per-link lane utilization table
//   --save-values=PATH           write "vertex value" lines
//
// Observability (src/obs/, DESIGN.md §10; no effect on results or stdout):
//   --trace=PATH                 Chrome/Perfetto trace-event JSON (simulated
//                                vGPU lanes + host wall-clock lanes)
//   --metrics=PATH               metrics registry snapshot as JSON
//   --report=PATH                schema-versioned JSON run report
//
// Fault plane (src/fault/, DESIGN.md §11; gum engine only):
//   --fault-plan=SPEC            "none" (default), "chaos", or ';'-joined
//                                events: failstop:D@K, straggler:D@A-BxF,
//                                degrade:A-B@F-LxS, linkdown:A-B@F-L,
//                                flap:A-B@F-L/P
//   --fault-seed=S               chaos expansion seed (default 1)
//   --ckpt-every=N               checkpoint cadence in iterations (0 = off)
//
// Mutation plane (src/graph/mutation.h, DESIGN.md §14; gum engine only):
//   --mutations=PLAN             "none" (default) or ';'-joined events:
//                                ins:u-v@K[xW], del:u-v@K, delv:u@K, or the
//                                seeded generators rand:ExB / rand-ins:ExB.
//                                Runs the query once per epoch: a full run
//                                on the base graph, then one recompute after
//                                each epoch's update batch.
//   --mutation-seed=S            rand expansion seed (default 1)
//   --compact-every=N            fold the CSR delta overlay back into a flat
//                                CSR every N epochs (0 = never)
//   --incremental=on|off         warm-start recompute from mutation-affected
//                                vertices (default on; off forces a full
//                                recompute per epoch — values are
//                                byte-identical either way)
//
// Example:
//   gum_cli --gen=road --rows=128 --cols=128 --algo=sssp --devices=8

#include <fstream>
#include <iostream>
#include <limits>
#include <utility>

#include "algos/apps.h"
#include "algos/astar.h"
#include "algos/incremental.h"
#include "algos/multi_source.h"
#include "core/epoch_context.h"
#include "graph/mutation.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "obs/trace.h"
#include "baselines/groute_cc.h"
#include "baselines/groute_like.h"
#include "baselines/gunrock_like.h"
#include "common/flags.h"
#include "core/engine.h"
#include "core/fast_wcc.h"
#include "fault/fault_plane.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/partition.h"
#include "graph/stats.h"
#include "sim/comm_plane.h"
#include "sim/topology.h"

using namespace gum;  // NOLINT(build/namespaces)

namespace {

constexpr const char* kKnownFlags[] = {
    "graph",     "gen",        "scale",     "edge-factor", "weighted",
    "seed",      "rows",       "cols",      "engine",      "algo",
    "devices",   "partitioner", "source",   "pr-rounds",   "epsilon",
    "no-fsteal", "no-osteal",  "timeline",  "save-values", "help",
    "timeline-csv", "host-threads", "contention", "show-links",
    "msg-shards", "trace", "metrics", "report",
    "fault-plan", "fault-seed", "ckpt-every", "expand", "sources",
    "multipath", "mutations", "mutation-seed", "compact-every", "incremental",
    "mode", "delta", "worklist", "steal-prob", "steal-batch", "async-seed",
    "target",
};

void PrintUsage() {
  std::cout <<
      "usage: gum_cli (--graph=PATH | --gen=rmat|web|road|er [gen flags])\n"
      "               [--engine=gum|gunrock|groute] [--algo=bfs|sssp|wcc|"
      "pr|dpr|astar]\n"
      "               [--mode=bsp|async] [--delta=W] "
      "[--worklist=buckets|smq]\n"
      "               [--steal-prob=P] [--steal-batch=N] [--async-seed=S]\n"
      "               [--target=V]\n"
      "               [--devices=N] [--partitioner=random|seg|metis]\n"
      "               [--source=V] [--sources=a,b,c] [--pr-rounds=N] "
      "[--epsilon=E]\n"
      "               [--no-fsteal] [--no-osteal] [--host-threads=N]\n"
      "               [--msg-shards=N] [--expand=scatter|spmv|auto]\n"
      "               [--contention=off|fair] [--multipath=off|on]\n"
      "               [--timeline] [--show-links]\n"
      "               [--save-values=PATH]\n"
      "               [--trace=PATH] [--metrics=PATH] [--report=PATH]\n"
      "               [--fault-plan=SPEC] [--fault-seed=S] "
      "[--ckpt-every=N]\n"
      "               [--mutations=PLAN] [--mutation-seed=S] "
      "[--compact-every=N]\n"
      "               [--incremental=on|off]\n";
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

template <typename App, typename Value = typename App::Value>
int RunAndReport(const FlagParser& flags, const graph::CsrGraph& g,
                 const graph::Partition& partition,
                 const sim::Topology& topology, App app) {
  const auto engine_or =
      flags.GetEnum("engine", "gum", {"gum", "gunrock", "groute"});
  if (!engine_or.ok()) {
    std::cerr << engine_or.status().ToString() << "\n";
    return 1;
  }
  const std::string engine_name = *engine_or;
  core::RunResult result;
  std::vector<Value> values;

  const bool want_trace = flags.Has("trace");
  const bool want_metrics = flags.Has("metrics");
  const bool want_report = flags.Has("report");
  obs::TraceSession trace;
  if (want_trace) trace.Start();
  // The report embeds a metrics snapshot, so recording is on for both.
  if (want_metrics || want_report) obs::SetMetricsEnabled(true);

  const int host_threads = static_cast<int>(flags.GetInt("host-threads", 0));
  const int msg_shards = static_cast<int>(flags.GetInt("msg-shards", 0));
  auto contention =
      sim::ParseContentionModel(flags.GetString("contention", "off"));
  if (!contention.ok()) {
    std::cerr << contention.status().ToString() << "\n";
    return 1;
  }
  auto multipath =
      sim::ParseMultipathMode(flags.GetString("multipath", "off"));
  if (!multipath.ok()) {
    std::cerr << multipath.status().ToString() << "\n";
    return 1;
  }
  if (*multipath == sim::MultipathMode::kOn && engine_name != "gum") {
    std::cerr << "--multipath=on requires --engine=gum\n";
    return 1;
  }

  // Parse + bind the fault plan before engine dispatch so an invalid spec
  // fails loudly without running anything.
  const std::string fault_spec = flags.GetString("fault-plan", "none");
  const int ckpt_every = static_cast<int>(flags.GetInt("ckpt-every", 0));
  fault::FaultPlane fault_plane;
  {
    auto plan = fault::FaultPlan::Parse(fault_spec);
    if (!plan.ok()) {
      std::cerr << plan.status().ToString() << "\n";
      return 1;
    }
    auto plane = fault::FaultPlane::Create(
        *plan, partition.num_parts,
        static_cast<uint64_t>(flags.GetInt("fault-seed", 1)));
    if (!plane.ok()) {
      std::cerr << plane.status().ToString() << "\n";
      return 1;
    }
    fault_plane = std::move(*plane);
  }
  if ((fault_plane.active() || ckpt_every > 0) && engine_name != "gum") {
    std::cerr << "--fault-plan/--ckpt-every require --engine=gum\n";
    return 1;
  }

  const auto expand_or =
      flags.GetEnum("expand", "scatter", {"scatter", "spmv", "auto"});
  if (!expand_or.ok()) {
    std::cerr << expand_or.status().ToString() << "\n";
    return 1;
  }
  core::ExpandBackendKind expand_backend = core::ExpandBackendKind::kScatter;
  core::ParseExpandBackendKind(*expand_or, &expand_backend);
  if (expand_backend != core::ExpandBackendKind::kScatter &&
      engine_name != "gum") {
    std::cerr << "--expand=spmv|auto requires --engine=gum\n";
    return 1;
  }

  // Execution mode (DESIGN.md §15). Every async knob is rejected loudly
  // under --mode=bsp so a forgotten mode switch can't silently no-op, and
  // the whole config is range-checked before anything runs.
  const auto mode_or = core::ParseEngineMode(flags.GetString("mode", "bsp"));
  if (!mode_or.ok()) {
    std::cerr << mode_or.status().ToString() << "\n";
    return 1;
  }
  const core::EngineMode mode = *mode_or;
  core::AsyncConfig async_cfg;
  if (mode == core::EngineMode::kBsp) {
    for (const char* f :
         {"delta", "worklist", "steal-prob", "steal-batch", "async-seed"}) {
      if (flags.Has(f)) {
        std::cerr << "--" << f << " requires --mode=async\n";
        return 1;
      }
    }
  } else {
    if (engine_name != "gum") {
      std::cerr << "--mode=async requires --engine=gum\n";
      return 1;
    }
    if (fault_plane.active() || ckpt_every > 0) {
      std::cerr << "--mode=async does not compose with --fault-plan/"
                   "--ckpt-every yet\n";
      return 1;
    }
    if constexpr (!core::AsyncCapable<App>) {
      std::cerr << "--mode=async does not support --algo="
                << flags.GetString("algo", "bfs")
                << " (priority-driven apps: bfs, sssp, wcc, dpr, astar; "
                   "for PageRank use --algo=dpr)\n";
      return 1;
    } else {
      if (flags.Has("delta")) {
        async_cfg.delta = flags.GetDouble("delta", 0.0);
        if (async_cfg.delta <= 0.0) {
          std::cerr << "--delta must be > 0\n";
          return 1;
        }
      }
      const auto wl_or = core::ParseAsyncWorklistKind(
          flags.GetString("worklist", "buckets"));
      if (!wl_or.ok()) {
        std::cerr << wl_or.status().ToString() << "\n";
        return 1;
      }
      async_cfg.worklist = *wl_or;
      async_cfg.steal_prob =
          flags.GetDouble("steal-prob", async_cfg.steal_prob);
      async_cfg.steal_batch_size = static_cast<int>(
          flags.GetInt("steal-batch", async_cfg.steal_batch_size));
      async_cfg.seed = static_cast<uint64_t>(flags.GetInt("async-seed", 1));
      if (Status s = core::ValidateAsyncConfig(async_cfg); !s.ok()) {
        std::cerr << s.ToString() << "\n";
        return 1;
      }
    }
  }

  if (engine_name == "gum") {
    core::EngineOptions options;
    options.enable_fsteal = !flags.GetBool("no-fsteal", false);
    options.enable_osteal = !flags.GetBool("no-osteal", false);
    options.num_host_threads = host_threads;
    options.num_msg_shards = msg_shards;
    options.contention = *contention;
    options.multipath = *multipath;
    options.expand_backend = expand_backend;
    options.fault_plane = &fault_plane;
    options.checkpoint.every = ckpt_every;
    options.mode = mode;
    options.async = async_cfg;
    core::GumEngine<App> engine(&g, partition, topology, options);
    result = engine.Run(app, &values);
  } else if (engine_name == "gunrock") {
    baselines::GunrockOptions options;
    options.num_host_threads = host_threads;
    options.num_msg_shards = msg_shards;
    options.contention = *contention;
    baselines::GunrockLikeEngine<App> engine(&g, partition, topology,
                                             options);
    result = engine.Run(app, &values);
  } else if (engine_name == "groute") {
    baselines::GrouteOptions options;
    options.contention = *contention;
    baselines::GrouteLikeEngine<App> engine(&g, partition, options);
    result = engine.Run(app, &values);
  } else {
    std::cerr << "unknown --engine=" << engine_name << "\n";
    return 1;
  }

  if (want_metrics || want_report) obs::SetMetricsEnabled(false);
  if (want_trace) {
    // The engine (and its thread pool) is already destroyed, so every
    // worker buffer has drained to the retired list; Stop collects them
    // plus the main thread's spans.
    trace.Stop();
    trace.AddSimulatedTimeline(result.timeline);
    std::ofstream out(flags.GetString("trace", ""));
    trace.WriteChromeTrace(out);
  }
  if (want_metrics) {
    std::ofstream out(flags.GetString("metrics", ""));
    obs::MetricsRegistry::Global().WriteJson(out);
  }
  if (want_report) {
    obs::RunReportMeta meta;
    meta.system = engine_name;
    meta.algorithm = flags.GetString("algo", "bfs");
    meta.dataset = flags.Has("graph")
                       ? flags.GetString("graph", "")
                       : flags.GetString("gen", "");
    meta.num_devices = partition.num_parts;
    meta.config = {
        {"contention", flags.GetString("contention", "off")},
        {"partitioner", flags.GetString("partitioner", "random")},
        {"host_threads", std::to_string(host_threads)},
        {"msg_shards", std::to_string(msg_shards)},
        {"fsteal", flags.GetBool("no-fsteal", false) ? "off" : "on"},
        {"osteal", flags.GetBool("no-osteal", false) ? "off" : "on"},
        {"expand", core::ExpandBackendKindName(expand_backend)},
    };
    // Only a multipath run records the key, so multipath-off reports stay
    // byte-identical to the pre-multipath schema.
    if (*multipath == sim::MultipathMode::kOn) {
      meta.config.emplace_back("multipath", sim::MultipathModeName(*multipath));
    }
    // Only an async run records async keys, so mode-off reports stay
    // byte-identical to the pre-async schema (modulo schema_version).
    if (mode == core::EngineMode::kAsync) {
      meta.config.emplace_back("mode", core::EngineModeName(mode));
      meta.config.emplace_back("worklist",
                               core::AsyncWorklistKindName(async_cfg.worklist));
      meta.config.emplace_back(
          "delta", flags.Has("delta") ? std::to_string(async_cfg.delta)
                                      : "auto");
      meta.config.emplace_back("steal_prob",
                               std::to_string(async_cfg.steal_prob));
      meta.config.emplace_back("steal_batch",
                               std::to_string(async_cfg.steal_batch_size));
      meta.config.emplace_back("async_seed", std::to_string(async_cfg.seed));
    }
    // Only a fault-plane run records fault keys; faults-off reports stay
    // byte-identical to the pre-fault-plane schema (modulo schema_version).
    if (fault_plane.active() || ckpt_every > 0) {
      meta.config.emplace_back("fault_plan", fault_plane.active()
                                                 ? fault_plane.Describe()
                                                 : "none");
      meta.config.emplace_back("fault_seed",
                               std::to_string(flags.GetInt("fault-seed", 1)));
      meta.config.emplace_back("ckpt_every", std::to_string(ckpt_every));
    }
    std::ofstream out(flags.GetString("report", ""));
    obs::WriteRunReport(out, meta, result,
                        &obs::MetricsRegistry::Global());
  }

  std::cout << "engine:          " << engine_name << "\n"
            << "iterations:      " << result.iterations << "\n"
            << "simulated time:  " << result.total_ms << " ms\n"
            << "edges processed: " << result.edges_processed << "\n"
            << "messages sent:   " << result.messages_sent << "\n";
  if (engine_name == "gum") {
    std::cout << "edges stolen:    " << result.stolen_edges_total << "\n"
              << "group shrinks:   " << result.osteal_shrink_events << "\n";
  }
  // Async-only lines: a --mode=bsp run prints byte-identically to the
  // pre-async build.
  if (result.async_active) {
    std::cout << "async:           " << result.async_batches << " batches, "
              << result.async_stale_skips << " stale skips, delta "
              << result.async_delta << "\n"
              << "range steals:    " << result.async_range_steals << " ("
              << result.async_range_steal_entries << " entries, "
              << result.async_range_steal_bytes << " bytes)\n"
              << "quiescence:      " << result.quiescence_rounds
              << " census rounds\n";
  }
  if (result.fault_plan_active) {
    std::cout << "faults:          devices failed " << result.devices_failed
              << ", recoveries " << result.recovery_events
              << ", fragments migrated " << result.fragments_migrated
              << ", recovery charged " << result.RecoveryChargedMs()
              << " ms\n";
  }
  if (result.checkpoints_taken > 0) {
    std::cout << "checkpoints:     " << result.checkpoints_taken << " ("
              << result.checkpoint_ms_total << " ms charged)\n";
  }
  std::cout << "breakdown (ms):  compute " << result.ComputeMs()
            << ", comm " << result.CommunicationMs() << ", serialization "
            << result.SerializationMs() << ", overhead "
            << result.OverheadMs() << "\n";
  if (flags.GetBool("timeline", false)) {
    std::cout << result.timeline.RenderAscii(96);
  }
  if (flags.GetBool("show-links", false)) {
    std::cout << "link utilization (" << sim::ContentionModelName(*contention)
              << " contention):\n"
              << sim::CommPlane::RenderAsciiTable(
                     result.link_bytes, result.link_busy_ms, result.total_ms);
    if (result.multipath_active) {
      std::cout << sim::RenderMultipathAscii(result.multipath);
    }
  }
  if (flags.Has("timeline-csv")) {
    std::ofstream out(flags.GetString("timeline-csv", ""));
    result.timeline.WriteCsv(out);
  }
  if (flags.Has("save-values")) {
    std::ofstream out(flags.GetString("save-values", ""));
    for (size_t v = 0; v < values.size(); ++v) {
      if constexpr (std::is_same_v<Value,
                                   algos::DeltaPageRankApp::State>) {
        out << v << " " << values[v].rank << "\n";
      } else if constexpr (std::is_same_v<
                               Value, algos::MultiSourceBfsApp::Value>) {
        out << v;
        for (int l = 0; l < app.num_lanes; ++l) out << " " << values[v].depth[l];
        out << "\n";
      } else if constexpr (std::is_same_v<
                               Value, algos::MultiSourceSsspApp::Value>) {
        out << v;
        for (int l = 0; l < app.num_lanes; ++l) out << " " << values[v].dist[l];
        out << "\n";
      } else {
        out << v << " " << values[v] << "\n";
      }
    }
  }
  return 0;
}

// Streaming mode (--mutations): the graph advances in epochs and the query
// re-runs after each update batch — incrementally when sound, as a full
// recompute otherwise, with values byte-identical either way. Gum engine
// only; the per-epoch GraphContext rebuild keeps every derived structure
// honest.
template <typename App, typename Value = typename App::Value>
int RunMutationStream(const FlagParser& flags, const graph::CsrGraph& g,
                      const graph::Partition& partition,
                      const sim::Topology& topology, App app,
                      const graph::MutationStream& stream, bool symmetric) {
  {
    const auto mode_or =
        core::ParseEngineMode(flags.GetString("mode", "bsp"));
    if (!mode_or.ok()) {
      std::cerr << mode_or.status().ToString() << "\n";
      return 1;
    }
    if (*mode_or == core::EngineMode::kAsync) {
      std::cerr << "--mutations requires --mode=bsp\n";
      return 1;
    }
  }
  const int host_threads = static_cast<int>(flags.GetInt("host-threads", 0));
  const int msg_shards = static_cast<int>(flags.GetInt("msg-shards", 0));
  auto contention =
      sim::ParseContentionModel(flags.GetString("contention", "off"));
  if (!contention.ok()) {
    std::cerr << contention.status().ToString() << "\n";
    return 1;
  }
  auto multipath =
      sim::ParseMultipathMode(flags.GetString("multipath", "off"));
  if (!multipath.ok()) {
    std::cerr << multipath.status().ToString() << "\n";
    return 1;
  }
  const auto expand_or =
      flags.GetEnum("expand", "scatter", {"scatter", "spmv", "auto"});
  if (!expand_or.ok()) {
    std::cerr << expand_or.status().ToString() << "\n";
    return 1;
  }
  core::ExpandBackendKind expand_backend = core::ExpandBackendKind::kScatter;
  core::ParseExpandBackendKind(*expand_or, &expand_backend);
  const auto inc_or = flags.GetEnum("incremental", "on", {"on", "off"});
  if (!inc_or.ok()) {
    std::cerr << inc_or.status().ToString() << "\n";
    return 1;
  }
  const bool incremental = *inc_or == "on";
  const int compact_every = static_cast<int>(flags.GetInt("compact-every", 0));
  if (compact_every < 0) {
    std::cerr << "--compact-every must be >= 0\n";
    return 1;
  }

  // The fault plan (if any) replays inside every epoch's run; recovery is
  // byte-exact, so it composes with the incremental/full equivalence.
  fault::FaultPlane fault_plane;
  {
    auto plan = fault::FaultPlan::Parse(flags.GetString("fault-plan", "none"));
    if (!plan.ok()) {
      std::cerr << plan.status().ToString() << "\n";
      return 1;
    }
    auto plane = fault::FaultPlane::Create(
        *plan, partition.num_parts,
        static_cast<uint64_t>(flags.GetInt("fault-seed", 1)));
    if (!plane.ok()) {
      std::cerr << plane.status().ToString() << "\n";
      return 1;
    }
    fault_plane = std::move(*plane);
  }

  const bool want_trace = flags.Has("trace");
  const bool want_metrics = flags.Has("metrics");
  const bool want_report = flags.Has("report");
  obs::TraceSession trace;
  if (want_trace) trace.Start();
  if (want_metrics || want_report) obs::SetMetricsEnabled(true);

  core::EngineOptions options;
  options.enable_fsteal = !flags.GetBool("no-fsteal", false);
  options.enable_osteal = !flags.GetBool("no-osteal", false);
  options.num_host_threads = host_threads;
  options.num_msg_shards = msg_shards;
  options.contention = *contention;
  options.multipath = *multipath;
  options.expand_backend = expand_backend;
  options.fault_plane = &fault_plane;
  options.checkpoint.every = static_cast<int>(flags.GetInt("ckpt-every", 0));

  core::EpochedGraphContext ectx(g, partition, topology, options, symmetric);
  algos::IncrementalSession<App> session;
  core::RunResult aggregate = session.RunInitial(ectx.ctx(), app);
  aggregate.mutation_plane_active = true;

  // Full-recompute state for --incremental=off (the equality baseline).
  core::RunContext<App> rc_full;
  std::vector<Value> values = session.values();

  std::cout << "epoch 0: initial run, " << aggregate.iterations
            << " iterations, " << aggregate.total_ms << " ms\n";

  for (int e = 1; e <= stream.num_epochs(); ++e) {
    const core::EpochAdvanceStats adv =
        ectx.AdvanceEpoch(stream.BatchAt(e), compact_every);
    ++aggregate.mutation_epochs;
    aggregate.mutation_events_applied += adv.inserted + adv.deleted;
    aggregate.mutation_noops += adv.noops;
    aggregate.mutation_delta_bytes += static_cast<double>(adv.delta_bytes);
    if (adv.compacted) ++aggregate.mutation_compactions;
    aggregate.mutation_apply_ms += adv.apply_ms;
    aggregate.mutation_compact_ms += adv.compact_ms;

    const char* plan_name = "full";
    double restore_ms = 0.0;
    core::RunResult r;
    if (incremental) {
      auto er = session.RunEpoch(ectx.ctx(), adv.effective);
      plan_name = algos::EpochPlanKindName(er.kind);
      switch (er.kind) {
        case algos::EpochPlanKind::kSkip:
          ++aggregate.mutation_skipped_epochs;
          break;
        case algos::EpochPlanKind::kIncremental:
          ++aggregate.mutation_incremental_epochs;
          break;
        case algos::EpochPlanKind::kFallback:
          ++aggregate.mutation_fallbacks;
          break;
      }
      restore_ms = er.restore_ms;
      aggregate.mutation_restore_ms += er.restore_ms;
      r = std::move(er.result);
      values = session.values();
    } else {
      core::GumEngine<App> engine(&ectx.ctx());
      r = engine.Run(app, rc_full);
      values = rc_full.state.values;
    }
    aggregate.iterations += r.iterations;
    aggregate.total_ms +=
        adv.apply_ms + adv.compact_ms + restore_ms + r.total_ms;
    aggregate.edges_processed += r.edges_processed;
    aggregate.messages_sent += r.messages_sent;
    aggregate.stolen_edges_total += r.stolen_edges_total;
    if (r.iterations > 0) {
      aggregate.timeline = std::move(r.timeline);
      aggregate.link_bytes = std::move(r.link_bytes);
      aggregate.payload_bytes = std::move(r.payload_bytes);
      aggregate.link_busy_ms = std::move(r.link_busy_ms);
    }

    std::cout << "epoch " << e << ": +" << adv.inserted << "/-" << adv.deleted
              << " edges (" << adv.noops << " noop"
              << (adv.compacted ? ", compacted" : "") << "), plan "
              << plan_name << ", " << r.iterations << " iterations, "
              << (adv.apply_ms + adv.compact_ms + restore_ms + r.total_ms)
              << " ms\n";
  }

  if (want_metrics || want_report) obs::SetMetricsEnabled(false);
  if (want_trace) {
    trace.Stop();
    trace.AddSimulatedTimeline(aggregate.timeline);
    std::ofstream out(flags.GetString("trace", ""));
    trace.WriteChromeTrace(out);
  }
  if (want_metrics) {
    std::ofstream out(flags.GetString("metrics", ""));
    obs::MetricsRegistry::Global().WriteJson(out);
  }
  if (want_report) {
    obs::RunReportMeta meta;
    meta.system = "gum";
    meta.algorithm = flags.GetString("algo", "bfs");
    meta.dataset = flags.Has("graph") ? flags.GetString("graph", "")
                                      : flags.GetString("gen", "");
    meta.num_devices = partition.num_parts;
    meta.config = {
        {"contention", flags.GetString("contention", "off")},
        {"partitioner", flags.GetString("partitioner", "random")},
        {"host_threads", std::to_string(host_threads)},
        {"msg_shards", std::to_string(msg_shards)},
        {"fsteal", flags.GetBool("no-fsteal", false) ? "off" : "on"},
        {"osteal", flags.GetBool("no-osteal", false) ? "off" : "on"},
        {"expand", core::ExpandBackendKindName(expand_backend)},
        {"mutations", flags.GetString("mutations", "none")},
        {"mutation_seed", std::to_string(flags.GetInt("mutation-seed", 1))},
        {"compact_every", std::to_string(compact_every)},
        {"incremental", incremental ? "on" : "off"},
    };
    std::ofstream out(flags.GetString("report", ""));
    obs::WriteRunReport(out, meta, aggregate, &obs::MetricsRegistry::Global());
  }

  std::cout << "engine:          gum\n"
            << "iterations:      " << aggregate.iterations << "\n"
            << "simulated time:  " << aggregate.total_ms << " ms\n"
            << "edges processed: " << aggregate.edges_processed << "\n"
            << "messages sent:   " << aggregate.messages_sent << "\n"
            << "mutations:       " << aggregate.mutation_epochs << " epochs, "
            << aggregate.mutation_events_applied << " applied ("
            << aggregate.mutation_noops << " noop), "
            << aggregate.mutation_delta_bytes << " delta bytes, "
            << aggregate.mutation_compactions << " compactions\n"
            << "recompute:       " << (incremental ? "incremental" : "full")
            << " (" << aggregate.mutation_incremental_epochs
            << " incremental, " << aggregate.mutation_skipped_epochs
            << " skipped, " << aggregate.mutation_fallbacks
            << " fallbacks), apply " << aggregate.mutation_apply_ms
            << " ms, compact " << aggregate.mutation_compact_ms
            << " ms, restore " << aggregate.mutation_restore_ms << " ms\n";
  if (flags.GetBool("timeline", false)) {
    std::cout << aggregate.timeline.RenderAscii(96);
  }
  if (flags.GetBool("show-links", false)) {
    std::cout << "link utilization (" << sim::ContentionModelName(*contention)
              << " contention):\n"
              << sim::CommPlane::RenderAsciiTable(aggregate.link_bytes,
                                                  aggregate.link_busy_ms,
                                                  aggregate.total_ms);
  }
  if (flags.Has("timeline-csv")) {
    std::ofstream out(flags.GetString("timeline-csv", ""));
    aggregate.timeline.WriteCsv(out);
  }
  if (flags.Has("save-values")) {
    std::ofstream out(flags.GetString("save-values", ""));
    for (size_t v = 0; v < values.size(); ++v) {
      out << v << " " << values[v] << "\n";
    }
  }
  return 0;
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

  const auto algo_or = flags.GetEnum(
      "algo", "bfs", {"bfs", "sssp", "wcc", "pr", "dpr", "astar"});
  if (!algo_or.ok()) {
    std::cerr << algo_or.status().ToString() << "\n";
    PrintUsage();
    return 1;
  }
  const std::string algo = *algo_or;
  if (flags.Has("target") && algo != "astar") {
    std::cerr << "--target requires --algo=astar\n";
    return 1;
  }
  // A negative round count would make PageRank data-driven with every
  // vertex active, which never converges.
  const auto pr_rounds_or = flags.GetIntInRange(
      "pr-rounds", 20, 0, std::numeric_limits<int>::max());
  if (!pr_rounds_or.ok()) {
    std::cerr << pr_rounds_or.status().ToString() << "\n";
    return 1;
  }
  const int pr_rounds = static_cast<int>(*pr_rounds_or);
  graph::CsrBuildOptions build;
  build.symmetrize = algo == "wcc";
  auto g = graph::CsrGraph::FromEdgeList(*edges, build);
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

  graph::VertexId source = 0;
  if (flags.Has("source")) {
    source = static_cast<graph::VertexId>(flags.GetInt("source", 0));
    if (source >= g->num_vertices()) {
      std::cerr << "--source out of range\n";
      return 1;
    }
  } else {
    for (graph::VertexId v = 0; v < g->num_vertices(); ++v) {
      if (g->OutDegree(v) > g->OutDegree(source)) source = v;
    }
  }

  // Parse + bind the mutation plan before any dispatch so an invalid spec
  // fails loudly without running anything. "none" stays on the static path
  // (byte-identical to a run without the flag).
  graph::MutationStream mstream;
  if (flags.Has("mutations")) {
    auto mplan = graph::MutationPlan::Parse(flags.GetString("mutations", ""));
    if (!mplan.ok()) {
      std::cerr << mplan.status().ToString() << "\n";
      return 1;
    }
    if (!mplan->empty()) {
      auto ms = graph::MutationStream::Create(
          *mplan, *g,
          static_cast<uint64_t>(flags.GetInt("mutation-seed", 1)));
      if (!ms.ok()) {
        std::cerr << ms.status().ToString() << "\n";
        return 1;
      }
      mstream = std::move(*ms);
    }
  }
  if (mstream.active()) {
    if (flags.GetString("engine", "gum") != "gum") {
      std::cerr << "--mutations requires --engine=gum\n";
      return 1;
    }
    if (flags.Has("sources")) {
      std::cerr << "--mutations does not compose with --sources\n";
      return 1;
    }
    if (algo == "bfs") {
      algos::BfsApp app;
      app.source = source;
      return RunMutationStream(flags, *g, *partition, *topology, app, mstream,
                               /*symmetric=*/false);
    }
    if (algo == "sssp") {
      algos::SsspApp app;
      app.source = source;
      return RunMutationStream(flags, *g, *partition, *topology, app, mstream,
                               /*symmetric=*/false);
    }
    if (algo == "wcc") {
      algos::WccApp app;
      return RunMutationStream(flags, *g, *partition, *topology, app, mstream,
                               /*symmetric=*/true);
    }
    if (algo == "pr") {
      algos::PageRankApp app;
      app.num_vertices = g->num_vertices();
      app.rounds = pr_rounds;
      return RunMutationStream(flags, *g, *partition, *topology, app, mstream,
                               /*symmetric=*/false);
    }
    std::cerr << "--mutations requires --algo=bfs|sssp|wcc|pr\n";
    return 1;
  }

  if (flags.Has("sources")) {
    const auto sources_or = flags.GetIntList("sources", {});
    if (!sources_or.ok()) {
      std::cerr << sources_or.status().ToString() << "\n";
      return 1;
    }
    if (sources_or->empty() ||
        sources_or->size() > static_cast<size_t>(algos::kMaxBatchLanes)) {
      std::cerr << "--sources takes 1.." << algos::kMaxBatchLanes
                << " vertices\n";
      return 1;
    }
    std::vector<graph::VertexId> batch_sources;
    for (const int64_t s : *sources_or) {
      if (s < 0 || s >= static_cast<int64_t>(g->num_vertices())) {
        std::cerr << "--sources vertex " << s << " out of range\n";
        return 1;
      }
      batch_sources.push_back(static_cast<graph::VertexId>(s));
    }
    if (flags.GetString("engine", "gum") != "gum") {
      std::cerr << "--sources requires --engine=gum\n";
      return 1;
    }
    if (flags.GetString("mode", "bsp") == "async") {
      std::cerr << "--mode=async does not compose with --sources (the "
                   "bit-parallel batch has no per-vertex priority)\n";
      return 1;
    }
    if (algo == "bfs") {
      algos::MultiSourceBfsApp app(std::move(batch_sources));
      return RunAndReport(flags, *g, *partition, *topology, std::move(app));
    }
    if (algo == "sssp") {
      algos::MultiSourceSsspApp app(std::move(batch_sources));
      return RunAndReport(flags, *g, *partition, *topology, std::move(app));
    }
    std::cerr << "--sources requires --algo=bfs or --algo=sssp\n";
    return 1;
  }

  if (algo == "bfs") {
    algos::BfsApp app;
    app.source = source;
    return RunAndReport(flags, *g, *partition, *topology, app);
  }
  if (algo == "sssp") {
    algos::SsspApp app;
    app.source = source;
    return RunAndReport(flags, *g, *partition, *topology, app);
  }
  if (algo == "wcc") {
    algos::WccApp app;
    return RunAndReport(flags, *g, *partition, *topology, app);
  }
  if (algo == "pr") {
    algos::PageRankApp app;
    app.num_vertices = g->num_vertices();
    app.rounds = pr_rounds;
    return RunAndReport(flags, *g, *partition, *topology, app);
  }
  if (algo == "dpr") {
    algos::DeltaPageRankApp app;
    app.num_vertices = g->num_vertices();
    app.epsilon = flags.GetDouble("epsilon", 1e-9);
    return RunAndReport(flags, *g, *partition, *topology, app);
  }
  if (algo == "astar") {
    algos::AStarApp app;
    app.source = source;
    app.target = g->num_vertices() - 1;
    if (flags.Has("target")) {
      const int64_t t = flags.GetInt("target", 0);
      if (t < 0 || t >= static_cast<int64_t>(g->num_vertices())) {
        std::cerr << "--target out of range\n";
        return 1;
      }
      app.target = static_cast<graph::VertexId>(t);
    }
    // The grid layout is only known for the road generator; elsewhere the
    // heuristic stays empty and A* degenerates to SSSP visit order (the
    // converged distances are identical either way).
    if (flags.GetString("gen", "") == "road") {
      app.heuristic = algos::GridManhattanHeuristic(
          *g, static_cast<uint32_t>(flags.GetInt("rows", 128)),
          static_cast<uint32_t>(flags.GetInt("cols", 128)), app.target);
    }
    return RunAndReport(flags, *g, *partition, *topology, std::move(app));
  }
  std::cerr << "unknown --algo=" << algo << "\n";
  PrintUsage();
  return 1;
}
