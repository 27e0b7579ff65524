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
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "algos/apps.h"
#include "algos/astar.h"
#include "algos/incremental.h"
#include "algos/multi_source.h"
#include "baselines/groute_like.h"
#include "baselines/gunrock_like.h"
#include "cli_setup.h"
#include "common/flags.h"
#include "core/engine.h"
#include "core/epoch_context.h"
#include "sim/comm_plane.h"
#include "sim/transfer_plan.h"

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

// Positive and finite: the admissible --delta and --epsilon values.
constexpr double kMinPositive = std::numeric_limits<double>::min();
constexpr double kMaxFinite = std::numeric_limits<double>::max();

// Every gum_cli flag, parsed and cross-checked once in main: the App
// templates below only run what this describes.
struct CliFlags {
  cli::SetupFlags shared;  // shared.options also carries --mode and async
  std::string engine;
  std::string algo;
  int pr_rounds = 20;
  double epsilon = 1e-9;
  bool incremental = true;
  // Bound to the built graph by BindVertexFlags.
  graph::VertexId source = 0;
  graph::VertexId target = 0;
  std::vector<graph::VertexId> batch_sources;  // --sources
};

Result<CliFlags> ParseCliFlags(const FlagParser& flags) {
  CliFlags c;
  GUM_RETURN_IF_ERROR(flags.KnownFlagsOnly(
      {std::begin(kKnownFlags), std::end(kKnownFlags)}));
  GUM_ASSIGN_OR_RETURN(c.shared, cli::ParseSetupFlags(flags));
  GUM_ASSIGN_OR_RETURN(
      c.engine, flags.GetEnum("engine", "gum", {"gum", "gunrock", "groute"}));
  GUM_ASSIGN_OR_RETURN(
      c.algo, flags.GetEnum("algo", "bfs",
                            {"bfs", "sssp", "wcc", "pr", "dpr", "astar"}));
  // A negative round count would make PageRank data-driven with every
  // vertex active, which never converges.
  GUM_ASSIGN_OR_RETURN(c.pr_rounds, cli::GetIntFlag(flags, "pr-rounds", 20, 0));
  GUM_ASSIGN_OR_RETURN(c.epsilon, flags.GetDoubleInRange(
                                      "epsilon", 1e-9, kMinPositive, 1.0));
  GUM_ASSIGN_OR_RETURN(const std::string incremental,
                       flags.GetEnum("incremental", "on", {"on", "off"}));
  c.incremental = incremental == "on";

  core::EngineOptions& o = c.shared.options;
  const bool gum = c.engine == "gum";
  const bool faulted = c.shared.fault_plane.active() || o.checkpoint.every > 0;
  const bool mutating = !c.shared.mutation_plan.empty();
  const bool batched = flags.Has("sources");
  const auto fail = [](const std::string& msg) {
    return Status::InvalidArgument(msg);
  };
  if (flags.Has("target") && c.algo != "astar") {
    return fail("--target requires --algo=astar");
  }
  // Fixed-round PageRank keeps every vertex active, so the event-driven
  // engine never quiesces.
  if (c.engine == "groute" && c.algo == "pr") {
    return fail("--engine=groute does not support --algo=pr (for PageRank "
                "use --algo=dpr)");
  }
  GUM_ASSIGN_OR_RETURN(o.mode,
                       core::ParseEngineMode(flags.GetString("mode", "bsp")));
  // Features only the gum engine implements.
  const std::pair<bool, const char*> gum_only[] = {
      {o.multipath == sim::MultipathMode::kOn, "--multipath=on"},
      {faulted, "--fault-plan/--ckpt-every"},
      {o.expand_backend != core::ExpandBackendKind::kScatter,
       "--expand=spmv|auto"},
      {o.mode == core::EngineMode::kAsync, "--mode=async"},
      {mutating, "--mutations"},
      {batched, "--sources"},
  };
  for (const auto& [used, what] : gum_only) {
    if (used && !gum) return fail(std::string(what) + " requires --engine=gum");
  }
  // Execution mode (DESIGN.md §15). Every async knob is rejected loudly
  // under --mode=bsp so a forgotten mode switch can't silently no-op, and
  // the whole config is range-checked before anything runs.
  if (o.mode == core::EngineMode::kBsp) {
    for (const char* f :
         {"delta", "worklist", "steal-prob", "steal-batch", "async-seed"}) {
      if (flags.Has(f)) return fail(std::string("--") + f +
                                    " requires --mode=async");
    }
  } else {
    if (faulted) {
      return fail("--mode=async does not compose with --fault-plan/"
                  "--ckpt-every yet");
    }
    if (mutating) return fail("--mutations requires --mode=bsp");
    if (batched) {
      return fail("--mode=async does not compose with --sources (the "
                  "bit-parallel batch has no per-vertex priority)");
    }
    if (c.algo == "pr") {
      return fail("--mode=async does not support --algo=pr (priority-driven "
                  "apps: bfs, sssp, wcc, dpr, astar; for PageRank use "
                  "--algo=dpr)");
    }
    core::AsyncConfig& a = o.async;
    // Absent --delta keeps 0: the app-aware default.
    GUM_ASSIGN_OR_RETURN(a.delta, flags.GetDoubleInRange(
                                      "delta", 0.0, kMinPositive, kMaxFinite));
    GUM_ASSIGN_OR_RETURN(
        a.worklist,
        core::ParseAsyncWorklistKind(flags.GetString("worklist", "buckets")));
    GUM_ASSIGN_OR_RETURN(
        a.steal_prob, flags.GetDoubleInRange("steal-prob", a.steal_prob, 0, 1));
    GUM_ASSIGN_OR_RETURN(a.steal_batch_size, cli::GetIntFlag(
                                                 flags, "steal-batch",
                                                 a.steal_batch_size, 1));
    GUM_ASSIGN_OR_RETURN(a.seed, cli::GetSeedFlag(flags, "async-seed"));
    GUM_RETURN_IF_ERROR(core::ValidateAsyncConfig(a));
  }

  if (mutating) {
    if (batched) return fail("--mutations does not compose with --sources");
    if (c.algo == "dpr" || c.algo == "astar") {
      return fail("--mutations requires --algo=bfs|sssp|wcc|pr");
    }
  }
  if (batched && c.algo != "bfs" && c.algo != "sssp") {
    return fail("--sources requires --algo=bfs or --algo=sssp");
  }
  return c;
}

// --source (default: the max out-degree vertex), --target (default: the
// last vertex) and --sources, range-checked against the built graph.
Status BindVertexFlags(const FlagParser& flags, const graph::CsrGraph& g,
                       CliFlags* c) {
  const int64_t last = static_cast<int64_t>(g.num_vertices()) - 1;
  if (flags.Has("source")) {
    GUM_ASSIGN_OR_RETURN(const int64_t s,
                         flags.GetIntInRange("source", 0, 0, last));
    c->source = static_cast<graph::VertexId>(s);
  } else {
    for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
      if (g.OutDegree(v) > g.OutDegree(c->source)) c->source = v;
    }
  }
  GUM_ASSIGN_OR_RETURN(const int64_t t,
                       flags.GetIntInRange("target", last, 0, last));
  c->target = static_cast<graph::VertexId>(t);
  if (!flags.Has("sources")) return Status::OK();
  GUM_ASSIGN_OR_RETURN(c->batch_sources,
                       cli::GetVertexList(flags, "sources", g));
  if (c->batch_sources.size() > static_cast<size_t>(algos::kMaxBatchLanes)) {
    return Status::InvalidArgument("--sources takes 1.." +
                                   std::to_string(algos::kMaxBatchLanes) +
                                   " vertices");
  }
  return Status::OK();
}

// The parsed flags plus the built setup: everything a run reads.
struct RunEnv {
  const FlagParser& flags;
  const CliFlags& cli;
  const cli::Setup& setup;
};

// Stops the obs recording and writes --trace, --metrics and --report for
// either run path.
void FinishObs(const RunEnv& env, cli::ObsArtifacts& artifacts,
               const core::RunResult& result) {
  artifacts.Finish(&result.timeline);
  if (!artifacts.want_report()) return;
  const cli::SetupFlags& s = env.cli.shared;
  const core::EngineOptions& o = s.options;
  obs::RunReportMeta meta =
      artifacts.ReportMeta(env.cli.engine, env.setup.partition.num_parts);
  meta.config = {
      {"contention", env.flags.GetString("contention", "off")},
      {"partitioner", env.flags.GetString("partitioner", "random")},
      {"host_threads", std::to_string(o.num_host_threads)},
      {"msg_shards", std::to_string(o.num_msg_shards)},
      {"fsteal", o.enable_fsteal ? "on" : "off"},
      {"osteal", o.enable_osteal ? "on" : "off"},
      {"expand", core::ExpandBackendKindName(o.expand_backend)},
  };
  // A streaming report records the mutation knobs and none of the
  // multipath, async or fault keys below.
  if (env.setup.mutations.active()) {
    meta.config.insert(
        meta.config.end(),
        {{"mutations", env.flags.GetString("mutations", "none")},
         {"mutation_seed", std::to_string(s.mutation_seed)},
         {"compact_every", std::to_string(s.compact_every)},
         {"incremental", env.cli.incremental ? "on" : "off"}});
    artifacts.WriteReport(meta, result);
    return;
  }
  // Only a multipath run records the key, so multipath-off reports stay
  // byte-identical to the pre-multipath schema.
  if (o.multipath == sim::MultipathMode::kOn) {
    meta.config.emplace_back("multipath", sim::MultipathModeName(o.multipath));
  }
  // Only an async run records async keys, so mode-off reports stay
  // byte-identical to the pre-async schema (modulo schema_version).
  if (o.mode == core::EngineMode::kAsync) {
    meta.config.emplace_back("mode", core::EngineModeName(o.mode));
    meta.config.emplace_back("worklist",
                             core::AsyncWorklistKindName(o.async.worklist));
    meta.config.emplace_back(
        "delta",
        env.flags.Has("delta") ? std::to_string(o.async.delta) : "auto");
    meta.config.emplace_back("steal_prob", std::to_string(o.async.steal_prob));
    meta.config.emplace_back("steal_batch",
                             std::to_string(o.async.steal_batch_size));
    meta.config.emplace_back("async_seed", std::to_string(o.async.seed));
  }
  // Only a fault-plane run records fault keys; faults-off reports stay
  // byte-identical to the pre-fault-plane schema (modulo schema_version).
  if (s.fault_plane.active() || o.checkpoint.every > 0) {
    meta.config.emplace_back(
        "fault_plan",
        s.fault_plane.active() ? s.fault_plane.Describe() : "none");
    meta.config.emplace_back("fault_seed", std::to_string(s.fault_seed));
    meta.config.emplace_back("ckpt_every",
                             std::to_string(o.checkpoint.every));
  }
  artifacts.WriteReport(meta, result);
}

// The stdout summary plus --timeline, --show-links and --timeline-csv, for
// either run path.
void PrintSummary(const RunEnv& env, const core::RunResult& r) {
  const FlagParser& flags = env.flags;
  const bool mutating = env.setup.mutations.active();
  std::cout << "engine:          " << env.cli.engine << "\n"
            << "iterations:      " << r.iterations << "\n"
            << "simulated time:  " << r.total_ms << " ms\n"
            << "edges processed: " << r.edges_processed << "\n"
            << "messages sent:   " << r.messages_sent << "\n";
  if (mutating) {
    std::cout << "mutations:       " << r.mutation_epochs << " epochs, "
              << r.mutation_events_applied << " applied ("
              << r.mutation_noops << " noop), " << r.mutation_delta_bytes
              << " delta bytes, " << r.mutation_compactions
              << " compactions\n"
              << "recompute:       "
              << (env.cli.incremental ? "incremental" : "full") << " ("
              << r.mutation_incremental_epochs << " incremental, "
              << r.mutation_skipped_epochs << " skipped, "
              << r.mutation_fallbacks << " fallbacks), apply "
              << r.mutation_apply_ms << " ms, compact "
              << r.mutation_compact_ms << " ms, restore "
              << r.mutation_restore_ms << " ms\n";
  } else {
    if (env.cli.engine == "gum") {
      std::cout << "edges stolen:    " << r.stolen_edges_total << "\n"
                << "group shrinks:   " << r.osteal_shrink_events << "\n";
    }
    // Async-only lines: a --mode=bsp run prints byte-identically to the
    // pre-async build.
    if (r.async_active) {
      std::cout << "async:           " << r.async_batches << " batches, "
                << r.async_stale_skips << " stale skips, delta "
                << r.async_delta << "\n"
                << "range steals:    " << r.async_range_steals << " ("
                << r.async_range_steal_entries << " entries, "
                << r.async_range_steal_bytes << " bytes)\n"
                << "quiescence:      " << r.quiescence_rounds
                << " census rounds\n";
    }
    if (r.fault_plan_active) {
      std::cout << "faults:          devices failed " << r.devices_failed
                << ", recoveries " << r.recovery_events
                << ", fragments migrated " << r.fragments_migrated
                << ", recovery charged " << r.RecoveryChargedMs() << " ms\n";
    }
    if (r.checkpoints_taken > 0) {
      std::cout << "checkpoints:     " << r.checkpoints_taken << " ("
                << r.checkpoint_ms_total << " ms charged)\n";
    }
    std::cout << "breakdown (ms):  compute " << r.ComputeMs() << ", comm "
              << r.CommunicationMs() << ", serialization "
              << r.SerializationMs() << ", overhead " << r.OverheadMs()
              << "\n";
  }
  if (flags.GetBool("timeline", false)) {
    std::cout << r.timeline.RenderAscii(96);
  }
  if (flags.GetBool("show-links", false)) {
    std::cout << "link utilization ("
              << sim::ContentionModelName(env.cli.shared.options.contention)
              << " contention):\n"
              << sim::CommPlane::RenderAsciiTable(r.link_bytes,
                                                  r.link_busy_ms, r.total_ms);
    // Streaming stdout carries no multipath table.
    if (r.multipath_active && !mutating) {
      std::cout << sim::RenderMultipathAscii(r.multipath);
    }
  }
  if (flags.Has("timeline-csv")) {
    std::ofstream out(flags.GetString("timeline-csv", ""));
    r.timeline.WriteCsv(out);
  }
}

// Everything after either run path's run: obs artifacts, the stdout
// summary, and --save-values.
template <typename App, typename Value>
int FinishRun(const RunEnv& env, cli::ObsArtifacts& artifacts, const App& app,
              const core::RunResult& r, const std::vector<Value>& values) {
  FinishObs(env, artifacts, r);
  PrintSummary(env, r);
  if (!env.flags.Has("save-values")) return 0;
  std::ofstream out(env.flags.GetString("save-values", ""));
  for (size_t v = 0; v < values.size(); ++v) {
    if constexpr (std::is_same_v<Value, algos::DeltaPageRankApp::State>) {
      out << v << " " << values[v].rank << "\n";
    } else if constexpr (std::is_same_v<Value,
                                        algos::MultiSourceBfsApp::Value>) {
      out << v;
      for (int l = 0; l < app.num_lanes; ++l) out << " " << values[v].depth[l];
      out << "\n";
    } else if constexpr (std::is_same_v<Value,
                                        algos::MultiSourceSsspApp::Value>) {
      out << v;
      for (int l = 0; l < app.num_lanes; ++l) out << " " << values[v].dist[l];
      out << "\n";
    } else {
      out << v << " " << values[v] << "\n";
    }
  }
  return 0;
}

template <typename App>
int RunStatic(const RunEnv& env, App app) {
  const CliFlags& c = env.cli;
  const core::EngineOptions& o = c.shared.options;
  const cli::Setup& s = env.setup;
  core::RunResult result;
  std::vector<typename App::Value> values;
  cli::ObsArtifacts artifacts(env.flags);
  if (c.engine == "gum") {
    core::EngineOptions options = o;
    options.fault_plane = &c.shared.fault_plane;
    core::GumEngine<App> engine(&s.graph, s.partition, s.topology, options);
    result = engine.Run(app, &values);
  } else if (c.engine == "gunrock") {
    baselines::GunrockOptions options;
    options.num_host_threads = o.num_host_threads;
    options.num_msg_shards = o.num_msg_shards;
    options.contention = o.contention;
    baselines::GunrockLikeEngine<App> engine(&s.graph, s.partition,
                                             s.topology, options);
    result = engine.Run(app, &values);
  } else {
    baselines::GrouteOptions options;
    options.contention = o.contention;
    baselines::GrouteLikeEngine<App> engine(&s.graph, s.partition, options);
    result = engine.Run(app, &values);
  }
  // The engine (and its thread pool) is already destroyed, so every worker
  // span has drained.
  return FinishRun(env, artifacts, app, result, values);
}

// Streaming mode (--mutations): the graph advances in epochs and the query
// re-runs after each update batch — incrementally when sound, as a full
// recompute otherwise, with values byte-identical either way. Gum engine
// only; the per-epoch GraphContext rebuild keeps every derived structure
// honest.
template <typename App>
int RunMutating(const RunEnv& env, App app) {
  const CliFlags& c = env.cli;
  const graph::MutationStream& stream = env.setup.mutations;
  cli::ObsArtifacts artifacts(env.flags);
  // The fault plan (if any) replays inside every epoch's run; recovery is
  // byte-exact, so it composes with the incremental/full equivalence.
  core::EngineOptions options = c.shared.options;
  options.fault_plane = &c.shared.fault_plane;

  core::EpochedGraphContext ectx(env.setup.graph, env.setup.partition,
                                 env.setup.topology, options,
                                 /*symmetric=*/c.algo == "wcc");
  algos::IncrementalSession<App> session;
  core::RunResult aggregate = session.RunInitial(ectx.ctx(), app);
  aggregate.mutation_plane_active = true;

  // Full-recompute state for --incremental=off (the equality baseline).
  core::RunContext<App> rc_full;
  std::vector<typename App::Value> values = session.values();

  std::cout << "epoch 0: initial run, " << aggregate.iterations
            << " iterations, " << aggregate.total_ms << " ms\n";

  for (int e = 1; e <= stream.num_epochs(); ++e) {
    const core::EpochAdvanceStats adv =
        ectx.AdvanceEpoch(stream.BatchAt(e), c.shared.compact_every);
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
    if (c.incremental) {
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

  return FinishRun(env, artifacts, app, aggregate, values);
}

// IncrementalSession's apps; ParseCliFlags admits no other with
// --mutations.
template <typename App>
constexpr bool kStreamable =
    std::is_same_v<App, algos::BfsApp> || std::is_same_v<App, algos::SsspApp> ||
    std::is_same_v<App, algos::WccApp> ||
    std::is_same_v<App, algos::PageRankApp>;

template <typename App>
int Run(const RunEnv& env, App app) {
  if constexpr (kStreamable<App>) {
    if (env.setup.mutations.active()) return RunMutating(env, std::move(app));
  }
  return RunStatic(env, std::move(app));
}

// The one --algo (and --sources) to App mapping.
int RunAlgo(const RunEnv& env) {
  const CliFlags& c = env.cli;
  const graph::VertexId n = env.setup.graph.num_vertices();
  if (!c.batch_sources.empty()) {
    return c.algo == "bfs"
               ? Run(env, algos::MultiSourceBfsApp(c.batch_sources))
               : Run(env, algos::MultiSourceSsspApp(c.batch_sources));
  }
  if (c.algo == "bfs") return Run(env, algos::BfsApp{.source = c.source});
  if (c.algo == "sssp") return Run(env, algos::SsspApp{.source = c.source});
  if (c.algo == "wcc") return Run(env, algos::WccApp{});
  if (c.algo == "pr") {
    return Run(env, algos::PageRankApp{.num_vertices = n,
                                       .rounds = c.pr_rounds});
  }
  if (c.algo == "dpr") {
    return Run(env, algos::DeltaPageRankApp{.num_vertices = n,
                                            .epsilon = c.epsilon});
  }
  algos::AStarApp app;  // --algo=astar
  app.source = c.source;
  app.target = c.target;
  // The grid layout is only known for the road generator; elsewhere the
  // heuristic stays empty and A* degenerates to SSSP visit order (the
  // converged distances are identical either way).
  if (c.shared.gen == "road") {
    app.heuristic = algos::GridManhattanHeuristic(
        env.setup.graph, c.shared.rows, c.shared.cols, app.target);
  }
  return Run(env, std::move(app));
}

}  // namespace

int main(int argc, char** argv) {
  const FlagParser flags(argc, argv);
  if (flags.GetBool("help", false)) {
    PrintUsage();
    return 0;
  }
  auto cli_or = ParseCliFlags(flags);
  if (!cli_or.ok()) return cli::Fail(cli_or.status(), PrintUsage);
  CliFlags& c = *cli_or;

  auto setup = cli::BuildSetup(c.shared, /*symmetrize=*/c.algo == "wcc");
  if (!setup.ok()) return cli::Fail(setup.status());
  if (Status s = BindVertexFlags(flags, setup->graph, &c); !s.ok()) {
    return cli::Fail(s);
  }
  return RunAlgo(RunEnv{flags, c, *setup});
}
