#include "cli_setup.h"

#include <fstream>
#include <iostream>
#include <limits>
#include <utility>

#include "graph/generators.h"
#include "graph/io.h"
#include "obs/metrics.h"
#include "sim/comm_plane.h"
#include "sim/transfer_plan.h"

namespace gum::cli {

namespace {

// Upper bounds far past any real use, so a typo cannot ask for millions of
// threads or edges per vertex. --host-threads and --msg-shards take 0 for
// the hardware concurrency and the thread count respectively; a negative
// --edge-factor would size the generators' edge arrays from a wrapped
// count.
constexpr int kMaxThreads = 1024;
constexpr double kMaxEdgeFactor = 1024;

Result<graph::EdgeList> LoadOrGenerate(const SetupFlags& s) {
  if (!s.graph_path.empty()) return graph::LoadEdgeListText(s.graph_path);
  const auto knobs = [&s](auto opt) {  // RMAT and web crawl
    opt.scale = s.scale;
    opt.edge_factor = s.edge_factor;
    opt.weighted = s.weighted;
    opt.seed = s.seed;
    return opt;
  };
  if (s.gen == "rmat") return graph::Rmat(knobs(graph::RmatOptions{}));
  if (s.gen == "web") return graph::WebCrawl(knobs(graph::WebCrawlOptions{}));
  if (s.gen == "road") {
    return graph::RoadGrid({.rows = s.rows, .cols = s.cols, .seed = s.seed});
  }
  const graph::VertexId n = graph::VertexId{1} << s.scale;  // --gen=er
  const auto m = static_cast<graph::EdgeId>(s.edge_factor * n);
  return graph::ErdosRenyi(n, m, s.weighted, s.seed);
}

}  // namespace

Result<int> GetIntFlag(const FlagParser& flags, const std::string& name,
                       int default_value, int min_value, int max_value) {
  GUM_ASSIGN_OR_RETURN(
      const int64_t value,
      flags.GetIntInRange(name, default_value, min_value, max_value));
  return static_cast<int>(value);
}

Result<uint64_t> GetSeedFlag(const FlagParser& flags,
                             const std::string& name) {
  GUM_ASSIGN_OR_RETURN(
      const int64_t value,
      flags.GetIntInRange(name, 1, 0, std::numeric_limits<int64_t>::max()));
  return static_cast<uint64_t>(value);
}

Result<SetupFlags> ParseSetupFlags(const FlagParser& flags) {
  SetupFlags s;
  s.gen = flags.GetString("gen", "");
  if (flags.Has("graph")) {
    s.graph_path = flags.GetString("graph", "");
    if (s.graph_path.empty()) {
      return Status::InvalidArgument("--graph needs a PATH");
    }
  } else if (s.gen != "rmat" && s.gen != "web" && s.gen != "road" &&
             s.gen != "er") {
    return Status::InvalidArgument(
        "need --graph=PATH or --gen=rmat|web|road|er");
  }
  // RMAT, web and ER sizes are 2^scale vertices; the generators CHECK the
  // same range.
  GUM_ASSIGN_OR_RETURN(s.scale, GetIntFlag(flags, "scale", 14, 1, 30));
  GUM_ASSIGN_OR_RETURN(
      s.edge_factor,
      flags.GetDoubleInRange("edge-factor", s.gen == "web" ? 12 : 16, 0,
                             kMaxEdgeFactor));
  s.weighted = flags.GetBool("weighted", false);
  GUM_ASSIGN_OR_RETURN(s.seed, GetSeedFlag(flags, "seed"));
  GUM_ASSIGN_OR_RETURN(const int rows, GetIntFlag(flags, "rows", 128, 1));
  GUM_ASSIGN_OR_RETURN(const int cols, GetIntFlag(flags, "cols", 128, 1));
  // RoadGrid CHECKs the same vertex bound.
  if (static_cast<uint64_t>(rows) * static_cast<uint64_t>(cols) >=
      (uint64_t{1} << 31)) {
    return Status::InvalidArgument(
        "--rows=" + std::to_string(rows) + " x --cols=" +
        std::to_string(cols) + " exceeds 2^31 - 1 grid vertices");
  }
  s.rows = static_cast<uint32_t>(rows);
  s.cols = static_cast<uint32_t>(cols);

  // The hybrid cube-mesh topology has at most 8 devices.
  GUM_ASSIGN_OR_RETURN(s.devices, GetIntFlag(flags, "devices", 8, 1, 8));
  GUM_ASSIGN_OR_RETURN(
      const std::string partitioner,
      flags.GetEnum("partitioner", "random", {"random", "seg", "metis"}));
  s.partition.kind = partitioner == "seg" ? graph::PartitionerKind::kSegment
                     : partitioner == "metis"
                         ? graph::PartitionerKind::kMetisLike
                         : graph::PartitionerKind::kRandom;

  core::EngineOptions& o = s.options;
  GUM_ASSIGN_OR_RETURN(o.num_host_threads,
                       GetIntFlag(flags, "host-threads", 0, 0, kMaxThreads));
  GUM_ASSIGN_OR_RETURN(o.num_msg_shards,
                       GetIntFlag(flags, "msg-shards", 0, 0, kMaxThreads));
  GUM_ASSIGN_OR_RETURN(
      o.contention,
      sim::ParseContentionModel(flags.GetString("contention", "off")));
  GUM_ASSIGN_OR_RETURN(
      o.multipath,
      sim::ParseMultipathMode(flags.GetString("multipath", "off")));
  GUM_ASSIGN_OR_RETURN(
      const std::string expand,
      flags.GetEnum("expand", "scatter", {"scatter", "spmv", "auto"}));
  core::ParseExpandBackendKind(expand, &o.expand_backend);
  o.enable_fsteal = !flags.GetBool("no-fsteal", false);
  o.enable_osteal = !flags.GetBool("no-osteal", false);
  GUM_ASSIGN_OR_RETURN(o.checkpoint.every,
                       GetIntFlag(flags, "ckpt-every", 0, 0));

  GUM_ASSIGN_OR_RETURN(s.fault_seed, GetSeedFlag(flags, "fault-seed"));
  GUM_ASSIGN_OR_RETURN(
      const fault::FaultPlan plan,
      fault::FaultPlan::Parse(flags.GetString("fault-plan", "none")));
  GUM_ASSIGN_OR_RETURN(s.fault_plane, fault::FaultPlane::Create(
                                          plan, s.devices, s.fault_seed));

  GUM_ASSIGN_OR_RETURN(
      s.mutation_plan,
      graph::MutationPlan::Parse(flags.GetString("mutations", "none")));
  GUM_ASSIGN_OR_RETURN(s.mutation_seed, GetSeedFlag(flags, "mutation-seed"));
  GUM_ASSIGN_OR_RETURN(s.compact_every,
                       GetIntFlag(flags, "compact-every", 0, 0));
  return s;
}

Result<Setup> BuildSetup(const SetupFlags& s, bool symmetrize) {
  GUM_ASSIGN_OR_RETURN(const graph::EdgeList edges, LoadOrGenerate(s));
  graph::CsrBuildOptions build;
  build.symmetrize = symmetrize;
  GUM_ASSIGN_OR_RETURN(graph::CsrGraph g,
                       graph::CsrGraph::FromEdgeList(edges, build));
  std::cout << "graph:           " << g.num_vertices() << " vertices, "
            << g.num_edges() << " edges\n";
  GUM_ASSIGN_OR_RETURN(graph::Partition partition,
                       graph::PartitionGraph(g, s.devices, s.partition));
  GUM_ASSIGN_OR_RETURN(sim::Topology topology,
                       sim::Topology::HybridCubeMeshSubset(s.devices));
  graph::MutationStream mutations;
  if (!s.mutation_plan.empty()) {
    GUM_ASSIGN_OR_RETURN(mutations, graph::MutationStream::Create(
                                        s.mutation_plan, g,
                                        s.mutation_seed));
  }
  return Setup{std::move(g), std::move(partition), std::move(topology),
               std::move(mutations)};
}

Result<std::vector<graph::VertexId>> GetVertexList(const FlagParser& flags,
                                                   const std::string& name,
                                                   const graph::CsrGraph& g) {
  GUM_ASSIGN_OR_RETURN(const std::vector<int64_t> list,
                       flags.GetIntList(name, {}));
  std::vector<graph::VertexId> vertices;
  for (const int64_t v : list) {
    if (v < 0 || v >= static_cast<int64_t>(g.num_vertices())) {
      return Status::InvalidArgument("--" + name + " vertex " +
                                     std::to_string(v) + " out of range");
    }
    vertices.push_back(static_cast<graph::VertexId>(v));
  }
  return vertices;
}

int Fail(const Status& status, void (*print_usage)()) {
  std::cerr << status.ToString() << "\n";
  if (print_usage != nullptr) print_usage();
  return 1;
}

ObsArtifacts::ObsArtifacts(const FlagParser& flags) : flags_(flags) {
  if (flags.Has("trace")) trace_.Start();
  if (flags.Has("metrics") || flags.Has("report")) {
    obs::SetMetricsEnabled(true);
  }
}

void ObsArtifacts::Finish(const sim::Timeline* timeline) {
  obs::SetMetricsEnabled(false);
  if (trace_.recording()) {
    trace_.Stop();
    if (timeline != nullptr) trace_.AddSimulatedTimeline(*timeline);
    std::ofstream out(flags_.GetString("trace", ""));
    trace_.WriteChromeTrace(out);
  }
  if (flags_.Has("metrics")) {
    std::ofstream out(flags_.GetString("metrics", ""));
    obs::MetricsRegistry::Global().WriteJson(out);
  }
}

obs::RunReportMeta ObsArtifacts::ReportMeta(std::string system,
                                            int num_devices) const {
  obs::RunReportMeta meta;
  meta.system = std::move(system);
  meta.algorithm = flags_.GetString("algo", "bfs");
  meta.dataset = flags_.Has("graph") ? flags_.GetString("graph", "")
                                     : flags_.GetString("gen", "");
  meta.num_devices = num_devices;
  return meta;
}

void ObsArtifacts::WriteReport(const obs::RunReportMeta& meta,
                               const core::RunResult& result) const {
  std::ofstream out(flags_.GetString("report", ""));
  obs::WriteRunReport(out, meta, result, &obs::MetricsRegistry::Global());
}

void ObsArtifacts::WriteServeReport(const obs::RunReportMeta& meta,
                                    const obs::ServeReportStats& stats) const {
  std::ofstream out(flags_.GetString("report", ""));
  obs::WriteServeReport(out, meta, stats, &obs::MetricsRegistry::Global());
}

}  // namespace gum::cli
