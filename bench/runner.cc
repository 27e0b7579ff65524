#include "bench/runner.h"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <string>

#include "algos/apps.h"
#include "algos/dobfs.h"
#include "algos/near_far_sssp.h"
#include "baselines/groute_cc.h"
#include "baselines/groute.h"
#include "baselines/gunrock.h"
#include "common/logging.h"
#include "core/engine.h"
#include "core/fast_wcc.h"
#include "graph/frontier_features.h"
#include "graph/stats.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "sim/kernel_cost.h"
#include "sim/topology.h"

namespace gum::bench {

const char* SystemName(System system) {
  switch (system) {
    case System::kGunrock:
      return "Gunrock";
    case System::kGroute:
      return "Groute";
    case System::kGum:
      return "Gum";
  }
  return "?";
}

const char* AlgoName(Algo algo) {
  switch (algo) {
    case Algo::kBfs:
      return "BFS";
    case Algo::kWcc:
      return "WCC";
    case Algo::kPr:
      return "PR";
    case Algo::kSssp:
      return "SSSP";
  }
  return "?";
}

sim::DeviceParams BenchDeviceParams() {
  sim::DeviceParams dev;
  dev.base_edge_ns = 180.0;  // 0.45 ns/edge x ~400 graph-scale factor
  return dev;
}

namespace {

// Executes one cell; the report plumbing lives in the RunBenchmark wrapper.
core::RunResult RunBenchmarkImpl(const DatasetGraphs& data,
                                 const RunConfig& config) {
  const graph::CsrGraph& g =
      config.algo == Algo::kWcc ? data.symmetric : data.directed;

  graph::PartitionOptions popt;
  popt.kind = config.partitioner;
  popt.seed = config.partition_seed;
  auto partition = graph::PartitionGraph(g, config.devices, popt);
  GUM_CHECK_OK(partition.status());

  auto topology = sim::Topology::HybridCubeMeshSubset(config.devices);
  GUM_CHECK_OK(topology.status());

  const graph::VertexId source = PickSource(g);

  // The systems differ in options and in the algorithms they special-case
  // below; every other cell runs one of the four apps.
  core::EngineOptions opt;
  const ml::RegressionModel* cost_model = nullptr;
  switch (config.system) {
    case System::kGum: {
      opt = config.gum;
      // Calibrate the device unless the caller supplied custom parameters
      // (fig10 uses Gunrock-grade pipeline constants for its "base" bar).
      if (opt.device.base_edge_ns == sim::DeviceParams{}.base_edge_ns) {
        opt.device = BenchDeviceParams();
      }
      cost_model = config.cost_model;
      opt.contention = config.contention;
      opt.multipath = config.multipath;
      if (config.algo != Algo::kWcc || config.force_labelprop_wcc) break;
      // GSwitch-style variant selection on estimated cost: min-label
      // propagation costs ~diameter barriers + ~2.5 edge passes;
      // FastWcc (core/fast_wcc.h, the libgrape-lite scheme) is
      // diameter-independent but hooks every edge each of ~4 rounds.
      const auto whole = graph::ExtractFrontierFeatures(
          g, partition->part_vertices.empty()
                 ? std::vector<graph::VertexId>{}
                 : partition->part_vertices[0]);
      const double edge_ns = sim::TrueEdgeCostNs(whole, opt.device);
      const double edges = static_cast<double>(g.num_edges());
      const double barrier_ms =
          (opt.device.sync_per_peer_us * config.devices +
           5 * sim::kKernelLaunchUs) /
          1000.0;
      const double fastwcc_ms = 4.0 * 1.15 * edges * edge_ns / 1e6;
      const double labelprop_ms =
          graph::PseudoDiameter(g) * 1.5 * barrier_ms +
          2.5 * edges * edge_ns / 1e6;
      if (fastwcc_ms < labelprop_ms) {
        core::FastWccOptions wcc_opt;
        wcc_opt.device = opt.device;
        wcc_opt.contention = config.contention;
        return core::FastWcc(g, *partition, *topology, wcc_opt);
      }
      break;
    }
    case System::kGunrock: {
      sim::DeviceParams dev = BenchDeviceParams();
      // Gunrock's BSP pipeline (advance/filter/separate + per-peer buffer
      // manipulation, paper Fig. 4a) carries a heavier per-iteration
      // constant than GUM's aggregated path; paper Fig. 1 measures it at
      // "several ms" per iteration on 8 GPUs.
      dev.sync_per_peer_us = 250.0;
      // Algorithm-specific single-GPU boost (paper Exp-2). BFS and SSSP get
      // their real single-GPU algorithms instead, below.
      const double boost = config.algo == Algo::kWcc  ? 0.90
                           : config.algo == Algo::kPr ? 0.88
                                                      : 1.0;
      opt = baselines::GunrockEngineOptions(dev, config.contention, boost);
      if (config.devices == 1 && config.algo == Algo::kBfs) {
        // Gunrock's celebrated single-GPU BFS is direction-optimized
        // (Beamer push/pull); it is what makes its 1-GPU numbers hard
        // to scale past (paper Exp-2).
        algos::DoBfsOptions dobfs;
        dobfs.device = opt.device;
        return algos::DirectionOptimizedBfs(g, *partition, *topology, source,
                                            dobfs);
      }
      if (config.devices == 1 && config.algo == Algo::kSssp) {
        // Near-far delta-stepping (Davidson et al.): Gunrock's strong
        // single-GPU SSSP that is hard to scale out (paper Exp-2).
        algos::NearFarOptions nf;
        nf.device = opt.device;
        return algos::NearFarSssp(g, *partition, *topology, source, nf);
      }
      break;
    }
    case System::kGroute:
      opt = baselines::GrouteEngineOptions(BenchDeviceParams(),
                                           config.contention);
      if (config.algo == Algo::kWcc) {
        // Groute's connected components is its dedicated diameter-
        // independent local-UF + label-exchange algorithm, not label
        // propagation (see baselines/groute_cc.h).
        baselines::GrouteCcOptions cc_opt;
        cc_opt.device = BenchDeviceParams();
        cc_opt.contention = config.contention;
        return baselines::GrouteCcEngine(&g, *partition, cc_opt).Run();
      }
      break;
  }

  // Groute runs its preset on its own ring; GUM and Gunrock run the BSP
  // engine on the hybrid cube mesh.
  const auto run = [&](auto app) {
    if (config.system == System::kGroute) {
      return baselines::RunGroute(g, *partition, opt, app);
    }
    return core::GumEngine<decltype(app)>(&g, *partition, *topology, opt,
                                          cost_model)
        .Run(app);
  };
  switch (config.algo) {
    case Algo::kBfs:
      return run(algos::BfsApp{.source = source});
    case Algo::kSssp:
      return run(algos::SsspApp{.source = source});
    case Algo::kWcc:
      return run(algos::WccApp{});
    case Algo::kPr:
      // Benchmarked PR is delta-PageRank (the paper's intro names
      // delta-PageRank among the long-tail workloads OSteal targets).
      return run(algos::DeltaPageRankApp{.num_vertices = g.num_vertices(),
                                         .epsilon = 1e-13});
  }
  GUM_CHECK(false) << "unreachable";
  return {};
}

}  // namespace

core::RunResult RunBenchmark(const DatasetGraphs& data,
                             const RunConfig& config) {
  std::string report_dir = config.report_dir;
  if (report_dir.empty()) {
    const char* env = std::getenv("GUM_BENCH_REPORT_DIR");
    if (env != nullptr) report_dir = env;
  }
  if (report_dir.empty()) return RunBenchmarkImpl(data, config);

  // Per-run metrics snapshot: the harnesses run cells serially, so resetting
  // the global registry around the cell leaves exactly this run's series in
  // the report. Metrics recording does not affect simulated results.
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.Reset();
  obs::SetMetricsEnabled(true);
  core::RunResult result = RunBenchmarkImpl(data, config);
  obs::SetMetricsEnabled(false);

  obs::RunReportMeta meta;
  meta.system = SystemName(config.system);
  meta.algorithm = AlgoName(config.algo);
  meta.dataset = data.spec.abbr;
  meta.num_devices = config.devices;
  meta.config = {
      {"partitioner", graph::PartitionerName(config.partitioner)},
      {"partition_seed", std::to_string(config.partition_seed)},
      {"contention", sim::ContentionModelName(config.contention)},
      {"pagerank_rounds", std::to_string(config.pagerank_rounds)},
      {"cost_model", config.cost_model != nullptr ? "learned" : "oracle"},
  };
  // Gated like gum_cli: multipath-off cell reports stay byte-identical to
  // the pre-multipath schema.
  if (config.multipath == sim::MultipathMode::kOn) {
    meta.config.emplace_back("multipath",
                             sim::MultipathModeName(config.multipath));
  }

  std::string name;
  name += meta.system;
  name += '_';
  name += meta.algorithm;
  name += '_';
  name += meta.dataset;
  name += '_';
  name += std::to_string(config.devices);
  name += "dev.report.json";
  for (char& c : name) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  const std::string path = report_dir + "/" + name;

  std::ofstream out(path);
  if (!out) {
    GUM_LOG(Warning) << "cannot write run report to " << path;
    return result;
  }
  obs::WriteRunReport(out, meta, result, &metrics);
  return result;
}

}  // namespace gum::bench
