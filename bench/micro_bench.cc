// Google-benchmark micro benchmarks for GUM's per-iteration decision
// machinery and the supporting substrates. These bound the overhead terms
// of paper Table IV from below: everything on the critical decision path
// (cost matrix, MILP solve, vertex-range selection, feature extraction)
// must stay in the tens-of-microseconds range for n <= 8 devices.
//
// JSON output goes through the repo's own writer (common/json.h), not
// google-benchmark's built-in --benchmark_out: pass --bench-json=FILE and
// the collected runs (including aggregates and user counters) are emitted
// in the same shape CI's figure harness reads, with the writer's uniform
// escaping and round-trip-safe doubles. The console shows the runs as
// usual, so --bench-json takes only the console --benchmark_format.
// Without --bench-json, google-benchmark's own flags apply unchanged.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <fstream>
#include <iostream>
#include <iterator>
#include <numeric>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"

#include "algos/apps.h"
#include "baselines/groute.h"
#include "common/thread_pool.h"
#include "core/edge_cost_model.h"
#include "core/engine.h"
#include "core/expand/frontier_scatter.h"
#include "core/fsteal.h"
#include "core/message_store.h"
#include "core/osteal.h"
#include "core/vertex_state.h"
#include "graph/csr.h"
#include "graph/frontier_features.h"
#include "graph/generators.h"
#include "graph/mutation.h"
#include "graph/partition.h"
#include "ml/dataset.h"
#include "ml/polynomial_regression.h"
#include "sim/comm_plane.h"
#include "sim/reduction_schedule.h"
#include "sim/topology.h"
#include "sim/transfer_plan.h"
#include "solver/steal_problem.h"

namespace {

using namespace gum;  // NOLINT(build/namespaces)

const graph::CsrGraph& BenchGraph() {
  static const graph::CsrGraph* g = [] {
    graph::RmatOptions opt;
    opt.scale = 14;
    opt.edge_factor = 12;
    opt.seed = 33;
    auto built = graph::CsrGraph::FromEdgeList(graph::Rmat(opt));
    return new graph::CsrGraph(std::move(built).value());
  }();
  return *g;
}

std::vector<std::vector<double>> StealCost(int n) {
  std::vector<std::vector<double>> cost(n, std::vector<double>(n, 1.6));
  for (int i = 0; i < n; ++i) cost[i][i] = 1.0;
  return cost;
}

std::vector<double> StealLoads(int n) {
  std::vector<double> loads(n);
  for (int i = 0; i < n; ++i) loads[i] = 1000.0 * (i + 1) * (i + 1);
  return loads;
}

std::vector<int> AllWorkers(int n) {
  std::vector<int> workers(n);
  std::iota(workers.begin(), workers.end(), 0);
  return workers;
}

// --- the per-iteration decision path ---

void BM_StealLpSolve(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto cost = StealCost(n);
  const auto loads = StealLoads(n);
  const auto workers = AllWorkers(n);
  for (auto _ : state) {
    auto plan = solver::SolveStealProblem(cost, loads, workers);
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_StealLpSolve)->Arg(2)->Arg(4)->Arg(8);

void BM_StealMilpExact(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto cost = StealCost(n);
  const auto loads = StealLoads(n);
  const auto workers = AllWorkers(n);
  solver::StealProblemOptions options;
  options.exact_milp = true;
  for (auto _ : state) {
    auto plan = solver::SolveStealProblem(cost, loads, workers, options);
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_StealMilpExact)->Arg(2)->Arg(4);

void BM_StealGreedy(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto cost = StealCost(n);
  const auto loads = StealLoads(n);
  const auto workers = AllWorkers(n);
  for (auto _ : state) {
    auto plan = solver::GreedyStealPlan(cost, loads, workers);
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_StealGreedy)->Arg(8);

void BM_OStealEnumeration(benchmark::State& state) {
  const auto topo = sim::Topology::HybridCubeMesh8();
  const auto schedule = sim::ReductionSchedule::Build(topo);
  const auto cost = StealCost(8);
  const auto loads = StealLoads(8);
  for (auto _ : state) {
    auto decision = core::DecideOSteal(cost, loads, schedule, 1e5);
    benchmark::DoNotOptimize(decision);
  }
}
BENCHMARK(BM_OStealEnumeration);

void BM_FrontierFeatureExtraction(benchmark::State& state) {
  const auto& g = BenchGraph();
  std::vector<graph::VertexId> frontier(state.range(0));
  for (size_t i = 0; i < frontier.size(); ++i) {
    frontier[i] =
        static_cast<graph::VertexId>((i * 2654435761u) % g.num_vertices());
  }
  for (auto _ : state) {
    auto features = graph::ExtractFrontierFeatures(g, frontier);
    benchmark::DoNotOptimize(features);
  }
  state.SetItemsProcessed(state.iterations() * frontier.size());
}
BENCHMARK(BM_FrontierFeatureExtraction)->Arg(1024)->Arg(16384);

// The frontier's degree prefix comes from the census, taken before Step 3,
// so it is built outside the timed loop.
void BM_SelectStolenRanges(benchmark::State& state) {
  const auto& g = BenchGraph();
  std::vector<graph::EdgeId> prefix(16384);
  graph::EdgeId total = 0;
  for (size_t i = 0; i < prefix.size(); ++i) {
    total += g.OutDegree(static_cast<graph::VertexId>(i));
    prefix[i] = total;
  }
  std::vector<double> quota(8, static_cast<double>(total) / 8);
  const auto workers = AllWorkers(8);
  for (auto _ : state) {
    auto ranges = core::SelectStolenRanges(prefix, quota, workers);
    benchmark::DoNotOptimize(ranges);
  }
  state.SetItemsProcessed(state.iterations() * prefix.size());
}
BENCHMARK(BM_SelectStolenRanges);

void BM_CostModelInference(benchmark::State& state) {
  ml::CostDatasetOptions opt;
  opt.frontiers_per_graph = 60;
  const ml::Dataset data = ml::GenerateDefaultCostDataset(opt);
  ml::PolynomialRegression model(4);
  (void)model.Fit(data);
  graph::FrontierFeatures w;
  w.avg_out_degree = 12;
  w.avg_in_degree = 9;
  w.gini = 0.4;
  w.entropy = 0.8;
  const auto arr = w.ToArray();
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Predict(arr));
  }
}
BENCHMARK(BM_CostModelInference);

// --- the superstep runtime (Step 4 of every iteration) ---

// 8-vGPU all-active BFS expansion under an even steal plan: every executor
// expands a slice of every fragment — the heaviest Step-4 shape. This is
// the loop the host thread pool parallelizes; wall-clock should drop
// roughly with core count while results stay bit-identical (the thread
// count is the benchmark argument).
struct SuperstepFixture {
  const graph::CsrGraph& g = BenchGraph();
  graph::Partition partition;
  core::FrontierSoA frontier;
  core::FrontierCensus census;
  core::FStealDecision fs;
  std::vector<int> owner;
  std::vector<int> active;
  std::vector<core::WorkUnit> units;
  std::vector<uint32_t> values;

  SuperstepFixture() {
    const int n = 8;
    partition =
        std::move(graph::PartitionGraph(g, n, graph::PartitionOptions{}))
            .value();
    frontier.Assign(partition.part_vertices);
    census.Take(g, core::HubCache(), frontier);
    fs.applied = true;
    fs.assignment.assign(n, std::vector<double>(n));
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) fs.assignment[i][j] = census.loads[i] / n;
    }
    owner = AllWorkers(n);
    active = AllWorkers(n);
    units = core::BuildWorkUnits(frontier, fs, census, owner, active);
    values.assign(g.num_vertices(), 0);
  }
};

const SuperstepFixture& GetSuperstepFixture() {
  static const SuperstepFixture* fx = new SuperstepFixture;
  return *fx;
}

void BM_SuperstepExpandBfs8Dev(benchmark::State& state) {
  const SuperstepFixture& fx = GetSuperstepFixture();
  const int threads = static_cast<int>(state.range(0));
  ThreadPool pool(threads);
  const core::ShardMap shards(fx.g.num_vertices(), threads);
  algos::BfsApp app;
  std::vector<uint32_t> values = fx.values;
  std::vector<core::MessageStaging<uint32_t>> staged;
  std::vector<core::UnitCounters> counters;
  for (auto _ : state) {
    core::ExpandSuperstep(&pool, fx.g, fx.partition, nullptr, fx.owner, app,
                          values, fx.frontier, fx.units, shards, &staged,
                          &counters);
    benchmark::DoNotOptimize(staged.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fx.g.num_edges()));
}
BENCHMARK(BM_SuperstepExpandBfs8Dev)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime();

// One full push superstep, FrontierScatterBackend::Expand: the expansion,
// then each destination shard's merge and apply (shards = threads here, as
// the engine cuts them). The frontier the superstep replaces is restored
// untimed.
void BM_SuperstepFullBfs8Dev(benchmark::State& state) {
  const SuperstepFixture& fx = GetSuperstepFixture();
  const int threads = static_cast<int>(state.range(0));
  ThreadPool pool(threads);
  const core::ShardMap shards(fx.g.num_vertices(), threads);
  algos::BfsApp app;
  std::vector<uint32_t> values = fx.values;
  core::FrontierScatterBackend<algos::BfsApp> backend;
  core::ExpandCounters counters;
  core::MessageStore<uint32_t> store(fx.g.num_vertices());
  core::FrontierSoA frontier = fx.frontier;
  std::vector<double> apply_msgs;
  for (auto _ : state) {
    backend.Expand(&pool, fx.g, fx.partition, nullptr, fx.owner, fx.active,
                   fx.fs, fx.census, app, values, &frontier, shards, store,
                   &apply_msgs, &counters);
    benchmark::DoNotOptimize(apply_msgs.data());
    state.PauseTiming();
    frontier = fx.frontier;
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fx.g.num_edges()));
}
BENCHMARK(BM_SuperstepFullBfs8Dev)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime();

// --- pluggable expand backends (core/expand/, DESIGN.md §12) ---
//
// PageRank on the rmat fixture: every vertex active, double-sum combiner —
// the message-heaviest Step-4 shape. Each row is one full superstep,
// applied included (payloads + traversal + combine + apply), under the
// identity plan: the push's expand and per-shard merge and apply, the
// stationary gather, and the SpMV pull, which gathers without staging or
// storing a message. The SpMV push is the scatter path over the identity
// plan, so BM_ExpandScatterPr8Dev times it. The CI bench-smoke job emits
// these rows as BENCH_superstep.json (threads as the argument, one
// destination shard per thread as the engine cuts them, wall-ms as
// real_time), so it carries a scatter-vs-gather trajectory per thread
// count.

struct PrPhaseFixture {
  const SuperstepFixture& fx = GetSuperstepFixture();
  algos::PageRankApp app;
  std::vector<double> values;

  PrPhaseFixture() {
    app.num_vertices = fx.g.num_vertices();
    values.assign(fx.g.num_vertices(), 1.0 / fx.g.num_vertices());
  }
};

PrPhaseFixture& GetPrPhaseFixture() {
  static PrPhaseFixture* fx = new PrPhaseFixture;
  return *fx;
}

// The push replaces the all-active frontier with the applied vertices, so
// the all-active one is restored untimed.
void BM_ExpandScatterPr8Dev(benchmark::State& state) {
  PrPhaseFixture& pf = GetPrPhaseFixture();
  const SuperstepFixture& fx = pf.fx;
  const int threads = static_cast<int>(state.range(0));
  ThreadPool pool(threads);
  const core::ShardMap shards(fx.g.num_vertices(), threads);
  std::vector<double> values = pf.values;
  core::FrontierScatterBackend<algos::PageRankApp> backend;
  core::ExpandCounters counters;
  core::MessageStore<double> store(fx.g.num_vertices());
  const core::FStealDecision no_steal;
  core::FrontierSoA frontier = fx.frontier;
  std::vector<double> apply_msgs;
  for (auto _ : state) {
    backend.Expand(&pool, fx.g, fx.partition, nullptr, fx.owner,
                   /*active=*/{}, no_steal, fx.census, pf.app, values,
                   &frontier, shards, store, &apply_msgs, &counters);
    benchmark::DoNotOptimize(values.data());
    state.PauseTiming();
    frontier = fx.frontier;
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fx.g.num_edges()));
}
BENCHMARK(BM_ExpandScatterPr8Dev)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime();

// The stationary path on the same all-active PageRank superstep: the
// gather under the push's charge rule over every vertex — a payload pass
// over the units, then the destination gather over the context-shared
// PullEdges (built once, outside the timed loop), which applies every
// vertex. The same counters and values as BM_ExpandScatterPr8Dev, nothing
// staged or stored.
template <typename Fixture>
void RunExpandStationary(benchmark::State& state, const Fixture& fx,
                         algos::PageRankApp& app, std::vector<double> values) {
  ThreadPool pool(static_cast<int>(state.range(0)));
  core::FrontierScatterBackend<algos::PageRankApp> backend;
  core::ExpandCounters counters;
  std::vector<double> apply_msgs;
  const core::FStealDecision no_steal;
  core::PullEdges pull;
  pull.Build(fx.g, fx.partition);
  core::FrontierSoA frontier = fx.frontier;
  for (auto _ : state) {
    backend.Gather(&pool, fx.g, fx.partition, nullptr, fx.owner,
                   /*active=*/{}, no_steal, fx.census, pull,
                   core::GatherCharge::kMessages,
                   core::GatherSources::kEveryVertex, app, values, &frontier,
                   &apply_msgs, &counters);
    benchmark::DoNotOptimize(values.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fx.g.num_edges()));
}

void BM_ExpandStationaryPr8Dev(benchmark::State& state) {
  PrPhaseFixture& pf = GetPrPhaseFixture();
  RunExpandStationary(state, pf.fx, pf.app, pf.values);
}
BENCHMARK(BM_ExpandStationaryPr8Dev)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime();

// The same stationary superstep on the skew of the Social recipe
// (bench/datasets.cc, perfbench social-pr): RMAT a/b/c = .62/.19/.12
// without the vertex permutation, so in-edges pile up on low vertex ids.
// BenchGraph's permutation spreads them evenly, which hides how equal-
// width destination ranges split the gather's work.
struct SocialPrFixture {
  graph::CsrGraph g;
  graph::Partition partition;
  core::FrontierSoA frontier;
  core::FrontierCensus census;
  std::vector<int> owner;
  algos::PageRankApp app;

  SocialPrFixture()
      : g(std::move(graph::CsrGraph::FromEdgeList(graph::Rmat(
                        {.scale = 14, .edge_factor = 12, .a = 0.62,
                         .b = 0.19, .c = 0.12, .permute_vertices = false,
                         .weighted = true, .seed = 33})))
              .value()) {
    const int n = 8;
    partition =
        std::move(graph::PartitionGraph(g, n, graph::PartitionOptions{}))
            .value();
    frontier.Assign(partition.part_vertices);
    census.Take(g, core::HubCache(), frontier);
    owner = AllWorkers(n);
    app.num_vertices = g.num_vertices();
  }
};

void BM_ExpandStationarySocialPr8Dev(benchmark::State& state) {
  static SocialPrFixture* fx = new SocialPrFixture;
  RunExpandStationary(
      state, *fx, fx->app,
      std::vector<double>(fx->g.num_vertices(), 1.0 / fx->g.num_vertices()));
}
BENCHMARK(BM_ExpandStationarySocialPr8Dev)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime();

// The SpMV pull on the same superstep: the stationary path's gather under
// the pull's charge rule, which applies every vertex as in
// BM_ExpandStationaryPr8Dev.
void BM_ExpandSpmvPullPr8Dev(benchmark::State& state) {
  PrPhaseFixture& pf = GetPrPhaseFixture();
  const SuperstepFixture& fx = pf.fx;
  const int threads = static_cast<int>(state.range(0));
  ThreadPool pool(threads);
  std::vector<double> values = pf.values;
  core::FrontierScatterBackend<algos::PageRankApp> backend;
  core::ExpandCounters counters;
  std::vector<double> apply_msgs;
  const core::FStealDecision no_steal;
  core::PullEdges pull;
  pull.Build(fx.g, fx.partition);
  core::FrontierSoA frontier = fx.frontier;
  for (auto _ : state) {
    backend.Gather(&pool, fx.g, fx.partition, nullptr, fx.owner,
                   /*active=*/{}, no_steal, fx.census, pull,
                   core::GatherCharge::kRemoteGathers,
                   core::GatherSources::kEveryVertex, pf.app, values,
                   &frontier, &apply_msgs, &counters);
    benchmark::DoNotOptimize(values.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fx.g.num_edges()));
}
BENCHMARK(BM_ExpandSpmvPullPr8Dev)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime();

// Whole-engine host wall-clock on 8 vGPUs (census + stealing decisions +
// superstep + accounting). Arg is num_host_threads; 0 = hardware
// concurrency.
void BM_GumEngineBfs8Dev(benchmark::State& state) {
  const SuperstepFixture& fx = GetSuperstepFixture();
  const auto topo = sim::Topology::HybridCubeMesh8();
  core::EngineOptions opt;
  opt.record_iteration_stats = false;
  opt.num_host_threads = static_cast<int>(state.range(0));
  graph::VertexId source = 0;
  for (graph::VertexId v = 0; v < fx.g.num_vertices(); ++v) {
    if (fx.g.OutDegree(v) > fx.g.OutDegree(source)) source = v;
  }
  for (auto _ : state) {
    core::GumEngine<algos::BfsApp> engine(&fx.g, fx.partition, topo, opt);
    algos::BfsApp app;
    app.source = source;
    const auto result = engine.Run(app);
    benchmark::DoNotOptimize(result.total_ms);
  }
}
BENCHMARK(BM_GumEngineBfs8Dev)->Arg(1)->Arg(0)->UseRealTime();

// --- the interconnect plane ---

// A deterministic batch mixing direct-lane, 2-hop-transit and PCIe
// transfers on the 8-GPU hybrid cube mesh. The stride-5 walk visits every
// (src, dst) flavor; sizes vary so fair-share settling sees staggered
// completions instead of one synchronized wave.
sim::TransferBatch CommBatch(int transfers) {
  sim::TransferBatch batch;
  for (int i = 0; i < transfers; ++i) {
    const int src = i % 8;
    const int dst = (src + 1 + (i * 5) % 7) % 8;
    const double bytes = 1e5 * (1 + i % 13);
    batch.Add(src, dst, bytes, src);
  }
  return batch;
}

// Settle cost vs. transfer count. kOff is a linear pass; kFair runs the
// progressive-filling event simulation, whose rounds grow with the number
// of distinct completion times. Both must stay far below the per-iteration
// decision budget (tens of microseconds for engine-sized batches).
void BM_CommPlaneSettleOff(benchmark::State& state) {
  const auto topo = sim::Topology::HybridCubeMesh8();
  const auto batch = CommBatch(static_cast<int>(state.range(0)));
  sim::CommPlane plane(topo, sim::ContentionModel::kOff);
  for (auto _ : state) {
    auto settled = plane.Settle(batch);
    benchmark::DoNotOptimize(settled.completion_ns.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CommPlaneSettleOff)->Arg(8)->Arg(64)->Arg(512);

void BM_CommPlaneSettleFair(benchmark::State& state) {
  const auto topo = sim::Topology::HybridCubeMesh8();
  const auto batch = CommBatch(static_cast<int>(state.range(0)));
  sim::CommPlane plane(topo, sim::ContentionModel::kFair);
  for (auto _ : state) {
    auto settled = plane.Settle(batch);
    benchmark::DoNotOptimize(settled.completion_ns.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CommPlaneSettleFair)->Arg(8)->Arg(64)->Arg(512);

// --- multi-path transfer plans (sim/transfer_plan.h) ---

// A migration-shaped bulk batch: every device ships one large ownership-
// migration payload to a rebalance target, the traffic pattern OSteal and
// fault recovery put on the wire. Sizes are staggered like CommBatch's.
sim::TransferBatch MigrationBatch() {
  sim::TransferBatch batch;
  for (int src = 0; src < 8; ++src) {
    const int dst = (src + 3) % 8;
    const double bytes = 4e6 * (1 + src % 3);
    batch.AddBulk(src, dst, bytes, dst);
  }
  return batch;
}

// Host cost of building one striping plan. Planning runs per bulk transfer
// inside Settle, so it must stay well under the settle loop's own cost.
void BM_TransferPlanStripe(benchmark::State& state) {
  const auto topo = sim::Topology::HybridCubeMesh8();
  sim::CommPlane plane(topo, sim::ContentionModel::kFair);
  plane.set_multipath(true);
  for (auto _ : state) {
    auto transfer_plan = plane.PlanBulkTransfer(0, 5, 4e6);
    benchmark::DoNotOptimize(transfer_plan.paths.data());
  }
}
BENCHMARK(BM_TransferPlanStripe);

// Host cost of building the census reduction tree (once per iteration).
void BM_TransferPlanReductionTree(benchmark::State& state) {
  const auto topo = sim::Topology::HybridCubeMesh8();
  sim::CommPlane plane(topo, sim::ContentionModel::kFair);
  std::vector<int> active(8);
  std::iota(active.begin(), active.end(), 0);
  for (auto _ : state) {
    auto tree = plane.BuildCensusTree(active);
    benchmark::DoNotOptimize(tree.parent.data());
  }
}
BENCHMARK(BM_TransferPlanReductionTree);

// Simulated makespan of the striped migration batch under fair sharing.
// UseManualTime + SetIterationTime report the *simulated* seconds as the
// benchmark's real_time, so CI's bench_diff gate can assert that the
// multipath=on cell beats multipath=off on identical traffic.
void BM_TransferPlanStripedMigration8DevMultipathOff(
    benchmark::State& state) {
  const auto topo = sim::Topology::HybridCubeMesh8();
  const auto batch = MigrationBatch();
  sim::CommPlane plane(topo, sim::ContentionModel::kFair);
  for (auto _ : state) {
    auto settled = plane.Settle(batch);
    double makespan_ns = 0.0;
    for (const double ns : settled.completion_ns) {
      makespan_ns = std::max(makespan_ns, ns);
    }
    state.SetIterationTime(makespan_ns * 1e-9);
  }
}
BENCHMARK(BM_TransferPlanStripedMigration8DevMultipathOff)->UseManualTime();

void BM_TransferPlanStripedMigration8DevMultipathOn(
    benchmark::State& state) {
  const auto topo = sim::Topology::HybridCubeMesh8();
  const auto batch = MigrationBatch();
  sim::CommPlane plane(topo, sim::ContentionModel::kFair);
  plane.set_multipath(true);
  for (auto _ : state) {
    auto settled = plane.Settle(batch);
    double makespan_ns = 0.0;
    for (const double ns : settled.completion_ns) {
      makespan_ns = std::max(makespan_ns, ns);
    }
    state.SetIterationTime(makespan_ns * 1e-9);
  }
}
BENCHMARK(BM_TransferPlanStripedMigration8DevMultipathOn)->UseManualTime();

// Whole-engine cost of the contention knob: the same 8-vGPU BFS as
// BM_GumEngineBfs8Dev but with fair lane sharing. The host-side delta
// against the Arg(0) rows of that benchmark is the price of the event
// simulation; the simulated total_ms delta is the modeled contention.
void BM_GumEngineBfs8DevFairContention(benchmark::State& state) {
  const SuperstepFixture& fx = GetSuperstepFixture();
  const auto topo = sim::Topology::HybridCubeMesh8();
  core::EngineOptions opt;
  opt.record_iteration_stats = false;
  opt.num_host_threads = static_cast<int>(state.range(0));
  opt.contention = sim::ContentionModel::kFair;
  graph::VertexId source = 0;
  for (graph::VertexId v = 0; v < fx.g.num_vertices(); ++v) {
    if (fx.g.OutDegree(v) > fx.g.OutDegree(source)) source = v;
  }
  for (auto _ : state) {
    core::GumEngine<algos::BfsApp> engine(&fx.g, fx.partition, topo, opt);
    algos::BfsApp app;
    app.source = source;
    const auto result = engine.Run(app);
    benchmark::DoNotOptimize(result.total_ms);
  }
}
BENCHMARK(BM_GumEngineBfs8DevFairContention)->Arg(1)->Arg(0)->UseRealTime();

// --- substrates ---

void BM_ReductionScheduleBuild(benchmark::State& state) {
  const auto topo = sim::Topology::HybridCubeMesh8();
  for (auto _ : state) {
    auto schedule = sim::ReductionSchedule::Build(topo);
    benchmark::DoNotOptimize(schedule);
  }
}
BENCHMARK(BM_ReductionScheduleBuild);

void BM_CsrBuild(benchmark::State& state) {
  graph::RmatOptions opt;
  opt.scale = static_cast<int>(state.range(0));
  opt.edge_factor = 8;
  const graph::EdgeList list = graph::Rmat(opt);
  for (auto _ : state) {
    auto g = graph::CsrGraph::FromEdgeList(list);
    benchmark::DoNotOptimize(g);
  }
  state.SetItemsProcessed(state.iterations() * list.edges.size());
}
BENCHMARK(BM_CsrBuild)->Arg(12)->Arg(14);

void BM_Partition(benchmark::State& state) {
  const auto& g = BenchGraph();
  graph::PartitionOptions opt;
  opt.kind = static_cast<graph::PartitionerKind>(state.range(0));
  for (auto _ : state) {
    auto p = graph::PartitionGraph(g, 8, opt);
    benchmark::DoNotOptimize(p);
  }
  state.SetLabel(graph::PartitionerName(opt.kind));
}
BENCHMARK(BM_Partition)->Arg(0)->Arg(1)->Arg(2);

// The road workloads' graph: a 128x128 road grid.
const graph::CsrGraph& RoadBenchGraph() {
  static const graph::CsrGraph* g = [] {
    auto built = graph::CsrGraph::FromEdgeList(
        graph::RoadGrid({.rows = 128, .cols = 128, .seed = 33}));
    return new graph::CsrGraph(std::move(built).value());
  }();
  return *g;
}

// Road set-up's partition: the grid cut 8 ways by the metis-like
// partitioner.
void BM_PartitionRoadMetis(benchmark::State& state) {
  const auto& g = RoadBenchGraph();
  graph::PartitionOptions opt;
  opt.kind = graph::PartitionerKind::kMetisLike;
  for (auto _ : state) {
    auto p = graph::PartitionGraph(g, 8, opt);
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_PartitionRoadMetis);

// --- the async driver (core/async/, DESIGN.md §15) ---

// Host time of warm async SSSP queries on one reused RunContext, cycling
// through fixed corner and middle sources of the road workloads' grid: 8
// devices on the metis-like cut, 1 host thread. A row times one query.
void RunAsyncDriverRoad(benchmark::State& state, sim::Topology topology,
                        const core::EngineOptions& options) {
  const auto& g = RoadBenchGraph();
  graph::PartitionOptions popt;
  popt.kind = graph::PartitionerKind::kMetisLike;
  const core::GraphContext ctx(
      &g, std::move(graph::PartitionGraph(g, 8, popt)).value(),
      std::move(topology), options);
  core::GumEngine<algos::SsspApp> engine(&ctx);
  core::RunContext<algos::SsspApp> rc;
  std::vector<float> values;
  constexpr graph::VertexId kSources[] = {0, 127, 8256, 16256, 16383};
  const auto run = [&](size_t i) {
    algos::SsspApp app;
    app.source = kSources[i % std::size(kSources)];
    return engine.Run(app, rc, &values);
  };
  for (size_t i = 0; i < std::size(kSources); ++i) run(i);  // warm-up
  size_t query = 0;
  for (auto _ : state) {
    const core::RunResult result = run(query++);
    benchmark::DoNotOptimize(result.total_ms);
  }
}

// GUM's async mode: the buckets worklist on the hybrid cube mesh.
void BM_AsyncDriverRoadSssp(benchmark::State& state) {
  core::EngineOptions options;
  options.mode = core::EngineMode::kAsync;
  options.num_host_threads = 1;
  RunAsyncDriverRoad(state, sim::Topology::HybridCubeMesh8(), options);
}
BENCHMARK(BM_AsyncDriverRoadSssp)->Unit(benchmark::kMillisecond);

// The Groute preset: the sorted set on the one-way ring.
void BM_AsyncDriverRoadGroute(benchmark::State& state) {
  core::EngineOptions options = baselines::GrouteEngineOptions();
  options.num_host_threads = 1;
  RunAsyncDriverRoad(state,
                     sim::Topology::Ring(8, sim::Topology::kNvlinkLaneGBps,
                                         /*pcie_odd_wrap=*/true),
                     options);
}
BENCHMARK(BM_AsyncDriverRoadGroute)->Unit(benchmark::kMillisecond);

// An epoch barrier's rebuild: the flat snapshot of the grid under a
// road-closure overlay, 32 segments closed in both directions.
void BM_DeltaMaterialize(benchmark::State& state) {
  const auto& g = RoadBenchGraph();
  graph::DynamicGraph dyn(g, /*symmetric=*/false);
  std::vector<graph::MutationEvent> closures;
  // 509 is coprime to the vertex count, so the walk meets each vertex
  // once and no segment is drawn twice.
  for (graph::VertexId k = 0; closures.size() < 64; ++k) {
    const graph::VertexId u = k * 509 % g.num_vertices();
    const auto out = g.OutNeighbors(u);
    const auto v = std::find_if(out.begin(), out.end(),
                                [u](graph::VertexId t) { return t > u; });
    if (v == out.end()) continue;
    closures.push_back({graph::MutationKind::kDeleteEdge, u, *v});
    closures.push_back({graph::MutationKind::kDeleteEdge, *v, u});
  }
  dyn.Apply(closures);
  for (auto _ : state) {
    auto flat = dyn.Materialize();
    benchmark::DoNotOptimize(flat);
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_DeltaMaterialize);

void BM_RmatGeneration(benchmark::State& state) {
  graph::RmatOptions opt;
  opt.scale = 13;
  opt.edge_factor = 8;
  for (auto _ : state) {
    auto list = graph::Rmat(opt);
    benchmark::DoNotOptimize(list);
  }
}
BENCHMARK(BM_RmatGeneration);

// --- the --bench-json reporter ---

// Console output as usual, plus a copy of every finished run for the JSON
// dump below.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    runs_.insert(runs_.end(), runs.begin(), runs.end());
    ConsoleReporter::ReportRuns(runs);
  }
  const std::vector<Run>& runs() const { return runs_; }

 private:
  std::vector<Run> runs_;
};

void WriteBenchJson(std::ostream& os,
                    const std::vector<benchmark::BenchmarkReporter::Run>&
                        runs) {
  using Run = benchmark::BenchmarkReporter::Run;
  JsonWriter w(os, 1);
  w.BeginObject();
  w.Key("benchmarks").BeginArray();
  for (const Run& run : runs) {
    w.BeginObject();
    w.Key("name").Value(run.benchmark_name());
    w.Key("run_type").Value(
        run.run_type == Run::RT_Aggregate ? "aggregate" : "iteration");
    if (run.run_type == Run::RT_Aggregate) {
      w.Key("aggregate_name").Value(run.aggregate_name);
    }
    w.Key("iterations").Value(static_cast<int64_t>(run.iterations));
    w.Key("real_time").Value(run.GetAdjustedRealTime());
    w.Key("cpu_time").Value(run.GetAdjustedCPUTime());
    w.Key("time_unit").Value(benchmark::GetTimeUnitString(run.time_unit));
    if (!run.report_label.empty()) w.Key("label").Value(run.report_label);
    for (const auto& [name, counter] : run.counters) {
      w.Key(name).Value(static_cast<double>(counter));
    }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  os << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  // Strip --bench-json=FILE before google-benchmark sees the arguments,
  // and note the last --benchmark_format, as google-benchmark reads it.
  constexpr std::string_view kJsonPrefix = "--bench-json=";
  constexpr std::string_view kFormatPrefix = "--benchmark_format=";
  std::string json_path;
  std::string_view format = "console";
  std::vector<char*> args;
  args.reserve(static_cast<size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.starts_with(kJsonPrefix)) {
      json_path = std::string(arg.substr(kJsonPrefix.size()));
      continue;
    }
    if (arg.starts_with(kFormatPrefix)) format = arg.substr(kFormatPrefix.size());
    args.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  if (json_path.empty()) {
    benchmark::RunSpecifiedBenchmarks();
  } else {
    if (format != "console") {
      std::cerr << "micro_bench: --bench-json=FILE writes its JSON next to "
                   "console output; it cannot be combined with "
                   "--benchmark_format="
                << format << "\n";
      return 1;
    }
    CollectingReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    std::ofstream out(json_path);
    WriteBenchJson(out, reporter.runs());
  }
  benchmark::Shutdown();
  return 0;
}
