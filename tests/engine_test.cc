#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <vector>

#include "algos/apps.h"
#include "algos/reference.h"
#include "core/engine.h"
#include "tests/test_util.h"

namespace gum::core {
namespace {

using algos::BfsApp;
using algos::DeltaPageRankApp;
using algos::PageRankApp;
using algos::SsspApp;
using algos::WccApp;
using graph::VertexId;
using test::MakePartition;
using test::RoadGraph;
using test::SocialGraph;
using test::SocialGraphSym;
using test::TestEngineOptions;
using test::Topo;

TEST(GumEngineTest, BfsMatchesReferenceOn4Devices) {
  const auto g = SocialGraph();
  GumEngine<BfsApp> engine(&g, MakePartition(g, 4), Topo(4),
                           TestEngineOptions());
  BfsApp app;
  app.source = 1;
  std::vector<uint32_t> depths;
  const RunResult result = engine.Run(app, &depths);
  EXPECT_GT(result.iterations, 1);
  EXPECT_GT(result.total_ms, 0.0);
  EXPECT_EQ(depths, algos::ref::Bfs(g, 1));
}

TEST(GumEngineTest, SsspMatchesDijkstra) {
  const auto g = SocialGraph(10, 4, /*weighted=*/true);
  GumEngine<SsspApp> engine(&g, MakePartition(g, 4), Topo(4),
                            TestEngineOptions());
  SsspApp app;
  app.source = 3;
  std::vector<float> dist;
  engine.Run(app, &dist);
  const auto expected = algos::ref::Sssp(g, 3);
  ASSERT_EQ(dist.size(), expected.size());
  for (size_t v = 0; v < dist.size(); ++v) {
    EXPECT_EQ(dist[v], expected[v]) << "vertex " << v;
  }
}

TEST(GumEngineTest, WccMatchesUnionFind) {
  const auto g = SocialGraphSym();
  GumEngine<WccApp> engine(&g, MakePartition(g, 4), Topo(4),
                           TestEngineOptions());
  WccApp app;
  std::vector<VertexId> labels;
  engine.Run(app, &labels);
  EXPECT_EQ(labels, algos::ref::Wcc(g));
}

TEST(GumEngineTest, PageRankMatchesPowerIteration) {
  const auto g = SocialGraph(9, 5);
  GumEngine<PageRankApp> engine(&g, MakePartition(g, 4), Topo(4),
                                TestEngineOptions());
  PageRankApp app;
  app.num_vertices = g.num_vertices();
  app.rounds = 15;
  std::vector<double> rank;
  const RunResult result = engine.Run(app, &rank);
  EXPECT_EQ(result.iterations, 15);
  const auto expected = algos::ref::PageRank(g, 0.85, 15);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_NEAR(rank[v], expected[v], 1e-9) << "vertex " << v;
  }
}

TEST(GumEngineTest, DeltaPageRankApproximatesPowerIteration) {
  const auto g = SocialGraph(9, 5);
  GumEngine<DeltaPageRankApp> engine(&g, MakePartition(g, 4), Topo(4),
                                     TestEngineOptions());
  DeltaPageRankApp app;
  app.num_vertices = g.num_vertices();
  app.epsilon = 1e-12;
  std::vector<DeltaPageRankApp::State> state;
  engine.Run(app, &state);
  const auto expected = algos::ref::PageRank(g, 0.85, 100);
  double max_err = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    max_err = std::max(max_err, std::abs(state[v].rank - expected[v]));
  }
  EXPECT_LT(max_err, 1e-6);
}

TEST(GumEngineTest, SingleDeviceWorks) {
  const auto g = SocialGraph();
  GumEngine<BfsApp> engine(&g, MakePartition(g, 1), Topo(1),
                           TestEngineOptions());
  BfsApp app;
  app.source = 0;
  std::vector<uint32_t> depths;
  const RunResult result = engine.Run(app, &depths);
  EXPECT_EQ(depths, algos::ref::Bfs(g, 0));
  EXPECT_EQ(result.stolen_edges_total, 0.0) << "nothing to steal on 1 GPU";
}

TEST(GumEngineTest, StealingDoesNotChangeResults) {
  const auto g = SocialGraph(10, 7, /*weighted=*/true);
  SsspApp app;
  app.source = 11;
  auto opt_on = TestEngineOptions();
  auto opt_off = TestEngineOptions();
  opt_off.enable_fsteal = false;
  opt_off.enable_osteal = false;
  std::vector<float> with_steal, without_steal;
  GumEngine<SsspApp>(&g, MakePartition(g, 8), Topo(8), opt_on)
      .Run(app, &with_steal);
  GumEngine<SsspApp>(&g, MakePartition(g, 8), Topo(8), opt_off)
      .Run(app, &without_steal);
  EXPECT_EQ(with_steal, without_steal);
}

TEST(GumEngineTest, FStealActuallySteals) {
  // Segment partition + single-source BFS => severe cocooning, so FSteal
  // must move work off the source's device.
  const auto g = SocialGraph(11, 2);
  auto opt = TestEngineOptions();
  opt.enable_osteal = false;
  GumEngine<BfsApp> engine(
      &g, MakePartition(g, 4, graph::PartitionerKind::kSegment), Topo(4),
      opt);
  BfsApp app;
  app.source = 0;
  const RunResult result = engine.Run(app);
  EXPECT_GT(result.fsteal_applied_iterations, 0);
  EXPECT_GT(result.stolen_edges_total, 0.0);
}

TEST(GumEngineTest, FStealReducesMakespanOnSkewedRun) {
  const auto g = SocialGraph(11, 2);
  BfsApp app;
  app.source = 0;
  auto on = TestEngineOptions();
  on.enable_osteal = false;
  // Make the workload compute-bound at this miniature scale so load balance
  // (not per-iteration latency) dominates, as on the paper's full-size runs.
  on.device.base_edge_ns = 200.0;
  on.device.sync_per_peer_us = 5.0;
  auto off = on;
  off.enable_fsteal = false;
  const auto part = MakePartition(g, 4, graph::PartitionerKind::kSegment);
  const RunResult with_steal =
      GumEngine<BfsApp>(&g, part, Topo(4), on).Run(app);
  const RunResult without_steal =
      GumEngine<BfsApp>(&g, part, Topo(4), off).Run(app);
  EXPECT_LT(with_steal.total_ms, without_steal.total_ms);
}

TEST(GumEngineTest, OStealShrinksGroupOnRoadNetwork) {
  const auto g = RoadGraph(24);
  SsspApp app;
  app.source = 0;
  auto opt = TestEngineOptions();
  GumEngine<SsspApp> engine(&g, MakePartition(g, 8), Topo(8), opt);
  const RunResult result = engine.Run(app);
  EXPECT_GT(result.osteal_shrink_events, 0)
      << "long-tail road network should trigger OSteal";
  // Late iterations should run with fewer devices.
  int min_group = 8;
  for (const IterationStats& s : result.iteration_stats) {
    min_group = std::min(min_group, s.group_size);
  }
  EXPECT_LT(min_group, 8);
}

TEST(GumEngineTest, OStealImprovesRoadNetworkRuntime) {
  const auto g = RoadGraph(24);
  SsspApp app;
  app.source = 0;
  auto on = TestEngineOptions();
  on.enable_fsteal = false;
  auto off = on;
  off.enable_osteal = false;
  const auto part = MakePartition(g, 8);
  const RunResult with_osteal =
      GumEngine<SsspApp>(&g, part, Topo(8), on).Run(app);
  const RunResult without_osteal =
      GumEngine<SsspApp>(&g, part, Topo(8), off).Run(app);
  EXPECT_LT(with_osteal.total_ms, without_osteal.total_ms);
  // And results agree.
}

TEST(GumEngineTest, TimelineBucketsSumToBusyTime) {
  const auto g = SocialGraph(9, 3);
  GumEngine<BfsApp> engine(&g, MakePartition(g, 4), Topo(4),
                           TestEngineOptions());
  BfsApp app;
  app.source = 2;
  const RunResult result = engine.Run(app);
  const double buckets = result.ComputeMs() + result.CommunicationMs() +
                         result.SerializationMs() + result.OverheadMs();
  double busy = 0;
  for (int it = 0; it < result.timeline.num_iterations(); ++it) {
    for (int d = 0; d < result.timeline.num_devices(); ++d) {
      busy += result.timeline.DeviceIterationTotal(it, d);
    }
  }
  EXPECT_NEAR(buckets, busy, 1e-6);
  EXPECT_GE(result.total_ms, result.timeline.IterationWall(0));
}

TEST(GumEngineTest, IterationStatsRecorded) {
  const auto g = SocialGraph(9, 3);
  GumEngine<BfsApp> engine(&g, MakePartition(g, 2), Topo(2),
                           TestEngineOptions());
  BfsApp app;
  app.source = 2;
  const RunResult result = engine.Run(app);
  ASSERT_EQ(static_cast<int>(result.iteration_stats.size()),
            result.iterations);
  for (const IterationStats& s : result.iteration_stats) {
    EXPECT_EQ(s.fragment_load.size(), 2u);
    EXPECT_GE(s.group_size, 1);
    EXPECT_LE(s.group_size, 2);
    EXPECT_GE(s.wall_ms, 0.0);
  }
}

TEST(GumEngineTest, EdgesProcessedMatchesReachableWork) {
  // On a BFS, each reachable vertex is expanded at least once; with min-
  // combining it is expanded exactly once.
  const auto g = SocialGraph(9, 6);
  GumEngine<BfsApp> engine(&g, MakePartition(g, 2), Topo(2),
                           TestEngineOptions());
  BfsApp app;
  app.source = 4;
  const RunResult result = engine.Run(app);
  const auto depths = algos::ref::Bfs(g, 4);
  uint64_t expected_edges = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (depths[v] != BfsApp::kUnreached) expected_edges += g.OutDegree(v);
  }
  EXPECT_EQ(result.edges_processed, expected_edges);
}

TEST(GumEngineTest, LearnedCostModelStillCorrect) {
  // Plug a deliberately bad cost model in: results must not change (only
  // the schedule quality may).
  struct BadModel : ml::RegressionModel {
    Status Fit(const ml::Dataset&) override { return Status::OK(); }
    double Predict(std::span<const double>) const override { return 1.0; }
    std::string name() const override { return "constant"; }
  };
  const auto g = SocialGraph(10, 7, /*weighted=*/true);
  BadModel model;
  auto opt = TestEngineOptions();
  opt.exact_cost_oracle = false;
  SsspApp app;
  app.source = 11;
  std::vector<float> dist;
  GumEngine<SsspApp>(&g, MakePartition(g, 4), Topo(4), opt, &model)
      .Run(app, &dist);
  const auto expected = algos::ref::Sssp(g, 11);
  for (size_t v = 0; v < dist.size(); ++v) EXPECT_EQ(dist[v], expected[v]);
}


TEST(GumEngineTest, LinkBytesTrackCommunication) {
  const auto g = SocialGraph(10, 40);
  auto opt = TestEngineOptions();
  GumEngine<BfsApp> engine(&g, MakePartition(g, 4), Topo(4), opt);
  BfsApp app;
  app.source = 3;
  const RunResult r = engine.Run(app);
  ASSERT_EQ(r.link_bytes.size(), 4u);
  // Cross-fragment messages under a random partition must move real bytes.
  EXPECT_GT(r.TotalRemoteBytes(), 0.0);
  // Every entry non-negative; diagonal holds local gather traffic.
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) EXPECT_GE(r.link_bytes[i][j], 0.0);
  }
  EXPECT_GT(r.link_bytes[0][0] + r.link_bytes[1][1] + r.link_bytes[2][2] +
                r.link_bytes[3][3],
            0.0);
}

TEST(GumEngineTest, HubCacheReducesRemoteBytes) {
  const auto g = SocialGraph(10, 41);
  BfsApp app;
  auto with_cache = TestEngineOptions();
  with_cache.t4_hub_in_degree = 8;  // cache aggressively
  with_cache.enable_osteal = false;
  auto no_cache = with_cache;
  no_cache.enable_hub_cache = false;
  const auto part = MakePartition(g, 4, graph::PartitionerKind::kSegment);
  app.source = 0;
  const RunResult cached =
      GumEngine<BfsApp>(&g, part, Topo(4), with_cache).Run(app);
  app.source = 0;
  const RunResult plain =
      GumEngine<BfsApp>(&g, part, Topo(4), no_cache).Run(app);
  // The hub-cache only matters when frontiers get stolen; same plan or not,
  // cached remote traffic can never exceed the uncached run by more than
  // schedule noise.
  EXPECT_LE(cached.CommunicationMs(), plain.CommunicationMs() * 1.05);
}

TEST(GumEngineTest, SingleDeviceHasNoRemoteBytes) {
  const auto g = SocialGraph(9, 42);
  GumEngine<BfsApp> engine(&g, MakePartition(g, 1), Topo(1),
                           TestEngineOptions());
  BfsApp app;
  app.source = 0;
  const RunResult r = engine.Run(app);
  EXPECT_EQ(r.TotalRemoteBytes(), 0.0);
}

TEST(GumEngineTest, UnreachableSourceTerminatesImmediately) {
  // Source with no out-edges: one iteration, then convergence.
  graph::EdgeList list;
  list.num_vertices = 4;
  list.edges = {{1, 2, 1.0f}, {2, 3, 1.0f}};
  auto g = graph::CsrGraph::FromEdgeList(list);
  ASSERT_TRUE(g.ok());
  GumEngine<BfsApp> engine(&*g, MakePartition(*g, 2), Topo(2),
                           TestEngineOptions());
  BfsApp app;
  app.source = 0;
  std::vector<uint32_t> depths;
  const RunResult result = engine.Run(app, &depths);
  EXPECT_LE(result.iterations, 2);
  EXPECT_EQ(depths[0], 0u);
  EXPECT_EQ(depths[1], BfsApp::kUnreached);
}

// Golden pins for stationary (fixed-round) supersteps: the simulated
// clock, the message/edge/steal counters, every link's traffic and every
// PageRank value, captured from the build whose Step 4 staged and merged
// every message. Doubles compare as bit patterns; link_bytes and values
// fold into FNV-1a digests.
struct StationaryRow {
  uint64_t total_ms_bits = 0;
  uint64_t messages = 0;
  uint64_t edges = 0;
  uint64_t stolen_edges = 0;
  uint64_t link_bytes_digest = 0;
  uint64_t values_digest = 0;
};

StationaryRow PageRankRow(const graph::CsrGraph& g, int devices,
                          bool contention, bool fsteal) {
  EngineOptions opt = TestEngineOptions();
  if (contention) {
    opt.contention = sim::ContentionModel::kFair;
    opt.multipath = sim::MultipathMode::kOn;
  }
  opt.enable_fsteal = fsteal;
  PageRankApp app;
  app.num_vertices = g.num_vertices();
  app.rounds = 10;
  std::vector<double> rank;
  const RunResult r =
      GumEngine<PageRankApp>(&g, MakePartition(g, devices), Topo(devices),
                             opt)
          .Run(app, &rank);
  return {std::bit_cast<uint64_t>(r.total_ms), r.messages_sent,
          r.edges_processed, static_cast<uint64_t>(r.stolen_edges_total),
          test::LinkBytesDigest(r), test::ValuesDigest(rank)};
}

TEST(StationaryGoldenTest, PageRankBitIdentical) {
  constexpr StationaryRow kGolden[] = {
      {4613214049463289784ull, 66400ull, 66400ull, 645ull,
       3757680468570417599ull, 326230511209691048ull},
      {4613125232114984154ull, 66400ull, 66400ull, 0ull,
       1463228262381529535ull, 326230511209691048ull},
      {4613205165642648834ull, 66400ull, 66400ull, 645ull,
       8820423265228958143ull, 326230511209691048ull},
      {4613102833578934915ull, 66400ull, 66400ull, 0ull,
       16400100047910349247ull, 326230511209691048ull},
      {4616548298562959678ull, 66400ull, 66400ull, 969ull,
       5416303105496909861ull, 16793950641338133513ull},
      {4616490339716141673ull, 66400ull, 66400ull, 0ull,
       2023984553244035109ull, 16793950641338133513ull},
      {4616282099676089073ull, 66400ull, 66400ull, 969ull,
       16038006542766508069ull, 16793950641338133513ull},
      {4616224185985363331ull, 66400ull, 66400ull, 0ull,
       12924575541486225445ull, 16793950641338133513ull},
      {4612508084007218349ull, 38700ull, 38700ull, 52ull,
       18353139600023628223ull, 14909380572597451513ull},
      {4612433697230764436ull, 38700ull, 38700ull, 0ull,
       1271844657110723007ull, 14909380572597451513ull},
      {4612499294982345557ull, 38700ull, 38700ull, 52ull,
       7819969663656274367ull, 14909380572597451513ull},
      {4612423801521502651ull, 38700ull, 38700ull, 0ull,
       16548008688540985791ull, 14909380572597451513ull},
      {4616221436661829113ull, 38700ull, 38700ull, 124ull,
       1548276999196051493ull, 6114193105435218041ull},
      {4616114139347502836ull, 38700ull, 38700ull, 0ull,
       18398096981793507365ull, 6114193105435218041ull},
      {4615683241822346415ull, 38700ull, 38700ull, 124ull,
       11492021291901061157ull, 6114193105435218041ull},
      {4615579587546717422ull, 38700ull, 38700ull, 0ull,
       13961999946664970277ull, 6114193105435218041ull},
  };
  const graph::CsrGraph rmat = SocialGraph(10, 2, /*weighted=*/true);
  const graph::CsrGraph road = RoadGraph(32, 3);
  std::vector<StationaryRow> got;
  // {RMAT 10 weighted, road 32x32} x {3, 8} devices x {contention off,
  // fair + multipath} x {fsteal on, off}.
  for (const graph::CsrGraph* g : {&rmat, &road}) {
    for (const int devices : {3, 8}) {
      for (const bool contention : {false, true}) {
        for (const bool fsteal : {true, false}) {
          got.push_back(PageRankRow(*g, devices, contention, fsteal));
        }
      }
    }
  }
  ASSERT_EQ(got.size(), std::size(kGolden));
  for (size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(testing::Message()
                 << "row " << i << ": {" << got[i].total_ms_bits << "ull, "
                 << got[i].messages << "ull, " << got[i].edges << "ull, "
                 << got[i].stolen_edges << "ull, "
                 << got[i].link_bytes_digest << "ull, "
                 << got[i].values_digest << "ull},");
    const StationaryRow& want = kGolden[i];
    EXPECT_EQ(got[i].total_ms_bits, want.total_ms_bits);
    EXPECT_EQ(got[i].messages, want.messages);
    EXPECT_EQ(got[i].edges, want.edges);
    EXPECT_EQ(got[i].stolen_edges, want.stolen_edges);
    EXPECT_EQ(got[i].link_bytes_digest, want.link_bytes_digest);
    EXPECT_EQ(got[i].values_digest, want.values_digest);
  }
}

}  // namespace
}  // namespace gum::core
