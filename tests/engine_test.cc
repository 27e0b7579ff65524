#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "algos/apps.h"
#include "algos/astar.h"
#include "algos/reference.h"
#include "core/engine.h"
#include "fault/fault_plane.h"
#include "tests/test_util.h"

namespace gum::core {
namespace {

using algos::AStarApp;
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

// Golden pins for GUM's own BSP clock on data-driven apps: the simulated
// clock, the counters, every link's traffic, every value, every timeline
// cell and every fault-plane field, captured from the build whose
// superstep loop was one function. Doubles compare as bit patterns;
// link_bytes, values, the timeline and the fault fields fold into FNV-1a
// digests.
struct GumRow {
  uint64_t total_ms_bits = 0;
  int iterations = 0;
  uint64_t edges = 0;
  uint64_t messages = 0;
  int osteal_shrinks = 0;
  int fsteal_applied = 0;
  uint64_t stolen_edges_bits = 0;
  uint64_t link_bytes_digest = 0;
  uint64_t values_digest = 0;
  uint64_t timeline_digest = 0;
  uint64_t faults_digest = 0;
};

// The fault cases. On these graphs OSteal shrinks the 8-device group to
// {1} at iteration 1 (5 devices: also {1}), so device 1 owns every
// fragment from then on and device 2 is evicted.
enum class GumFault {
  kNone,
  kRollback,     // device 1 dies before the first periodic checkpoint
  kEvicted,      // device 2 dies after OSteal evicted it: no rollback
  kSlowLinks,    // a straggler plus a degraded and a flapping link
  kFairFailStop  // device 1 dies after a checkpoint, multipath on
};

struct GumCase {
  int devices;
  GumFault fault;
  const char* plan;
  int ckpt_every;
  bool fair_multipath;
};

constexpr GumCase kGumCases[] = {
    {8, GumFault::kNone, "", 0, false},
    {8, GumFault::kRollback, "failstop:1@3", 4, false},
    {8, GumFault::kEvicted, "failstop:2@3", 0, false},
    {8, GumFault::kSlowLinks,
     "straggler:1@0-40x3;degrade:1-3@0-1x0.25;flap:1-5@0-3/1", 0, false},
    {5, GumFault::kFairFailStop, "failstop:1@3", 2, true},
    {1, GumFault::kNone, "", 0, false},
};

// Every fault-plane field of a result, ints and flags as doubles.
std::vector<double> FaultFields(const RunResult& r) {
  const FaultStats& f = r.faults;
  return {static_cast<double>(r.fault_plan_active),
          static_cast<double>(f.checkpoints_taken),
          f.checkpoint_bytes_total,
          f.checkpoint_ms_total,
          static_cast<double>(f.devices_failed),
          static_cast<double>(f.recovery_events),
          static_cast<double>(f.fragments_migrated),
          f.recovery_detect_ms,
          f.recovery_restore_ms,
          f.recovery_migrate_ms,
          f.lost_work_ms,
          f.straggler_ms,
          static_cast<double>(f.link_fault_iterations)};
}

// A pin is only a guard if its fault fired the way the case says.
void ExpectFaultFired(const GumCase& c, const RunResult& r) {
  const FaultStats& f = r.faults;
  switch (c.fault) {
    case GumFault::kNone:
      EXPECT_FALSE(r.fault_plan_active);
      EXPECT_EQ(f.recovery_events, 0);
      break;
    case GumFault::kRollback:
      EXPECT_EQ(f.devices_failed, 1);
      EXPECT_EQ(f.recovery_events, 1);
      EXPECT_GT(f.lost_work_ms, 0.0);
      EXPECT_GT(f.checkpoints_taken, 0);
      break;
    case GumFault::kEvicted:
      EXPECT_EQ(f.devices_failed, 1);
      EXPECT_EQ(f.recovery_events, 1);
      EXPECT_EQ(f.lost_work_ms, 0.0);
      EXPECT_EQ(f.fragments_migrated, 0);
      EXPECT_GT(f.recovery_detect_ms, 0.0);
      break;
    case GumFault::kSlowLinks:
      EXPECT_GT(f.straggler_ms, 0.0);
      EXPECT_GT(f.link_fault_iterations, 0);
      EXPECT_EQ(f.devices_failed, 0);
      break;
    case GumFault::kFairFailStop:
      EXPECT_TRUE(r.multipath_active);
      EXPECT_EQ(f.devices_failed, 1);
      EXPECT_GT(f.lost_work_ms, 0.0);
      EXPECT_GT(f.checkpoints_taken, 0);
      break;
  }
}

template <typename App>
GumRow PinGum(const graph::CsrGraph& g, const GumCase& c, int host_threads,
              App app,
              ExpandBackendKind expand = ExpandBackendKind::kScatter) {
  EngineOptions opt = TestEngineOptions();
  opt.num_host_threads = host_threads;
  opt.expand_backend = expand;
  opt.checkpoint.every = c.ckpt_every;
  if (c.fair_multipath) {
    opt.contention = sim::ContentionModel::kFair;
    opt.multipath = sim::MultipathMode::kOn;
  }
  fault::FaultPlane plane;
  if (c.plan[0] != '\0') {
    auto plan = fault::FaultPlan::Parse(c.plan);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    auto bound = fault::FaultPlane::Create(*plan, c.devices);
    EXPECT_TRUE(bound.ok()) << bound.status().ToString();
    plane = std::move(bound).value();
    opt.fault_plane = &plane;
  }
  std::vector<typename App::Value> values;
  const RunResult r =
      GumEngine<App>(&g, MakePartition(g, c.devices), Topo(c.devices), opt)
          .Run(app, &values);
  ExpectFaultFired(c, r);
  uint64_t faults_digest = test::kFnvBasis;
  for (const double field : FaultFields(r)) {
    faults_digest = test::Fnv1a(faults_digest, std::bit_cast<uint64_t>(field));
  }
  return {std::bit_cast<uint64_t>(r.total_ms),
          r.iterations,
          r.edges_processed,
          r.messages_sent,
          r.osteal_shrink_events,
          r.fsteal_applied_iterations,
          std::bit_cast<uint64_t>(r.stolen_edges_total),
          test::LinkBytesDigest(r),
          test::ValuesDigest(values),
          test::TimelineDigest(r),
          faults_digest};
}

// The pinned rows: kGumCases x {road 32x32, RMAT 10 weighted} x {bfs,
// sssp, wcc on the symmetric graph, dpr}.
std::vector<GumRow> PinGumRows(int host_threads) {
  const graph::CsrGraph road = RoadGraph(32, 3);
  const graph::CsrGraph rmat = SocialGraph(10, 2, /*weighted=*/true);
  const graph::CsrGraph rmat_sym = SocialGraphSym(10, 2);
  std::vector<GumRow> rows;
  for (const GumCase& c : kGumCases) {
    for (const auto& [g, sym] :
         {std::pair{&road, &road}, std::pair{&rmat, &rmat_sym}}) {
      SCOPED_TRACE(testing::Message()
                   << "case plan '" << c.plan << "', devices " << c.devices
                   << ", " << (g == &road ? "road" : "rmat"));
      const auto pin = [&](const graph::CsrGraph& graph, auto app) {
        rows.push_back(PinGum(graph, c, host_threads, app));
      };
      const VertexId source = test::MaxDegreeSource(*g);
      pin(*g, BfsApp{.source = source});
      pin(*g, SsspApp{.source = source});
      pin(*sym, WccApp{});
      pin(*g, DeltaPageRankApp{.num_vertices = g->num_vertices(),
                               .epsilon = 1e-6});
    }
  }
  return rows;
}

// Compares every field, printing the row as a kGolden initializer.
void ExpectGumRowEq(const GumRow& r, const GumRow& want) {
  SCOPED_TRACE(testing::Message()
               << "{" << r.total_ms_bits << "ull, " << r.iterations << ", "
               << r.edges << "ull, " << r.messages << "ull, "
               << r.osteal_shrinks << ", " << r.fsteal_applied << ", "
               << r.stolen_edges_bits << "ull, " << r.link_bytes_digest
               << "ull, " << r.values_digest << "ull, " << r.timeline_digest
               << "ull, " << r.faults_digest << "ull},");
  EXPECT_EQ(r.total_ms_bits, want.total_ms_bits);
  EXPECT_EQ(r.iterations, want.iterations);
  EXPECT_EQ(r.edges, want.edges);
  EXPECT_EQ(r.messages, want.messages);
  EXPECT_EQ(r.osteal_shrinks, want.osteal_shrinks);
  EXPECT_EQ(r.fsteal_applied, want.fsteal_applied);
  EXPECT_EQ(r.stolen_edges_bits, want.stolen_edges_bits);
  EXPECT_EQ(r.link_bytes_digest, want.link_bytes_digest);
  EXPECT_EQ(r.values_digest, want.values_digest);
  EXPECT_EQ(r.timeline_digest, want.timeline_digest);
  EXPECT_EQ(r.faults_digest, want.faults_digest);
}

TEST(GumGoldenTest, BitIdentical) {
  constexpr GumRow kGolden[] = {
      {4626082097828281104ull, 61, 3870ull, 3870ull, 1, 0, 0ull,
       3675952395465852965ull, 10885558025992347513ull, 1011000235074159272ull,
       8977388880535415087ull},
      {4626165902334511177ull, 61, 7167ull, 7167ull, 1, 0, 0ull,
       10650743988681508901ull, 15719651170260642214ull,
       2127547868768671379ull, 8977388880535415087ull},
      {4626674516703863526ull, 63, 123630ull, 123630ull, 1, 1,
       4638426141214900224ull, 6989162597928732709ull, 13346994205906133797ull,
       8257979048232922111ull, 8977388880535415087ull},
      {4625389289783346659ull, 49, 127751ull, 127751ull, 1, 1,
       4638426141214900224ull, 13468121863456360485ull,
       17844785856219385124ull, 7057431388344620162ull,
       8977388880535415087ull},
      {4612145105112131512ull, 5, 6486ull, 6486ull, 1, 1,
       4642718634609737728ull, 6924853124892788773ull, 6958107229267241064ull,
       15574263474241833003ull, 8977388880535415087ull},
      {4614549413589499302ull, 8, 15599ull, 15599ull, 1, 1,
       4642718634609737728ull, 18155665113229363237ull,
       11940344131088449570ull, 12099917518251634816ull,
       8977388880535415087ull},
      {4612743072829584008ull, 6, 28350ull, 28350ull, 1, 1,
       4655213484747784192ull, 2452481277018572837ull, 13398839423619047053ull,
       12491425124725265603ull, 8977388880535415087ull},
      {4625415461142819908ull, 46, 210554ull, 210554ull, 1, 1,
       4651734629957500928ull, 15361286272928516133ull, 5890401787944674878ull,
       10689489360102256970ull, 8977388880535415087ull},
      {4626407270011839120ull, 61, 3870ull, 3870ull, 1, 0, 0ull,
       15546222754330904613ull, 10885558025992347513ull, 296514088645531491ull,
       686481123742596597ull},
      {4626491114137235912ull, 61, 7167ull, 7167ull, 1, 0, 0ull,
       11021107883428087845ull, 15719651170260642214ull, 791363591005643114ull,
       2943165838087702359ull},
      {4627089031966316099ull, 63, 123630ull, 123630ull, 1, 0, 0ull,
       3602133658678134821ull, 13346994205906133797ull,
       17513328014409370412ull, 1552043984675142046ull},
      {4625807926153214582ull, 49, 127751ull, 127751ull, 1, 0, 0ull,
       9782432993069828133ull, 17844785856219385124ull,
       10823767175596033306ull, 9706296494936403450ull},
      {4615337384375030226ull, 5, 6486ull, 6486ull, 1, 0, 0ull,
       16220671982901725221ull, 6958107229267241064ull, 4456618944495193247ull,
       4432977253940587664ull},
      {4616989341606321844ull, 8, 15599ull, 15599ull, 1, 0, 0ull,
       16815318107772749861ull, 11940344131088449570ull,
       17236648918023849472ull, 16026159661210030486ull},
      {4616282197397949616ull, 6, 28350ull, 28350ull, 1, 0, 0ull,
       15372284412863252517ull, 13398839423619047053ull, 679705580478147671ull,
       15896013449518796602ull},
      {4625856818486153438ull, 46, 210554ull, 210554ull, 1, 0, 0ull,
       6310710940874377253ull, 5890401787944674878ull, 3965144319682152543ull,
       10645512012451399322ull},
      {4626222835316636434ull, 61, 3870ull, 3870ull, 1, 0, 0ull,
       3675952395465852965ull, 10885558025992347513ull, 2566556343358987273ull,
       14188053649403078959ull},
      {4626306639822866507ull, 61, 7167ull, 7167ull, 1, 0, 0ull,
       10650743988681508901ull, 15719651170260642214ull,
       10446144217244945310ull, 14188053649403078959ull},
      {4626815254192218854ull, 63, 123630ull, 123630ull, 1, 1,
       4638426141214900224ull, 6989162597928732709ull, 13346994205906133797ull,
       7336419972297887686ull, 14188053649403078959ull},
      {4625530027271701987ull, 49, 127751ull, 127751ull, 1, 1,
       4638426141214900224ull, 13468121863456360485ull,
       17844785856219385124ull, 10073052577196436483ull,
       14188053649403078959ull},
      {4613271005018974136ull, 5, 6486ull, 6486ull, 1, 1,
       4642718634609737728ull, 6924853124892788773ull, 6958107229267241064ull,
       4868625218731197874ull, 14188053649403078959ull},
      {4615675313496341926ull, 8, 15599ull, 15599ull, 1, 1,
       4642718634609737728ull, 18155665113229363237ull,
       11940344131088449570ull, 8182697235080926941ull,
       14188053649403078959ull},
      {4613868972736426632ull, 6, 28350ull, 28350ull, 1, 1,
       4655213484747784192ull, 2452481277018572837ull, 13398839423619047053ull,
       4813629982053523690ull, 14188053649403078959ull},
      {4625556198631175236ull, 46, 210554ull, 210554ull, 1, 1,
       4651734629957500928ull, 15361286272928516133ull, 5890401787944674878ull,
       14333253616296480887ull, 14188053649403078959ull},
      {4626086731298378583ull, 61, 3870ull, 3870ull, 1, 0, 0ull,
       3675952395465852965ull, 10885558025992347513ull, 5291698528201386776ull,
       15570859354283172945ull},
      {4626173805667333977ull, 61, 7167ull, 7167ull, 1, 0, 0ull,
       10650743988681508901ull, 15719651170260642214ull,
       5533302213862556036ull, 6356753852392378764ull},
      {4626793942390372623ull, 63, 123630ull, 123630ull, 1, 1,
       4638426141214900224ull, 6989162597928732709ull, 13346994205906133797ull,
       14639751596008176640ull, 12391837607809936127ull},
      {4625523526667275363ull, 49, 127751ull, 127751ull, 1, 1,
       4638426141214900224ull, 13468121863456360485ull,
       17844785856219385124ull, 1361959732614509015ull,
       8902658270480143895ull},
      {4612289747211088728ull, 5, 6486ull, 6486ull, 1, 1,
       4642718634609737728ull, 6924853124892788773ull, 6958107229267241064ull,
       5061077465468687637ull, 12308706363224779001ull},
      {4614925151972369859ull, 8, 15599ull, 15599ull, 1, 1,
       4642718634609737728ull, 18155665113229363237ull,
       11940344131088449570ull, 16881879152219745714ull,
       8105680524978180599ull},
      {4613168517844142718ull, 6, 28350ull, 28350ull, 1, 1,
       4656286608096493568ull, 788849265693493285ull, 13398839423619047053ull,
       6505766024138429651ull, 11176794862102793157ull},
      {4626059861139158142ull, 46, 210554ull, 210554ull, 1, 1,
       4651708241678434304ull, 12897128432722053157ull, 5890401787944674878ull,
       10486792495206958826ull, 4190845685990676535ull},
      {4625253758734213655ull, 61, 3870ull, 3870ull, 1, 0, 0ull,
       2782792828431860095ull, 10885558025992347513ull,
       13103075244818822579ull, 1391381656153239653ull},
      {4625279460023193019ull, 61, 7167ull, 7167ull, 1, 0, 0ull,
       4155889337477595519ull, 15719651170260642214ull,
       13439668099374357019ull, 5854075583159193415ull},
      {4625550129593119855ull, 63, 123630ull, 123630ull, 1, 1,
       4637159503819702272ull, 3908570277166940543ull, 13346994205906133797ull,
       15544923272761577553ull, 578399548594954661ull},
      {4623987034420727382ull, 49, 127751ull, 127751ull, 1, 1,
       4637159503819702272ull, 16338837576099004799ull,
       12577449464423436918ull, 6344571644178908241ull,
       2344764502089156454ull},
      {4612503985893507201ull, 5, 6486ull, 6486ull, 1, 1,
       4642718634609737728ull, 1940571319601955199ull, 6958107229267241064ull,
       1452965338515740032ull, 3777918790388547365ull},
      {4614440232352016285ull, 8, 15599ull, 15599ull, 1, 1,
       4642718634609737728ull, 5024922437350818175ull, 11940344131088449570ull,
       8264845445754642756ull, 3346349430733510617ull},
      {4613074266273185344ull, 6, 28350ull, 28350ull, 1, 1,
       4651708241678434304ull, 6601359328302563711ull, 13398839423619047053ull,
       16080637802063396251ull, 10035720791698549104ull},
      {4624102917247511872ull, 46, 210554ull, 210554ull, 1, 1,
       4649764305120526336ull, 11130175086624997759ull,
       10275035467701007154ull, 2770148280283841312ull,
       3930044586864517471ull},
      {4621192248356314138ull, 61, 3870ull, 3870ull, 0, 0, 0ull,
       9495990776069470175ull, 10885558025992347513ull,
       11812740220035860169ull, 8977388880535415087ull},
      {4621196379461418528ull, 61, 7167ull, 7167ull, 0, 0, 0ull,
       7140424552512862175ull, 15719651170260642214ull,
       15067873397551509930ull, 8977388880535415087ull},
      {4621489545318705666ull, 63, 123630ull, 123630ull, 0, 0, 0ull,
       18155596334680356831ull, 13346994205906133797ull,
       12267793508795798668ull, 8977388880535415087ull},
      {4620007661100974986ull, 49, 127751ull, 127751ull, 0, 0, 0ull,
       18275437260952418271ull, 7483595773932399925ull,
       10010900855890846366ull, 8977388880535415087ull},
      {4605066889614517504ull, 5, 6486ull, 6486ull, 0, 0, 0ull,
       7434571400733636575ull, 6958107229267241064ull, 1995631412905827917ull,
       8977388880535415087ull},
      {4608327332492655802ull, 8, 15599ull, 15599ull, 0, 0, 0ull,
       5613491523334289375ull, 11940344131088449570ull,
       16106344214451281730ull, 8977388880535415087ull},
      {4607380641356738855ull, 6, 28350ull, 28350ull, 0, 0, 0ull,
       3199095930133526495ull, 13398839423619047053ull,
       11256593070227017416ull, 8977388880535415087ull},
      {4620621833795158103ull, 46, 210554ull, 210554ull, 0, 0, 0ull,
       16011522890713380831ull, 15341350774008039046ull,
       17911317392837357824ull, 8977388880535415087ull},
  };
  // One host thread deposits messages as it expands; the default pool
  // stages and merges them. Both must hold the same pins.
  for (const int host_threads : {1, EngineOptions{}.num_host_threads}) {
    SCOPED_TRACE(testing::Message() << "host_threads=" << host_threads);
    const std::vector<GumRow> got = PinGumRows(host_threads);
    ASSERT_EQ(got.size(), std::size(kGolden));
    for (size_t i = 0; i < got.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "row " << i);
      ExpectGumRowEq(got[i], kGolden[i]);
    }
  }
}

// Golden pins for the pull gather (`--expand=spmv|auto`), in GumGoldenTest's
// fields, captured from the build whose pull ran in its own backend and
// fused Scatter and Combine through an app hook. Rows: {road 32x32, RMAT 10
// weighted} x {spmv, auto} x {bfs, sssp, wcc on the symmetric graph, pr,
// dpr, astar} at 8 devices; road sssp under spmv with a fail-stop that
// rolls back (checkpoint.every 2); RMAT sssp under auto on 5 devices,
// fair + multipath.
std::vector<GumRow> PinSpmvRows(int host_threads) {
  const graph::CsrGraph road = RoadGraph(32, 3);
  const graph::CsrGraph rmat = SocialGraph(10, 2, /*weighted=*/true);
  const graph::CsrGraph rmat_sym = SocialGraphSym(10, 2);
  constexpr GumCase kEight = {8, GumFault::kNone, "", 0, false};
  std::vector<GumRow> rows;
  for (const auto& [g, sym] :
       {std::pair{&road, &road}, std::pair{&rmat, &rmat_sym}}) {
    const VertexId source = test::MaxDegreeSource(*g);
    for (const ExpandBackendKind expand :
         {ExpandBackendKind::kSpmv, ExpandBackendKind::kAuto}) {
      SCOPED_TRACE(testing::Message()
                   << (g == &road ? "road" : "rmat") << ", "
                   << ExpandBackendKindName(expand));
      const auto pin = [&](const graph::CsrGraph& graph, auto app) {
        rows.push_back(PinGum(graph, kEight, host_threads, app, expand));
      };
      pin(*g, BfsApp{.source = source});
      pin(*g, SsspApp{.source = source});
      pin(*sym, WccApp{});
      pin(*g, PageRankApp{.num_vertices = g->num_vertices(), .rounds = 10});
      pin(*g, DeltaPageRankApp{.num_vertices = g->num_vertices(),
                               .epsilon = 1e-6});
      pin(*g, AStarApp{.source = source, .target = 1000, .heuristic = {}});
    }
  }
  constexpr GumCase kRollback = {8, GumFault::kRollback, "failstop:1@3", 2,
                                 false};
  rows.push_back(PinGum(road, kRollback, host_threads,
                        SsspApp{.source = test::MaxDegreeSource(road)},
                        ExpandBackendKind::kSpmv));
  constexpr GumCase kFair = {5, GumFault::kNone, "", 0, true};
  rows.push_back(PinGum(rmat, kFair, host_threads,
                        SsspApp{.source = test::MaxDegreeSource(rmat)},
                        ExpandBackendKind::kAuto));
  return rows;
}

TEST(SpmvGoldenTest, BitIdentical) {
  constexpr GumRow kGolden[] = {
      {4626082097828281104ull, 61, 3870ull, 3870ull, 1, 0, 0ull,
       3675952395465852965ull, 10885558025992347513ull, 1011000235074159272ull,
       8977388880535415087ull},
      {4626039654802656945ull, 61, 7167ull, 3449ull, 1, 0, 0ull,
       10650743988681508901ull, 15719651170260642214ull, 6695233412373347389ull,
       8977388880535415087ull},
      {4626252205510409273ull, 63, 123630ull, 742ull, 1, 0, 0ull,
       976567236636248101ull, 13346994205906133797ull, 3465695952142393288ull,
       8977388880535415087ull},
      {4615603391651498252ull, 10, 38700ull, 0ull, 1, 0, 0ull,
       14457617182390814757ull, 6114193105435218041ull, 4043882837865815216ull,
       8977388880535415087ull},
      {4624925778582527375ull, 49, 127751ull, 367ull, 1, 0, 0ull,
       13662540808014596133ull, 17844785856219385124ull, 1485664944109737543ull,
       8977388880535415087ull},
      {4626039654802656945ull, 61, 7167ull, 3449ull, 1, 0, 0ull,
       10650743988681508901ull, 15719651170260642214ull, 6695233412373347389ull,
       8977388880535415087ull},
      {4626082097828281104ull, 61, 3870ull, 3870ull, 1, 0, 0ull,
       3675952395465852965ull, 10885558025992347513ull, 1011000235074159272ull,
       8977388880535415087ull},
      {4626039654802656945ull, 61, 7167ull, 3449ull, 1, 0, 0ull,
       10650743988681508901ull, 15719651170260642214ull, 6695233412373347389ull,
       8977388880535415087ull},
      {4626252205510409273ull, 63, 123630ull, 742ull, 1, 0, 0ull,
       976567236636248101ull, 13346994205906133797ull, 3465695952142393288ull,
       8977388880535415087ull},
      {4615603391651498252ull, 10, 38700ull, 0ull, 1, 0, 0ull,
       14457617182390814757ull, 6114193105435218041ull, 4043882837865815216ull,
       8977388880535415087ull},
      {4624925778582527375ull, 49, 127751ull, 367ull, 1, 0, 0ull,
       13662540808014596133ull, 17844785856219385124ull, 1485664944109737543ull,
       8977388880535415087ull},
      {4626039654802656945ull, 61, 7167ull, 3449ull, 1, 0, 0ull,
       10650743988681508901ull, 15719651170260642214ull, 6695233412373347389ull,
       8977388880535415087ull},
      {4611937390940797860ull, 5, 6486ull, 303ull, 1, 0, 0ull,
       11133491165926328357ull, 6958107229267241064ull, 5680380822383352576ull,
       8977388880535415087ull},
      {4614159117724664527ull, 8, 15599ull, 359ull, 1, 0, 0ull,
       457321221151590437ull, 11940344131088449570ull, 3873843587259379955ull,
       8977388880535415087ull},
      {4612578851572941456ull, 6, 28350ull, 79ull, 1, 0, 0ull,
       12268031035140016165ull, 13398839423619047053ull,
       12412554787214284095ull, 8977388880535415087ull},
      {4616256589885679215ull, 10, 66400ull, 0ull, 1, 0, 0ull,
       7205282466045429797ull, 16793950641338133513ull, 3460178930317156863ull,
       8977388880535415087ull},
      {4624996112122091915ull, 46, 210554ull, 650ull, 1, 0, 0ull,
       14651847010949072933ull, 5890401787944674878ull, 5118769438655352965ull,
       8977388880535415087ull},
      {4614159117724664527ull, 8, 15599ull, 359ull, 1, 0, 0ull,
       457321221151590437ull, 11940344131088449570ull, 3873843587259379955ull,
       8977388880535415087ull},
      {4612022945822919017ull, 5, 6486ull, 303ull, 1, 1, 4642718634609737728ull,
       14688331005781936165ull, 6958107229267241064ull, 6818510620514583660ull,
       8977388880535415087ull},
      {4614244564600458620ull, 8, 15599ull, 359ull, 1, 1,
       4642718634609737728ull, 4302907119763261477ull, 11940344131088449570ull,
       3920569159586243912ull, 8977388880535415087ull},
      {4612578851572941456ull, 6, 28350ull, 79ull, 1, 0, 0ull,
       12268031035140016165ull, 13398839423619047053ull,
       12412554787214284095ull, 8977388880535415087ull},
      {4616256589885679215ull, 10, 66400ull, 0ull, 1, 0, 0ull,
       7205282466045429797ull, 16793950641338133513ull, 3460178930317156863ull,
       8977388880535415087ull},
      {4624995955917240839ull, 46, 210554ull, 650ull, 1, 0, 0ull,
       13684244755230033957ull, 5890401787944674878ull, 13460572471349906056ull,
       8977388880535415087ull},
      {4614244564600458620ull, 8, 15599ull, 359ull, 1, 1,
       4642718634609737728ull, 4302907119763261477ull, 11940344131088449570ull,
       3920569159586243912ull, 8977388880535415087ull},
      {4626242499638803584ull, 61, 7167ull, 3449ull, 1, 0, 0ull,
       5637898953836791845ull, 15719651170260642214ull, 11171230050615765094ull,
       16188127975092532790ull},
      {4612551065687043157ull, 8, 15599ull, 359ull, 1, 1,
       4642718634609737728ull, 12872845010276417919ull, 11940344131088449570ull,
       11310395564612316276ull, 8977388880535415087ull},
  };
  // One host thread gathers every shard in turn; the default pool gathers
  // them concurrently. Both must hold the same pins.
  for (const int host_threads : {1, EngineOptions{}.num_host_threads}) {
    SCOPED_TRACE(testing::Message() << "host_threads=" << host_threads);
    const std::vector<GumRow> got = PinSpmvRows(host_threads);
    ASSERT_EQ(got.size(), std::size(kGolden));
    for (size_t i = 0; i < got.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "row " << i);
      ExpectGumRowEq(got[i], kGolden[i]);
    }
  }
}

}  // namespace
}  // namespace gum::core
