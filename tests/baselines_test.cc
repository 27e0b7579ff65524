#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "algos/apps.h"
#include "algos/reference.h"
#include "baselines/groute_cc.h"
#include "baselines/groute.h"
#include "baselines/gunrock.h"
#include "core/engine.h"
#include "tests/test_util.h"

namespace gum::baselines {
namespace {

using algos::BfsApp;
using algos::DeltaPageRankApp;
using algos::PageRankApp;
using algos::SsspApp;
using algos::WccApp;
using core::GumEngine;
using graph::VertexId;
using test::MakePartition;
using test::RoadGraph;
using test::SocialGraph;
using test::SocialGraphSym;
using test::Topo;

// ---------- Gunrock-like ----------

TEST(GunrockLikeTest, BfsMatchesReference) {
  const auto g = SocialGraph();
  GumEngine<BfsApp> engine(&g, MakePartition(g, 4), Topo(4),
                           GunrockEngineOptions());
  BfsApp app;
  app.source = 1;
  std::vector<uint32_t> depths;
  engine.Run(app, &depths);
  EXPECT_EQ(depths, algos::ref::Bfs(g, 1));
}

TEST(GunrockLikeTest, SsspMatchesReference) {
  const auto g = SocialGraph(10, 4, /*weighted=*/true);
  GumEngine<SsspApp> engine(&g, MakePartition(g, 8), Topo(8),
                            GunrockEngineOptions());
  SsspApp app;
  app.source = 3;
  std::vector<float> dist;
  engine.Run(app, &dist);
  const auto expected = algos::ref::Sssp(g, 3);
  for (size_t v = 0; v < dist.size(); ++v) EXPECT_EQ(dist[v], expected[v]);
}

TEST(GunrockLikeTest, PageRankMatchesReference) {
  const auto g = SocialGraph(9, 5);
  GumEngine<PageRankApp> engine(&g, MakePartition(g, 4), Topo(4),
                                GunrockEngineOptions());
  PageRankApp app;
  app.num_vertices = g.num_vertices();
  app.rounds = 10;
  std::vector<double> rank;
  engine.Run(app, &rank);
  const auto expected = algos::ref::PageRank(g, 0.85, 10);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_NEAR(rank[v], expected[v], 1e-9);
  }
}

TEST(GunrockLikeTest, SingleGpuBoostApplies) {
  const auto g = SocialGraph(10, 6);
  BfsApp app;
  app.source = 0;
  const auto boosted =
      GunrockEngineOptions({}, sim::ContentionModel::kOff, 0.5);
  const auto unboosted =
      GunrockEngineOptions({}, sim::ContentionModel::kOff, 1.0);
  const auto r_boost =
      GumEngine<BfsApp>(&g, MakePartition(g, 1), Topo(1), boosted).Run(app);
  app.source = 0;
  const auto r_plain =
      GumEngine<BfsApp>(&g, MakePartition(g, 1), Topo(1), unboosted)
          .Run(app);
  EXPECT_LT(r_boost.ComputeMs(), r_plain.ComputeMs());
}

TEST(GunrockLikeTest, SyncOverheadScalesWithDevices) {
  // Same graph and algorithm; overhead per iteration grows with n.
  const auto g = RoadGraph(16);
  BfsApp app;
  app.source = 0;
  const auto r2 = GumEngine<BfsApp>(&g, MakePartition(g, 2), Topo(2),
                                    GunrockEngineOptions())
                      .Run(app);
  app.source = 0;
  const auto r8 = GumEngine<BfsApp>(&g, MakePartition(g, 8), Topo(8),
                                    GunrockEngineOptions())
                      .Run(app);
  EXPECT_GT(r8.OverheadMs() / r8.iterations,
            r2.OverheadMs() / r2.iterations);
}


TEST(GunrockLikeTest, DeltaPageRankConverges) {
  const auto g = SocialGraph(9, 91);
  GumEngine<DeltaPageRankApp> engine(&g, MakePartition(g, 4), Topo(4),
                                     GunrockEngineOptions());
  DeltaPageRankApp app;
  app.num_vertices = g.num_vertices();
  app.epsilon = 1e-12;
  std::vector<DeltaPageRankApp::State> state;
  engine.Run(app, &state);
  const auto expected = algos::ref::PageRank(g, 0.85, 100);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_NEAR(state[v].rank, expected[v], 1e-6);
  }
}

// Golden pins for the Gunrock preset: the simulated clock, the counters,
// every link's traffic, every value and every timeline cell stay
// bit-identical to the separate Gunrock-like BSP loop the preset replaced.
// Doubles compare as bit patterns; link_bytes, the values and the timeline
// fold into FNV-1a digests.
struct GunrockRow {
  uint64_t total_ms_bits = 0;
  int iterations = 0;
  uint64_t messages = 0;
  uint64_t edges = 0;
  uint64_t link_bytes_digest = 0;
  uint64_t values_digest = 0;
  uint64_t timeline_digest = 0;
};

template <typename App>
GunrockRow PinGunrock(const graph::CsrGraph& g, int devices,
                      sim::ContentionModel contention, double factor,
                      int host_threads, App app) {
  core::EngineOptions options = GunrockEngineOptions({}, contention, factor);
  options.num_host_threads = host_threads;
  std::vector<typename App::Value> values;
  const core::RunResult r =
      GumEngine<App>(&g, MakePartition(g, devices), Topo(devices), options)
          .Run(app, &values);
  return {std::bit_cast<uint64_t>(r.total_ms), r.iterations, r.messages_sent,
          r.edges_processed, test::LinkBytesDigest(r),
          test::ValuesDigest(values), test::TimelineDigest(r)};
}

// The 30 pinned rows: {8 devices off, 5 devices fair, 1 device at factor
// 0.5} x {road 32x32, RMAT 10 weighted} x {bfs, sssp, wcc on the symmetric
// graph, dpr, pr}.
std::vector<GunrockRow> PinGunrockRows(int host_threads) {
  const auto kOff = sim::ContentionModel::kOff;
  const auto kFair = sim::ContentionModel::kFair;
  const graph::CsrGraph road = RoadGraph(32, 3);
  const graph::CsrGraph rmat = SocialGraph(10, 2, /*weighted=*/true);
  const graph::CsrGraph rmat_sym = SocialGraphSym(10, 2);
  struct Cell {
    int devices;
    sim::ContentionModel contention;
    double factor;
  };
  std::vector<GunrockRow> rows;
  for (const Cell cell : {Cell{8, kOff, 0.70}, Cell{5, kFair, 0.70},
                          Cell{1, kOff, 0.5}}) {
    for (const auto& [g, sym] :
         {std::pair{&road, &road}, std::pair{&rmat, &rmat_sym}}) {
      const auto pin = [&](const graph::CsrGraph& graph, auto app) {
        rows.push_back(PinGunrock(graph, cell.devices, cell.contention,
                                  cell.factor, host_threads, app));
      };
      const VertexId source = test::MaxDegreeSource(*g);
      pin(*g, BfsApp{.source = source});
      pin(*g, SsspApp{.source = source});
      pin(*sym, WccApp{});
      pin(*g, DeltaPageRankApp{.num_vertices = g->num_vertices(),
                               .epsilon = 1e-6});
      pin(*g, PageRankApp{.num_vertices = g->num_vertices(), .rounds = 10});
    }
  }
  return rows;
}

TEST(GunrockGoldenTest, BitIdentical) {
  constexpr GunrockRow kGolden[] = {
      {4633275540397532438ull, 61, 3870, 3870, 5324353421967165477ull,
       10885558025992347513ull, 16939682014399179982ull},
      {4633275677511307392ull, 61, 7167, 7167, 7618268929042745381ull,
       15719651170260642214ull, 1694036116994823223ull},
      {4633544587031495855ull, 63, 123630, 123630, 14029326891924391973ull,
       13346994205906133797ull, 15576797470269119814ull},
      {4631690720058690321ull, 49, 127751, 127751, 7373804338356750373ull,
       17844785856219385124ull, 10221115133748435793ull},
      {4621492556109293910ull, 10, 38700, 38700, 16918644163237185573ull,
       6114193105435218041ull, 8579233339788015769ull},
      {4616995622125083666ull, 5, 6486, 6486, 7322460718752401445ull,
       6958107229267241064ull, 963195755142049070ull},
      {4620187743521967803ull, 8, 15599, 15599, 10019435198338107429ull,
       11940344131088449570ull, 6804441309610482989ull},
      {4618084330241632307ull, 6, 28350, 28350, 7032504109345081381ull,
       13398839423619047053ull, 13345335846724278753ull},
      {4631327558931524626ull, 46, 210554, 210554, 8357950120905213989ull,
       5890401787944674878ull, 8113026309735189004ull},
      {4621530667319424321ull, 10, 66400, 66400, 16618523668342704165ull,
       16793950641338133513ull, 15609765798218027621ull},
      {4630365256139756528ull, 61, 3870, 3870, 15802303526973964671ull,
       10885558025992347513ull, 7919237886935528676ull},
      {4630365431342667086ull, 61, 7167, 7167, 17333461429582266751ull,
       15719651170260642214ull, 13642696007949558300ull},
      {4630540566635815491ull, 63, 123630, 123630, 4357146694604783999ull,
       13346994205906133797ull, 9556774750629948480ull},
      {4629008884126858066ull, 49, 127751, 127751, 14167248097732690303ull,
       12577449464423436918ull, 3251665410648457864ull},
      {4618479273536728743ull, 10, 38700, 38700, 10646943093471805823ull,
       7875890642161553669ull, 8900420594377873269ull},
      {4613989787088010944ull, 5, 6486, 6486, 2038058418567086463ull,
       6958107229267241064ull, 174335101338529182ull},
      {4617138827916587571ull, 8, 15599, 15599, 15079760560292594047ull,
       11940344131088449570ull, 5546025894202590155ull},
      {4615407649300365248ull, 6, 28350, 28350, 1383917169761288575ull,
       13398839423619047053ull, 12034475549952649101ull},
      {4628583047445196660ull, 46, 210554, 210554, 7307446316767871359ull,
       10275035467701007154ull, 7845812857756301590ull},
      {4618582081054527587ull, 10, 66400, 66400, 6900363818894852479ull,
       14971030084900775311ull, 8394352059023857909ull},
      {4621445547382598469ull, 61, 3870, 3870, 9495990776069470175ull,
       10885558025992347513ull, 1964710082820281553ull},
      {4621447204781422435ull, 61, 7167, 7167, 7140424552512862175ull,
       15719651170260642214ull, 2274563053706426004ull},
      {4621677835890413829ull, 63, 123630, 123630, 18155596334680356831ull,
       13346994205906133797ull, 341879111721653257ull},
      {4620254810217272336ull, 49, 127751, 127751, 18275437260952418271ull,
       7483595773932399925ull, 12661480793751735592ull},
      {4609724442747504372ull, 10, 38700, 38700, 171535687470921695ull,
       2909589568272823577ull, 6070882181587455189ull},
      {4605235550446336231ull, 5, 6486, 6486, 7434571400733636575ull,
       6958107229267241064ull, 13536323048803204197ull},
      {4608397036371171988ull, 8, 15599, 15599, 5613491523334289375ull,
       11940344131088449570ull, 13074724268790664455ull},
      {4607224793730272517ull, 6, 28350, 28350, 3199095930133526495ull,
       13398839423619047053ull, 1527689813406948340ull},
      {4620339985851048867ull, 46, 210554, 210554, 16011522890713380831ull,
       15341350774008039046ull, 16175613492291041620ull},
      {4610529673156900572ull, 10, 66400, 66400, 16927772387137664991ull,
       3026925336051444861ull, 511821575251072697ull},
  };
  // One host thread deposits messages as it expands; the default pool
  // stages and merges them. Both must hold the same pins.
  for (const int host_threads : {1, core::EngineOptions{}.num_host_threads}) {
    SCOPED_TRACE(testing::Message() << "host_threads=" << host_threads);
    const std::vector<GunrockRow> got = PinGunrockRows(host_threads);
    ASSERT_EQ(got.size(), std::size(kGolden));
    for (size_t i = 0; i < got.size(); ++i) {
      SCOPED_TRACE(testing::Message()
                   << "row " << i << ": {" << got[i].total_ms_bits << "ull, "
                   << got[i].iterations << ", " << got[i].messages << ", "
                   << got[i].edges << ", " << got[i].link_bytes_digest
                   << "ull, " << got[i].values_digest << "ull, "
                   << got[i].timeline_digest << "ull},");
      const GunrockRow& want = kGolden[i];
      EXPECT_EQ(got[i].total_ms_bits, want.total_ms_bits);
      EXPECT_EQ(got[i].iterations, want.iterations);
      EXPECT_EQ(got[i].messages, want.messages);
      EXPECT_EQ(got[i].edges, want.edges);
      EXPECT_EQ(got[i].link_bytes_digest, want.link_bytes_digest);
      EXPECT_EQ(got[i].values_digest, want.values_digest);
      EXPECT_EQ(got[i].timeline_digest, want.timeline_digest);
    }
  }
}

// ---------- Groute-like ----------

TEST(GrouteLikeTest, BfsConvergesToReference) {
  const auto g = SocialGraph();
  BfsApp app;
  app.source = 1;
  std::vector<uint32_t> depths;
  RunGroute(g, MakePartition(g, 4), GrouteEngineOptions(), app, &depths);
  EXPECT_EQ(depths, algos::ref::Bfs(g, 1));
}

TEST(GrouteLikeTest, SsspConvergesToReference) {
  const auto g = SocialGraph(10, 4, /*weighted=*/true);
  SsspApp app;
  app.source = 3;
  std::vector<float> dist;
  RunGroute(g, MakePartition(g, 3), GrouteEngineOptions(), app, &dist);
  const auto expected = algos::ref::Sssp(g, 3);
  for (size_t v = 0; v < dist.size(); ++v) EXPECT_EQ(dist[v], expected[v]);
}

TEST(GrouteLikeTest, WccConvergesToReference) {
  const auto g = SocialGraphSym(9, 4);
  WccApp app;
  std::vector<VertexId> labels;
  RunGroute(g, MakePartition(g, 4), GrouteEngineOptions(), app, &labels);
  EXPECT_EQ(labels, algos::ref::Wcc(g));
}

TEST(GrouteLikeTest, DeltaPageRankConverges) {
  const auto g = SocialGraph(9, 5);
  DeltaPageRankApp app;
  app.num_vertices = g.num_vertices();
  app.epsilon = 1e-12;
  std::vector<DeltaPageRankApp::State> state;
  RunGroute(g, MakePartition(g, 2), GrouteEngineOptions(), app, &state);
  const auto expected = algos::ref::PageRank(g, 0.85, 100);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_NEAR(state[v].rank, expected[v], 1e-6);
  }
}

TEST(GrouteLikeTest, ReportsPositiveTime) {
  const auto g = SocialGraph(9, 5);
  BfsApp app;
  // RMAT leaves some vertices isolated; pick a source with out-edges.
  app.source = 0;
  while (g.OutDegree(app.source) == 0) ++app.source;
  const auto result =
      RunGroute(g, MakePartition(g, 4), GrouteEngineOptions(), app);
  EXPECT_GT(result.total_ms, 0.0);
  EXPECT_GT(result.iterations, 0);  // batch count
  EXPECT_GT(result.edges_processed, 0u);
}

TEST(GrouteLikeTest, OddDeviceCountSlowerPerMessage) {
  // Paper Fig. 7: odd GPU counts cannot form a clean NVLink ring. Compare
  // n=5 vs n=4 wall time on the same communication-heavy workload: 5 devices
  // should not bring a proportional improvement.
  const auto g = SocialGraph(11, 8);
  BfsApp app;
  app.source = 0;
  const auto r4 =
      RunGroute(g, MakePartition(g, 4), GrouteEngineOptions(), app);
  app.source = 0;
  const auto r5 =
      RunGroute(g, MakePartition(g, 5), GrouteEngineOptions(), app);
  EXPECT_GT(r5.total_ms, 0.6 * r4.total_ms)
      << "odd ring should not scale cleanly";
}


// ---------- Groute CC (dedicated connected-components engine) ----------

TEST(GrouteCcTest, MatchesUnionFindReference) {
  const auto g = SocialGraphSym(10, 23);
  GrouteCcEngine engine(&g, MakePartition(g, 8), {});
  std::vector<VertexId> labels;
  engine.Run(&labels);
  EXPECT_EQ(labels, algos::ref::Wcc(g));
}

TEST(GrouteCcTest, RoadNetworkConvergesInFewRounds) {
  // The whole point of the algorithm: rounds ~ log |V|, independent of the
  // ~56-hop diameter of this grid.
  const auto g = RoadGraph(28, 24);
  GrouteCcEngine engine(&g, MakePartition(g, 8), {});
  std::vector<VertexId> labels;
  const auto result = engine.Run(&labels);
  EXPECT_EQ(labels, algos::ref::Wcc(g));
  EXPECT_LE(result.iterations, 12) << "should be diameter-independent";
  EXPECT_GT(result.total_ms, 0.0);
}

TEST(GrouteCcTest, FasterThanLabelPropagationOnRoadNetworks) {
  const auto g = RoadGraph(28, 25);
  const auto part = MakePartition(g, 8);
  std::vector<VertexId> cc_labels, lp_labels;
  const auto cc = GrouteCcEngine(&g, part, {}).Run(&cc_labels);
  WccApp app;
  const auto lp = RunGroute(g, part, GrouteEngineOptions(), app, &lp_labels);
  EXPECT_EQ(cc_labels, lp_labels);
  EXPECT_LT(cc.total_ms, lp.total_ms);
}

TEST(GrouteCcTest, SingleDevice) {
  const auto g = SocialGraphSym(8, 26);
  GrouteCcEngine engine(&g, MakePartition(g, 1), {});
  std::vector<VertexId> labels;
  engine.Run(&labels);
  EXPECT_EQ(labels, algos::ref::Wcc(g));
}

TEST(GrouteCcTest, DisconnectedGraph) {
  // Two separate triangles.
  graph::EdgeList list;
  list.num_vertices = 6;
  list.edges = {{0, 1, 1}, {1, 2, 1}, {2, 0, 1},
                {3, 4, 1}, {4, 5, 1}, {5, 3, 1}};
  graph::CsrBuildOptions sym;
  sym.symmetrize = true;
  auto g = graph::CsrGraph::FromEdgeList(list, sym);
  ASSERT_TRUE(g.ok());
  GrouteCcEngine engine(&*g, MakePartition(*g, 2), {});
  std::vector<VertexId> labels;
  engine.Run(&labels);
  EXPECT_EQ(labels, (std::vector<VertexId>{0, 0, 0, 3, 3, 3}));
}

// ---------- Cross-engine agreement ----------

TEST(CrossEngineTest, AllThreeEnginesAgreeOnBfs) {
  const auto g = SocialGraph(10, 9);
  const auto part = MakePartition(g, 4);
  BfsApp app;
  std::vector<uint32_t> gum_d, gun_d, gro_d;
  app.source = 5;
  GumEngine<BfsApp>(&g, part, Topo(4), test::TestEngineOptions())
      .Run(app, &gum_d);
  app.source = 5;
  GumEngine<BfsApp>(&g, part, Topo(4), GunrockEngineOptions())
      .Run(app, &gun_d);
  app.source = 5;
  RunGroute(g, part, GrouteEngineOptions(), app, &gro_d);
  EXPECT_EQ(gum_d, gun_d);
  EXPECT_EQ(gum_d, gro_d);
}

enum class Engine { kGum, kGunrock, kGroute };

const char* EngineName(Engine engine) {
  switch (engine) {
    case Engine::kGum:
      return "gum";
    case Engine::kGunrock:
      return "gunrock";
    case Engine::kGroute:
      return "groute";
  }
  return "?";
}

// Runs `app` on `engine` over `devices` devices and returns its values.
template <typename App>
std::vector<typename App::Value> RunOn(Engine engine,
                                       const graph::CsrGraph& g,
                                       int devices, App app) {
  const graph::Partition part = MakePartition(g, devices);
  std::vector<typename App::Value> values;
  switch (engine) {
    case Engine::kGum:
      GumEngine<App>(&g, part, Topo(devices), test::TestEngineOptions())
          .Run(app, &values);
      break;
    case Engine::kGunrock:
      GumEngine<App>(&g, part, Topo(devices), GunrockEngineOptions())
          .Run(app, &values);
      break;
    case Engine::kGroute:
      RunGroute(g, part, GrouteEngineOptions(), app, &values);
      break;
  }
  return values;
}

// Every engine on every device count reaches the reference fixpoint:
// exactly for the min-combine apps, within 1e-6 for delta-PageRank.
class CrossEngineExactnessTest
    : public testing::TestWithParam<std::tuple<Engine, int>> {};

TEST_P(CrossEngineExactnessTest, MatchesReference) {
  const auto [engine, devices] = GetParam();
  const graph::CsrGraph road = RoadGraph(32, 3);
  const graph::CsrGraph rmat = SocialGraph(10, 2, /*weighted=*/true);
  const graph::CsrGraph rmat_sym = SocialGraphSym(10, 2);
  // {graph, its symmetric version for WCC}; the road grid is symmetric.
  for (const auto& [g, sym] :
       {std::pair{&road, &road}, std::pair{&rmat, &rmat_sym}}) {
    SCOPED_TRACE(g == &road ? "road 32x32" : "RMAT 10");
    const VertexId source = test::MaxDegreeSource(*g);
    EXPECT_EQ(RunOn(engine, *g, devices, BfsApp{.source = source}),
              algos::ref::Bfs(*g, source));
    EXPECT_EQ(RunOn(engine, *g, devices, SsspApp{.source = source}),
              algos::ref::Sssp(*g, source));
    EXPECT_EQ(RunOn(engine, *sym, devices, WccApp{}), algos::ref::Wcc(*sym));
    // An epsilon of 1e-9 leaves ~6e-8 of unpropagated residual per vertex.
    const auto dpr =
        RunOn(engine, *g, devices,
              DeltaPageRankApp{.num_vertices = g->num_vertices(),
                               .epsilon = 1e-9});
    const auto rank = algos::ref::PageRank(*g, 0.85, 100);
    ASSERT_EQ(dpr.size(), rank.size());
    for (VertexId v = 0; v < g->num_vertices(); ++v) {
      EXPECT_NEAR(dpr[v].rank, rank[v], 1e-6) << "vertex " << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, CrossEngineExactnessTest,
    testing::Combine(testing::Values(Engine::kGum, Engine::kGunrock,
                                     Engine::kGroute),
                     testing::Values(1, 4, 8)),
    [](const testing::TestParamInfo<std::tuple<Engine, int>>& info) {
      return std::string(EngineName(std::get<0>(info.param))) + "_" +
             std::to_string(std::get<1>(info.param)) + "dev";
    });

}  // namespace
}  // namespace gum::baselines
