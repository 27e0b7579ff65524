// Parameterized property suite: the central invariant of work stealing is
// that it NEVER changes algorithm results — across device counts,
// partitioners, stealing configurations and graph families. Each TEST_P
// below sweeps that grid.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "algos/apps.h"
#include "algos/reference.h"
#include "core/engine.h"
#include "tests/test_util.h"

namespace gum::core {
namespace {

using algos::BfsApp;
using algos::SsspApp;
using algos::WccApp;
using graph::PartitionerKind;
using graph::VertexId;
using test::MakePartition;
using test::RoadGraph;
using test::SocialGraph;
using test::SocialGraphSym;
using test::TestEngineOptions;
using test::Topo;

struct PropertyParam {
  int devices;
  PartitionerKind partitioner;
  bool fsteal;
  bool osteal;

  std::string Name() const {
    std::string s = std::to_string(devices) + "dev_";
    s += graph::PartitionerName(partitioner);
    s += fsteal ? "_fs1" : "_fs0";
    s += osteal ? "_os1" : "_os0";
    return s;
  }
};

class StealingInvariance : public ::testing::TestWithParam<PropertyParam> {
 protected:
  EngineOptions Options() const {
    auto opt = TestEngineOptions();
    opt.enable_fsteal = GetParam().fsteal;
    opt.enable_osteal = GetParam().osteal;
    return opt;
  }
};

TEST_P(StealingInvariance, BfsExact) {
  const auto& p = GetParam();
  const auto g = SocialGraph(9, 13);
  GumEngine<BfsApp> engine(
      &g, MakePartition(g, p.devices, p.partitioner), Topo(p.devices),
      Options());
  BfsApp app;
  app.source = 9;
  std::vector<uint32_t> depths;
  engine.Run(app, &depths);
  EXPECT_EQ(depths, algos::ref::Bfs(g, 9));
}

TEST_P(StealingInvariance, SsspExact) {
  const auto& p = GetParam();
  const auto g = SocialGraph(9, 14, /*weighted=*/true);
  GumEngine<SsspApp> engine(
      &g, MakePartition(g, p.devices, p.partitioner), Topo(p.devices),
      Options());
  SsspApp app;
  app.source = 2;
  std::vector<float> dist;
  engine.Run(app, &dist);
  const auto expected = algos::ref::Sssp(g, 2);
  for (size_t v = 0; v < dist.size(); ++v) {
    ASSERT_EQ(dist[v], expected[v]) << "vertex " << v;
  }
}

TEST_P(StealingInvariance, WccExact) {
  const auto& p = GetParam();
  const auto g = SocialGraphSym(9, 15);
  GumEngine<WccApp> engine(
      &g, MakePartition(g, p.devices, p.partitioner), Topo(p.devices),
      Options());
  WccApp app;
  std::vector<VertexId> labels;
  engine.Run(app, &labels);
  EXPECT_EQ(labels, algos::ref::Wcc(g));
}

TEST_P(StealingInvariance, RoadSsspExact) {
  const auto& p = GetParam();
  const auto g = RoadGraph(20, 16);
  GumEngine<SsspApp> engine(
      &g, MakePartition(g, p.devices, p.partitioner), Topo(p.devices),
      Options());
  SsspApp app;
  app.source = 7;
  std::vector<float> dist;
  engine.Run(app, &dist);
  const auto expected = algos::ref::Sssp(g, 7);
  for (size_t v = 0; v < dist.size(); ++v) {
    ASSERT_EQ(dist[v], expected[v]) << "vertex " << v;
  }
}


TEST_P(StealingInvariance, WebCrawlBfsExact) {
  const auto& p = GetParam();
  graph::WebCrawlOptions web;
  web.scale = 10;
  web.tendril_fraction = 0.35;
  web.avg_chain_length = 24;
  web.seed = 44;
  auto g = graph::CsrGraph::FromEdgeList(graph::WebCrawl(web));
  ASSERT_TRUE(g.ok());
  GumEngine<BfsApp> engine(
      &*g, MakePartition(*g, p.devices, p.partitioner), Topo(p.devices),
      Options());
  BfsApp app;
  app.source = 0;
  std::vector<uint32_t> depths;
  engine.Run(app, &depths);
  EXPECT_EQ(depths, algos::ref::Bfs(*g, 0));
}

std::vector<PropertyParam> MakeGrid() {
  std::vector<PropertyParam> grid;
  for (int devices : {1, 2, 3, 5, 8}) {
    for (PartitionerKind kind :
         {PartitionerKind::kSegment, PartitionerKind::kRandom,
          PartitionerKind::kMetisLike}) {
      grid.push_back({devices, kind, true, true});
    }
  }
  // Stealing-configuration corners at a fixed device count.
  grid.push_back({4, PartitionerKind::kRandom, false, false});
  grid.push_back({4, PartitionerKind::kRandom, true, false});
  grid.push_back({4, PartitionerKind::kRandom, false, true});
  return grid;
}

INSTANTIATE_TEST_SUITE_P(Grid, StealingInvariance,
                         ::testing::ValuesIn(MakeGrid()),
                         [](const auto& info) { return info.param.Name(); });

// ---- Determinism: identical configs give identical timing and results ----

TEST(DeterminismTest, RepeatRunsIdentical) {
  const auto g = SocialGraph(9, 17, /*weighted=*/true);
  const auto part = MakePartition(g, 4);
  SsspApp app;
  std::vector<float> d1, d2;
  app.source = 3;
  const RunResult r1 = GumEngine<SsspApp>(&g, part, Topo(4),
                                          TestEngineOptions())
                           .Run(app, &d1);
  app.source = 3;
  const RunResult r2 = GumEngine<SsspApp>(&g, part, Topo(4),
                                          TestEngineOptions())
                           .Run(app, &d2);
  EXPECT_EQ(d1, d2);
  EXPECT_EQ(r1.iterations, r2.iterations);
  EXPECT_DOUBLE_EQ(r1.total_ms, r2.total_ms);
  EXPECT_EQ(r1.edges_processed, r2.edges_processed);
  EXPECT_DOUBLE_EQ(r1.stolen_edges_total, r2.stolen_edges_total);
}

// ---- Ablation: the greedy solver is a valid (if weaker) policy ----

TEST(AblationTest, GreedySolverKeepsCorrectness) {
  const auto g = SocialGraph(9, 18, /*weighted=*/true);
  auto opt = TestEngineOptions();
  opt.fsteal.use_greedy = true;
  SsspApp app;
  app.source = 1;
  std::vector<float> dist;
  GumEngine<SsspApp>(&g, MakePartition(g, 8), Topo(8), opt).Run(app, &dist);
  const auto expected = algos::ref::Sssp(g, 1);
  for (size_t v = 0; v < dist.size(); ++v) EXPECT_EQ(dist[v], expected[v]);
}

TEST(AblationTest, ExactMilpKeepsCorrectness) {
  const auto g = SocialGraph(8, 19);
  auto opt = TestEngineOptions();
  opt.fsteal.exact_milp = true;
  BfsApp app;
  app.source = 1;
  std::vector<uint32_t> depths;
  GumEngine<BfsApp>(&g, MakePartition(g, 4), Topo(4), opt).Run(app, &depths);
  EXPECT_EQ(depths, algos::ref::Bfs(g, 1));
}

TEST(AblationTest, HubCacheAndAggregationOff) {
  const auto g = SocialGraph(9, 20);
  auto opt = TestEngineOptions();
  opt.enable_hub_cache = false;
  opt.enable_message_aggregation = false;
  BfsApp app;
  app.source = 6;
  std::vector<uint32_t> depths;
  GumEngine<BfsApp>(&g, MakePartition(g, 4), Topo(4), opt).Run(app, &depths);
  EXPECT_EQ(depths, algos::ref::Bfs(g, 6));
}

TEST(AblationTest, AggregationReducesCommunication) {
  const auto g = SocialGraph(10, 21);
  BfsApp app;
  auto agg_on = TestEngineOptions();
  auto agg_off = TestEngineOptions();
  agg_off.enable_message_aggregation = false;
  const auto part = MakePartition(g, 4);
  app.source = 0;
  const auto r_on =
      GumEngine<BfsApp>(&g, part, Topo(4), agg_on).Run(app);
  app.source = 0;
  const auto r_off =
      GumEngine<BfsApp>(&g, part, Topo(4), agg_off).Run(app);
  EXPECT_LE(r_on.CommunicationMs(), r_off.CommunicationMs());
}

}  // namespace
}  // namespace gum::core
