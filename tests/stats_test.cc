#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "graph/generators.h"
#include "graph/stats.h"

namespace gum::graph {
namespace {

TEST(GiniTest, EqualValuesGiveZero) {
  std::vector<uint32_t> v = {5, 5, 5, 5};
  EXPECT_NEAR(GiniCoefficient(v), 0.0, 1e-12);
}

TEST(GiniTest, ExtremeSkewApproachesOne) {
  std::vector<uint32_t> v(100, 0);
  v[0] = 1000;
  EXPECT_GT(GiniCoefficient(v), 0.95);
}

TEST(GiniTest, KnownTwoValueCase) {
  // {0, 1}: G = 2*(1*0 + 2*1)/(2*1) - 3/2 = 0.5.
  std::vector<uint32_t> v = {0, 1};
  EXPECT_NEAR(GiniCoefficient(v), 0.5, 1e-12);
}

TEST(GiniTest, EmptyAndZeroSafe) {
  std::vector<uint32_t> zeros = {0, 0, 0};
  EXPECT_EQ(GiniCoefficient({}), 0.0);
  EXPECT_EQ(GiniCoefficient(zeros), 0.0);
}

TEST(EntropyTest, UniformIsOne) {
  const std::vector<uint32_t> v = {2, 2, 2, 2};
  EXPECT_NEAR(DegreeEntropy(v), 1.0, 1e-12);
}

TEST(EntropyTest, ConcentratedIsLow) {
  std::vector<uint32_t> v(64, 1);
  v[0] = 100000;
  EXPECT_LT(DegreeEntropy(v), 0.05);
}

TEST(EntropyTest, DegenerateSafe) {
  const std::vector<uint32_t> one = {7};
  EXPECT_EQ(DegreeEntropy({}), 0.0);
  EXPECT_EQ(DegreeEntropy(one), 0.0);
}

TEST(DegreeStatsTest, RmatVsRoadShapes) {
  auto social = CsrGraph::FromEdgeList(
      Rmat({.scale = 11, .edge_factor = 8, .seed = 1}));
  auto road = CsrGraph::FromEdgeList(RoadGrid({.rows = 40, .cols = 40}));
  ASSERT_TRUE(social.ok());
  ASSERT_TRUE(road.ok());
  const DegreeStats ss = ComputeDegreeStats(*social);
  const DegreeStats rs = ComputeDegreeStats(*road);
  // The social graph is far more skewed than the road grid.
  EXPECT_GT(ss.gini, rs.gini + 0.2);
  EXPECT_GT(ss.max_out_degree, 10 * rs.max_out_degree);
}

TEST(DegreeStatsTest, AveragesMatchTotals) {
  auto g = CsrGraph::FromEdgeList(Rmat({.scale = 9, .edge_factor = 4}));
  ASSERT_TRUE(g.ok());
  const DegreeStats s = ComputeDegreeStats(*g);
  EXPECT_NEAR(s.avg_out_degree * g->num_vertices(),
              static_cast<double>(g->num_edges()), 1e-6);
  EXPECT_NEAR(s.avg_in_degree, s.avg_out_degree, 1e-9);
}

TEST(PseudoDiameterTest, RoadGridFarExceedsRmat) {
  auto road = CsrGraph::FromEdgeList(RoadGrid({.rows = 40, .cols = 40}));
  auto social = CsrGraph::FromEdgeList(
      Rmat({.scale = 11, .edge_factor = 8, .seed = 1}));
  ASSERT_TRUE(road.ok());
  ASSERT_TRUE(social.ok());
  const uint32_t road_diam = PseudoDiameter(*road);
  const uint32_t social_diam = PseudoDiameter(*social);
  EXPECT_GE(road_diam, 40u);   // at least the grid dimension
  EXPECT_LE(social_diam, 16u); // small-world
}

TEST(PseudoDiameterTest, PathGraphExact) {
  EdgeList list;
  list.num_vertices = 50;
  for (VertexId v = 0; v + 1 < 50; ++v) {
    list.edges.push_back({v, v + 1, 1.0f});
  }
  auto g = CsrGraph::FromEdgeList(list);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(PseudoDiameter(*g), 49u);
}

}  // namespace
}  // namespace gum::graph
