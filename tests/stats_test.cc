#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/random.h"
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

// Whole-graph stats computed the pre-counting way: Gini over a sorted copy,
// summed per element in double.
double SortingGini(std::vector<uint32_t> degrees) {
  if (degrees.empty()) return 0.0;
  std::sort(degrees.begin(), degrees.end());
  const double n = static_cast<double>(degrees.size());
  double weighted_sum = 0.0, total = 0.0;
  for (size_t i = 0; i < degrees.size(); ++i) {
    const double d = degrees[i];
    weighted_sum += (static_cast<double>(i) + 1.0) * d;
    total += d;
  }
  if (total <= 0.0) return 0.0;
  return (2.0 * weighted_sum) / (n * total) - (n + 1.0) / n;
}

DegreeStats SortingDegreeStats(const CsrGraph& g) {
  DegreeStats s;
  const VertexId n = g.num_vertices();
  if (n == 0) return s;
  s.min_out_degree = std::numeric_limits<uint32_t>::max();
  s.min_in_degree = std::numeric_limits<uint32_t>::max();
  std::vector<uint32_t> totals(n);
  double out_sum = 0, in_sum = 0;
  for (VertexId v = 0; v < n; ++v) {
    const uint32_t od = g.OutDegree(v);
    const uint32_t id = g.InDegree(v);
    out_sum += od;
    in_sum += id;
    s.max_out_degree = std::max(s.max_out_degree, od);
    s.min_out_degree = std::min(s.min_out_degree, od);
    s.max_in_degree = std::max(s.max_in_degree, id);
    s.min_in_degree = std::min(s.min_in_degree, id);
    totals[v] = od + id;
  }
  s.avg_out_degree = out_sum / n;
  s.avg_in_degree = in_sum / n;
  s.entropy = DegreeEntropy(totals);
  s.gini = SortingGini(totals);
  return s;
}

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

TEST(DegreeStatsTest, BitIdenticalToSortingReferenceOnEveryGenerator) {
  std::vector<std::pair<const char*, EdgeList>> lists;
  lists.emplace_back("rmat", Rmat({.scale = 11, .edge_factor = 8, .seed = 3}));
  lists.emplace_back("rmat weighted", Rmat({.scale = 9, .edge_factor = 16,
                                            .weighted = true, .seed = 5}));
  lists.emplace_back("road", RoadGrid({.rows = 40, .cols = 30}));
  lists.emplace_back("web", WebCrawl({.scale = 10, .seed = 2}));
  lists.emplace_back("erdos-renyi", ErdosRenyi(3000, 20000, false, 4));
  lists.emplace_back("small world", SmallWorld(2000, 3, 0.1, 6));
  for (const auto& [name, list] : lists) {
    SCOPED_TRACE(name);
    auto g = CsrGraph::FromEdgeList(list);
    ASSERT_TRUE(g.ok());
    const DegreeStats got = ComputeDegreeStats(*g);
    const DegreeStats want = SortingDegreeStats(*g);
    EXPECT_EQ(Bits(got.gini), Bits(want.gini));
    EXPECT_EQ(Bits(got.entropy), Bits(want.entropy));
    EXPECT_EQ(Bits(got.avg_out_degree), Bits(want.avg_out_degree));
    EXPECT_EQ(Bits(got.avg_in_degree), Bits(want.avg_in_degree));
    EXPECT_EQ(got.max_out_degree, want.max_out_degree);
    EXPECT_EQ(got.max_in_degree, want.max_in_degree);
    EXPECT_EQ(got.min_out_degree, want.min_out_degree);
    EXPECT_EQ(got.min_in_degree, want.min_in_degree);
  }
}

TEST(GiniTest, BitIdenticalAboveTheExactIntegerBound) {
  // n*sum(d) >= 2^53: the per-element double sum rounds, and GiniCoefficient
  // must round exactly as it does rather than abort or sum exactly.
  Rng rng(8);
  std::vector<uint32_t> degrees;
  for (int k = 0; k < (1 << 17); ++k) {
    degrees.push_back(k % 5 == 0 ? static_cast<uint32_t>(rng.NextBounded(64))
                                 : static_cast<uint32_t>(
                                       (1u << 20) + rng.NextBounded(1u << 20)));
  }
  double total = 0.0;
  for (const uint32_t d : degrees) total += d;
  ASSERT_GE(static_cast<double>(degrees.size()) * total, 0x1p53);
  const double want = SortingGini(degrees);
  EXPECT_EQ(Bits(GiniCoefficient(degrees)), Bits(want));
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
