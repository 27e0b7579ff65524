#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <vector>

#include "common/random.h"
#include "graph/frontier_features.h"
#include "graph/generators.h"
#include "sim/kernel_cost.h"

namespace gum {
namespace {

using graph::CsrGraph;
using graph::ExtractFrontierFeatures;
using graph::FrontierFeatures;
using graph::VertexId;

CsrGraph Social() {
  auto g = CsrGraph::FromEdgeList(
      graph::Rmat({.scale = 10, .edge_factor = 8, .seed = 2}));
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

TEST(FeatureTest, EmptyFrontierIsZero) {
  const CsrGraph g = Social();
  const FrontierFeatures f = ExtractFrontierFeatures(g, {});
  for (double x : f.ToArray()) EXPECT_EQ(x, 0.0);
}

TEST(FeatureTest, SingleVertexFrontier) {
  const CsrGraph g = Social();
  const VertexId v = 7;
  const std::vector<VertexId> frontier = {v};
  const FrontierFeatures f = ExtractFrontierFeatures(g, frontier);
  EXPECT_DOUBLE_EQ(f.avg_out_degree, g.OutDegree(v));
  EXPECT_DOUBLE_EQ(f.avg_in_degree, g.InDegree(v));
  EXPECT_DOUBLE_EQ(f.out_degree_range, 0.0);
  EXPECT_DOUBLE_EQ(f.in_degree_range, 0.0);
  EXPECT_DOUBLE_EQ(f.gini, 0.0);
}

TEST(FeatureTest, WholeGraphAverageMatchesStats) {
  const CsrGraph g = Social();
  std::vector<VertexId> all(g.num_vertices());
  std::iota(all.begin(), all.end(), VertexId{0});
  const FrontierFeatures f = ExtractFrontierFeatures(g, all);
  EXPECT_NEAR(f.avg_out_degree * g.num_vertices(),
              static_cast<double>(g.num_edges()), 1e-6);
  EXPECT_GT(f.gini, 0.3) << "RMAT frontier should be skewed";
  EXPECT_GT(f.entropy, 0.0);
  EXPECT_LE(f.entropy, 1.0);
}

TEST(FeatureTest, HubFrontierMoreSkewedThanUniform) {
  const CsrGraph g = Social();
  // Top-degree frontier vs bottom-degree frontier: ranges differ.
  std::vector<VertexId> all(g.num_vertices());
  std::iota(all.begin(), all.end(), VertexId{0});
  std::sort(all.begin(), all.end(), [&](VertexId a, VertexId b) {
    return g.OutDegree(a) > g.OutDegree(b);
  });
  const std::vector<VertexId> hubs(all.begin(), all.begin() + 32);
  const std::vector<VertexId> tails(all.end() - 32, all.end());
  const FrontierFeatures fh = ExtractFrontierFeatures(g, hubs);
  const FrontierFeatures ft = ExtractFrontierFeatures(g, tails);
  EXPECT_GT(fh.avg_out_degree, ft.avg_out_degree);
}

TEST(FeatureTest, ToArrayOrderStable) {
  FrontierFeatures f;
  f.avg_in_degree = 1;
  f.avg_out_degree = 2;
  f.in_degree_range = 3;
  f.out_degree_range = 4;
  f.gini = 5;
  f.entropy = 6;
  const auto arr = f.ToArray();
  EXPECT_EQ(arr, (std::array<double, 6>{1, 2, 3, 4, 5, 6}));
}

// --- Bit-identity of the allocation-free census against the original
// sort-and-log formulas over a double copy of the degrees. ---

double ReferenceGini(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  double weighted_sum = 0.0, total = 0.0;
  for (size_t i = 0; i < values.size(); ++i) {
    weighted_sum += (static_cast<double>(i) + 1.0) * values[i];
    total += values[i];
  }
  if (total <= 0.0) return 0.0;
  return (2.0 * weighted_sum) / (n * total) - (n + 1.0) / n;
}

double ReferenceEntropy(const std::vector<double>& degrees) {
  if (degrees.size() <= 1) return 0.0;
  double total = 0.0;
  for (double d : degrees) total += d;
  if (total <= 0.0) return 0.0;
  double h = 0.0;
  for (double d : degrees) {
    if (d <= 0.0) continue;
    const double p = d / total;
    h -= p * std::log(p);
  }
  return h / std::log(static_cast<double>(degrees.size()));
}

FrontierFeatures ReferenceFeatures(const CsrGraph& g,
                                   std::span<const VertexId> frontier) {
  FrontierFeatures f;
  if (frontier.empty()) return f;
  double in_sum = 0, out_sum = 0;
  uint32_t in_min = std::numeric_limits<uint32_t>::max(), in_max = 0;
  uint32_t out_min = std::numeric_limits<uint32_t>::max(), out_max = 0;
  std::vector<double> out_degrees;
  for (const VertexId v : frontier) {
    const uint32_t od = g.OutDegree(v);
    const uint32_t id = g.has_in_csr() ? g.InDegree(v) : od;
    out_sum += od;
    in_sum += id;
    out_min = std::min(out_min, od);
    out_max = std::max(out_max, od);
    in_min = std::min(in_min, id);
    in_max = std::max(in_max, id);
    out_degrees.push_back(od);
  }
  const double n = static_cast<double>(frontier.size());
  f.avg_in_degree = in_sum / n;
  f.avg_out_degree = out_sum / n;
  f.in_degree_range = static_cast<double>(in_max - in_min);
  f.out_degree_range = static_cast<double>(out_max - out_min);
  f.gini = ReferenceGini(out_degrees);
  f.entropy = ReferenceEntropy(out_degrees);
  return f;
}

void ExpectBitIdentical(const CsrGraph& g, std::span<const VertexId> frontier,
                        const char* what) {
  const auto got = ExtractFrontierFeatures(g, frontier).ToArray();
  const auto want = ReferenceFeatures(g, frontier).ToArray();
  for (int k = 0; k < FrontierFeatures::kNumFeatures; ++k) {
    EXPECT_EQ(std::bit_cast<uint64_t>(got[k]), std::bit_cast<uint64_t>(want[k]))
        << what << ": feature " << k << " got " << got[k] << " want "
        << want[k] << " (frontier size " << frontier.size() << ")";
  }
}

// Whole-graph, random-subset, single-vertex and hub-heavy frontiers.
void ExpectBitIdenticalFrontiers(const CsrGraph& g, uint64_t seed) {
  std::vector<VertexId> all(g.num_vertices());
  std::iota(all.begin(), all.end(), VertexId{0});
  ExpectBitIdentical(g, all, "whole graph");
  Rng rng(seed);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<VertexId> subset;
    const uint64_t size = 1 + rng.NextBounded(g.num_vertices());
    for (uint64_t k = 0; k < size; ++k) {
      subset.push_back(static_cast<VertexId>(rng.NextBounded(g.num_vertices())));
    }
    ExpectBitIdentical(g, subset, "random subset");
    const std::vector<VertexId> single = {subset.front()};
    ExpectBitIdentical(g, single, "single vertex");
  }
  std::sort(all.begin(), all.end(), [&](VertexId a, VertexId b) {
    return g.OutDegree(a) > g.OutDegree(b);
  });
  // A few hubs padded with the lowest-degree (often zero-degree) vertices.
  std::vector<VertexId> skewed(all.begin(), all.begin() + 4);
  skewed.insert(skewed.end(), all.end() - 200, all.end());
  ExpectBitIdentical(g, skewed, "hubs + tails");
}

TEST(FeatureBitIdentityTest, RoadGrid) {
  for (const bool in_csr : {true, false}) {
    auto g = CsrGraph::FromEdgeList(graph::RoadGrid({.rows = 24, .cols = 24}),
                                    {.build_in_csr = in_csr});
    ASSERT_TRUE(g.ok());
    ExpectBitIdenticalFrontiers(*g, 3);
  }
}

TEST(FeatureBitIdentityTest, RmatWithHighDegreeHubs) {
  for (const bool in_csr : {true, false}) {
    auto g = CsrGraph::FromEdgeList(
        graph::Rmat({.scale = 11, .edge_factor = 12, .seed = 4}),
        {.build_in_csr = in_csr});
    ASSERT_TRUE(g.ok());
    // Hubs far above any per-degree memo table must be covered.
    uint32_t max_degree = 0;
    for (VertexId v = 0; v < g->num_vertices(); ++v) {
      max_degree = std::max(max_degree, g->OutDegree(v));
    }
    ASSERT_GT(max_degree, 256u);
    ExpectBitIdenticalFrontiers(*g, 5);
  }
}

TEST(FeatureBitIdentityTest, StarWithZeroDegreeLeaves) {
  // One vertex of out-degree 5000, every other vertex out-degree zero: the
  // most skewed frontier, and zero-degree entries in every subset.
  graph::EdgeList list;
  list.num_vertices = 5001;
  for (VertexId v = 1; v <= 5000; ++v) list.edges.push_back({0, v, 1.0f});
  for (const bool in_csr : {true, false}) {
    auto g = CsrGraph::FromEdgeList(list, {.build_in_csr = in_csr});
    ASSERT_TRUE(g.ok());
    ExpectBitIdenticalFrontiers(*g, 6);
    const std::vector<VertexId> leaves = {1, 2, 3, 4};
    ExpectBitIdentical(*g, leaves, "zero-degree only");
  }
}

TEST(KernelCostTest, PositiveAndFinite) {
  const sim::DeviceParams dev;
  FrontierFeatures f;
  EXPECT_GT(sim::TrueEdgeCostNs(f, dev), 0.0);
  f.avg_out_degree = 1e6;
  f.gini = 0.99;
  f.out_degree_range = 1e7;
  f.avg_in_degree = 1e6;
  const double cost = sim::TrueEdgeCostNs(f, dev);
  EXPECT_GT(cost, 0.0);
  EXPECT_LT(cost, 1e4) << "cost should stay in a sane ns range";
}

TEST(KernelCostTest, SkewIncreasesCost) {
  const sim::DeviceParams dev;
  FrontierFeatures regular;
  regular.avg_out_degree = 8;
  regular.avg_in_degree = 8;
  regular.entropy = 1.0;
  FrontierFeatures skewed = regular;
  skewed.gini = 0.8;
  skewed.out_degree_range = 5000;
  EXPECT_GT(sim::TrueEdgeCostNs(skewed, dev),
            sim::TrueEdgeCostNs(regular, dev));
}

TEST(KernelCostTest, HubTargetsIncreaseAtomicCost) {
  const sim::DeviceParams dev;
  FrontierFeatures base;
  base.avg_out_degree = 8;
  base.entropy = 0.9;
  FrontierFeatures hubby = base;
  hubby.avg_in_degree = 4096;
  EXPECT_GT(sim::TrueEdgeCostNs(hubby, dev), sim::TrueEdgeCostNs(base, dev));
}

TEST(KernelCostTest, ScalesWithDeviceBaseRate) {
  sim::DeviceParams fast;
  sim::DeviceParams slow;
  slow.base_edge_ns = fast.base_edge_ns * 3;
  FrontierFeatures f;
  f.avg_out_degree = 10;
  f.entropy = 0.8;
  EXPECT_GT(sim::TrueEdgeCostNs(f, slow), sim::TrueEdgeCostNs(f, fast));
}

}  // namespace
}  // namespace gum
