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
#include "graph/stats.h"
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
    const uint32_t id = g.InDegree(v);
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
  auto g = CsrGraph::FromEdgeList(graph::RoadGrid({.rows = 24, .cols = 24}));
  ASSERT_TRUE(g.ok());
  ExpectBitIdenticalFrontiers(*g, 3);
}

TEST(FeatureBitIdentityTest, RmatWithHighDegreeHubs) {
  auto g = CsrGraph::FromEdgeList(
      graph::Rmat({.scale = 11, .edge_factor = 12, .seed = 4}));
  ASSERT_TRUE(g.ok());
  // Hubs far above any per-degree memo table must be covered.
  uint32_t max_degree = 0;
  for (VertexId v = 0; v < g->num_vertices(); ++v) {
    max_degree = std::max(max_degree, g->OutDegree(v));
  }
  ASSERT_GT(max_degree, 256u);
  ExpectBitIdenticalFrontiers(*g, 5);
}

TEST(FeatureBitIdentityTest, StarWithZeroDegreeLeaves) {
  // One vertex of out-degree 5000, every other vertex out-degree zero: the
  // most skewed frontier, and zero-degree entries in every subset.
  graph::EdgeList list;
  list.num_vertices = 5001;
  for (VertexId v = 1; v <= 5000; ++v) list.edges.push_back({0, v, 1.0f});
  auto g = CsrGraph::FromEdgeList(list);
  ASSERT_TRUE(g.ok());
  ExpectBitIdenticalFrontiers(*g, 6);
  const std::vector<VertexId> leaves = {1, 2, 3, 4};
  ExpectBitIdentical(*g, leaves, "zero-degree only");
}

// GiniCoefficient counts degrees below a cap of 64 and sorts only the tail
// at or above it. Runs of cap-1, cap and cap+1, all-equal, all-zero and
// single-element sequences must give the sort-and-sum reference's bits,
// and the call may only reorder the sequence.
void ExpectGiniBitIdentical(std::vector<uint32_t> degrees, const char* what) {
  const double want =
      ReferenceGini(std::vector<double>(degrees.begin(), degrees.end()));
  std::vector<uint32_t> sorted = degrees;
  std::sort(sorted.begin(), sorted.end());
  const double got = graph::GiniCoefficient(degrees);
  EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
      << what << ": got " << got << " want " << want << " (n "
      << degrees.size() << ")";
  std::sort(degrees.begin(), degrees.end());
  EXPECT_EQ(degrees, sorted) << what << ": not a permutation";
}

TEST(FeatureBitIdentityTest, GiniAroundTheCountingCap) {
  constexpr uint32_t kCap = 64;
  Rng rng(11);
  for (const uint32_t d : {kCap - 1, kCap, kCap + 1}) {
    ExpectGiniBitIdentical(std::vector<uint32_t>(37, d), "all equal");
    ExpectGiniBitIdentical({d}, "single element");
    ExpectGiniBitIdentical({0, d}, "zero and one degree");
  }
  ExpectGiniBitIdentical({0}, "single zero");
  ExpectGiniBitIdentical(std::vector<uint32_t>(50, 0), "all zero");
  ExpectGiniBitIdentical({kCap - 1, kCap, kCap + 1}, "straddling, ascending");
  ExpectGiniBitIdentical({kCap + 1, kCap, kCap - 1}, "straddling, descending");
  for (int trial = 0; trial < 50; ++trial) {
    // Only cap-1, cap and cap+1; then those mixed with small degrees and
    // hubs far above the cap.
    std::vector<uint32_t> around;
    std::vector<uint32_t> mixed;
    const uint64_t n = 1 + rng.NextBounded(300);
    for (uint64_t k = 0; k < n; ++k) {
      around.push_back(kCap - 1 + static_cast<uint32_t>(rng.NextBounded(3)));
      const uint64_t kind = rng.NextBounded(4);
      mixed.push_back(kind == 0   ? static_cast<uint32_t>(rng.NextBounded(5))
                      : kind == 1 ? kCap - 1 +
                                        static_cast<uint32_t>(rng.NextBounded(3))
                      : kind == 2 ? static_cast<uint32_t>(rng.NextBounded(kCap))
                                  : static_cast<uint32_t>(
                                        kCap + rng.NextBounded(100000)));
    }
    ExpectGiniBitIdentical(around, "cap-1, cap, cap+1");
    ExpectGiniBitIdentical(mixed, "small, around the cap, hubs");
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
