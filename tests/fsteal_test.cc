#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <random>
#include <span>
#include <utility>
#include <vector>

#include "core/census.h"
#include "core/fsteal.h"
#include "core/hub_cache.h"
#include "core/vertex_state.h"
#include "graph/csr.h"
#include "graph/generators.h"
#include "sim/comm_plane.h"

namespace gum::core {
namespace {

using graph::CsrGraph;
using graph::FrontierFeatures;
using graph::VertexId;

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<FrontierFeatures> UniformFeatures(int n) {
  std::vector<FrontierFeatures> f(n);
  for (auto& w : f) {
    w.avg_out_degree = 8;
    w.avg_in_degree = 8;
    w.entropy = 0.9;
  }
  return f;
}

std::vector<int> AllWorkers(int n) {
  std::vector<int> all(n);
  std::iota(all.begin(), all.end(), 0);
  return all;
}

TEST(CostMatrixTest, LocalCheaperThanRemote) {
  const sim::CommPlane plane(sim::Topology::HybridCubeMesh8());
  const auto model = EdgeCostModel::ExactOracle(sim::DeviceParams{});
  const auto cost = BuildCostMatrix(UniformFeatures(8),
                                    std::vector<double>(8, 1.0), model, plane,
                                    AllWorkers(8));
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) {
      if (i != j) {
        EXPECT_LT(cost[i][i], cost[i][j]);
      }
    }
  }
}

TEST(CostMatrixTest, DoubleLaneCheaperThanSingleLane) {
  const sim::CommPlane plane(sim::Topology::HybridCubeMesh8());
  const auto model = EdgeCostModel::ExactOracle(sim::DeviceParams{});
  const auto cost = BuildCostMatrix(UniformFeatures(8),
                                    std::vector<double>(8, 1.0), model, plane,
                                    AllWorkers(8));
  // 0-3 has two lanes, 0-1 has one: processing 0's edges on 3 is cheaper
  // than on 1 (paper §III-B intuition).
  EXPECT_LT(cost[0][3], cost[0][1]);
}

TEST(CostMatrixTest, EvictedColumnsInfinite) {
  const sim::CommPlane plane(sim::Topology::HybridCubeMesh8());
  const auto model = EdgeCostModel::ExactOracle(sim::DeviceParams{});
  const auto cost = BuildCostMatrix(UniformFeatures(8),
                                    std::vector<double>(8, 1.0), model, plane,
                                    {0, 3});
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(cost[i][5], kInf);
    EXPECT_LT(cost[i][0], kInf);
    EXPECT_LT(cost[i][3], kInf);
  }
}

TEST(CostMatrixTest, HubDiscountReducesRemoteCost) {
  const sim::CommPlane plane(sim::Topology::HybridCubeMesh8());
  const auto model = EdgeCostModel::ExactOracle(sim::DeviceParams{});
  std::vector<double> no_cache(8, 1.0), cached(8, 0.2);
  const auto plain = BuildCostMatrix(UniformFeatures(8), no_cache, model,
                                     plane, AllWorkers(8));
  const auto disc = BuildCostMatrix(UniformFeatures(8), cached, model, plane,
                                    AllWorkers(8));
  EXPECT_LT(disc[0][7], plain[0][7]);
  EXPECT_DOUBLE_EQ(disc[0][0], plain[0][0]);  // local unaffected
}

TEST(DecideFStealTest, BelowT1KeepsIdentity) {
  const sim::CommPlane plane(sim::Topology::FullyConnected(4));
  const auto model = EdgeCostModel::ExactOracle(sim::DeviceParams{});
  const auto cost = BuildCostMatrix(UniformFeatures(4),
                                    std::vector<double>(4, 1.0), model, plane,
                                    AllWorkers(4));
  FStealConfig config;
  config.t1_min_max_load = 1000;
  const std::vector<double> loads = {500, 10, 10, 10};  // max < t1
  std::vector<int> owners = {0, 1, 2, 3};
  const auto dec = DecideFSteal(cost, loads, owners, AllWorkers(4), config);
  EXPECT_FALSE(dec.applied);
  EXPECT_DOUBLE_EQ(dec.assignment[0][0], 500.0);
}

TEST(DecideFStealTest, BalancedLoadSkipsViaT2) {
  const sim::CommPlane plane(sim::Topology::FullyConnected(4));
  const auto model = EdgeCostModel::ExactOracle(sim::DeviceParams{});
  const auto cost = BuildCostMatrix(UniformFeatures(4),
                                    std::vector<double>(4, 1.0), model, plane,
                                    AllWorkers(4));
  FStealConfig config;
  config.t1_min_max_load = 100;
  config.t2_min_imbalance = 500;
  const std::vector<double> loads = {10000, 9900, 9800, 9700};
  std::vector<int> owners = {0, 1, 2, 3};
  const auto dec = DecideFSteal(cost, loads, owners, AllWorkers(4), config);
  EXPECT_FALSE(dec.applied) << "imbalance below t2 must not steal";
}

TEST(DecideFStealTest, SkewTriggersStealing) {
  const sim::CommPlane plane(sim::Topology::FullyConnected(4));
  const auto model = EdgeCostModel::ExactOracle(sim::DeviceParams{});
  const auto cost = BuildCostMatrix(UniformFeatures(4),
                                    std::vector<double>(4, 1.0), model, plane,
                                    AllWorkers(4));
  FStealConfig config;
  config.t1_min_max_load = 0;
  config.t2_min_imbalance = 0;
  const std::vector<double> loads = {100000, 0, 0, 0};
  std::vector<int> owners = {0, 1, 2, 3};
  const auto dec = DecideFSteal(cost, loads, owners, AllWorkers(4), config);
  EXPECT_TRUE(dec.applied);
  double stolen = 0;
  for (int j = 1; j < 4; ++j) stolen += dec.assignment[0][j];
  EXPECT_GT(stolen, 10000.0);
  // Conservation.
  double total = 0;
  for (int j = 0; j < 4; ++j) total += dec.assignment[0][j];
  EXPECT_NEAR(total, 100000.0, 1e-6);
}

TEST(DecideFStealTest, GreedyModeAlsoBalances) {
  const sim::CommPlane plane(sim::Topology::FullyConnected(4));
  const auto model = EdgeCostModel::ExactOracle(sim::DeviceParams{});
  const auto cost = BuildCostMatrix(UniformFeatures(4),
                                    std::vector<double>(4, 1.0), model, plane,
                                    AllWorkers(4));
  FStealConfig config;
  config.t1_min_max_load = 0;
  config.t2_min_imbalance = 0;
  config.use_greedy = true;
  // Several whole fragments so the greedy (which cannot split) can balance.
  const std::vector<double> loads = {10000, 10000, 10000, 0};
  std::vector<int> owners = {0, 0, 0, 3};  // device 0 owns everything
  const auto dec = DecideFSteal(cost, loads, owners, AllWorkers(4), config);
  EXPECT_TRUE(dec.applied);
}

// `frontier`'s degree prefix as the census records it for a fragment.
std::vector<graph::EdgeId> DegreePrefix(const CsrGraph& g,
                                        const std::vector<VertexId>& frontier) {
  FrontierSoA soa;
  soa.Assign({frontier});
  FrontierCensus census;
  census.Take(g, HubCache(), soa);
  return census.degree_prefix[0];
}

TEST(SelectStolenRangesTest, PartitionsWholeFrontier) {
  auto g = graph::CsrGraph::FromEdgeList(
      graph::Rmat({.scale = 9, .edge_factor = 6, .seed = 8}));
  ASSERT_TRUE(g.ok());
  std::vector<VertexId> frontier;
  for (VertexId v = 0; v < 200; ++v) frontier.push_back(v * 2);
  double total_edges = 0;
  for (VertexId v : frontier) total_edges += g->OutDegree(v);

  std::vector<double> quota(4, 0.0);
  quota[0] = std::floor(total_edges * 0.5);
  quota[1] = std::floor(total_edges * 0.3);
  quota[3] = total_edges - quota[0] - quota[1];
  const auto ranges =
      SelectStolenRanges(DegreePrefix(*g, frontier), quota, {0, 1, 2, 3});
  ASSERT_EQ(ranges.size(), 4u);
  // Contiguous cover of [0, frontier.size()).
  size_t cursor = 0;
  for (const auto& [begin, end] : ranges) {
    EXPECT_EQ(begin, cursor);
    EXPECT_GE(end, begin);
    cursor = end;
  }
  EXPECT_EQ(cursor, frontier.size());
  // Zero-quota worker 2 gets nothing.
  EXPECT_EQ(ranges[2].first, ranges[2].second);
}

TEST(SelectStolenRangesTest, EdgeQuotasApproximatelyRespected) {
  auto g = graph::CsrGraph::FromEdgeList(
      graph::Rmat({.scale = 10, .edge_factor = 8, .seed = 9}));
  ASSERT_TRUE(g.ok());
  std::vector<VertexId> frontier;
  for (VertexId v = 0; v < 500; ++v) frontier.push_back(v);
  double total = 0;
  uint32_t max_deg = 0;
  for (VertexId v : frontier) {
    total += g->OutDegree(v);
    max_deg = std::max(max_deg, g->OutDegree(v));
  }
  std::vector<double> quota = {total / 2, total / 2};
  const auto ranges =
      SelectStolenRanges(DegreePrefix(*g, frontier), quota, {0, 1});
  double first = 0;
  for (size_t k = ranges[0].first; k < ranges[0].second; ++k) {
    first += g->OutDegree(frontier[k]);
  }
  // Off by at most one vertex's adjacency (vertex granularity).
  EXPECT_NEAR(first, total / 2, static_cast<double>(max_deg) + 1);
}

TEST(SelectStolenRangesTest, AllQuotaToOneWorker) {
  auto g = graph::CsrGraph::FromEdgeList(
      graph::Rmat({.scale = 8, .seed = 10}));
  ASSERT_TRUE(g.ok());
  std::vector<VertexId> frontier = {1, 5, 9, 13};
  double total = 0;
  for (VertexId v : frontier) total += g->OutDegree(v);
  const auto ranges = SelectStolenRanges(DegreePrefix(*g, frontier),
                                         {0.0, total, 0.0}, {0, 1, 2});
  EXPECT_EQ(ranges[0].first, ranges[0].second);
  EXPECT_EQ(ranges[1].first, 0u);
  EXPECT_EQ(ranges[1].second, frontier.size());
  EXPECT_EQ(ranges[2].first, ranges[2].second);
}

// Inclusive prefix sum: out[i] = sum of in[0..i].
std::vector<uint64_t> InclusivePrefixSum(const std::vector<uint64_t>& in) {
  std::vector<uint64_t> out(in.size());
  uint64_t running = 0;
  for (size_t i = 0; i < in.size(); ++i) {
    running += in[i];
    out[i] = running;
  }
  return out;
}

// For each needle, the index of the first element of the ascending
// haystack that is >= needle (ModernGPU's SortedSearch<MgpuBoundsLower>).
std::vector<size_t> SortedSearchLower(const std::vector<uint64_t>& haystack,
                                      const std::vector<uint64_t>& needles) {
  std::vector<size_t> out(needles.size());
  for (size_t i = 0; i < needles.size(); ++i) {
    out[i] = static_cast<size_t>(
        std::lower_bound(haystack.begin(), haystack.end(), needles[i]) -
        haystack.begin());
  }
  return out;
}

// SelectStolenRanges as it was before the census kept the degree prefix:
// it re-read the frontier's out-degrees into a fresh prefix on every call.
std::vector<std::pair<size_t, size_t>> RecomputingStolenRanges(
    const CsrGraph& g, std::span<const VertexId> frontier,
    const std::vector<double>& quota_row, const std::vector<int>& workers) {
  std::vector<uint64_t> degrees(frontier.size());
  for (size_t k = 0; k < frontier.size(); ++k) {
    degrees[k] = g.OutDegree(frontier[k]);
  }
  const std::vector<uint64_t> d_prefix = InclusivePrefixSum(degrees);
  std::vector<uint64_t> quota_prefix(workers.size());
  double running = 0.0;
  for (size_t w = 0; w < workers.size(); ++w) {
    running += quota_row[workers[w]];
    quota_prefix[w] = static_cast<uint64_t>(std::llround(running));
  }
  const std::vector<size_t> splits =
      SortedSearchLower(d_prefix, quota_prefix);
  size_t last_pos = workers.size();
  for (size_t w = 0; w < workers.size(); ++w) {
    const uint64_t prev = w == 0 ? 0 : quota_prefix[w - 1];
    if (quota_prefix[w] > prev) last_pos = w;
  }
  std::vector<std::pair<size_t, size_t>> ranges(workers.size());
  size_t begin = 0;
  for (size_t w = 0; w < workers.size(); ++w) {
    const uint64_t prev = w == 0 ? 0 : quota_prefix[w - 1];
    size_t end;
    if (quota_prefix[w] <= prev) {
      end = begin;
    } else if (w == last_pos) {
      end = frontier.size();
    } else {
      end = std::clamp(splits[w] + 1, begin, frontier.size());
    }
    ranges[w] = {begin, end};
    begin = end;
  }
  return ranges;
}

TEST(SelectStolenRangesTest, CensusPrefixMatchesRecomputedDegrees) {
  auto g = graph::CsrGraph::FromEdgeList(
      graph::Rmat({.scale = 9, .edge_factor = 6, .seed = 12}));
  ASSERT_TRUE(g.ok());
  std::vector<VertexId> zero_degree;
  for (VertexId v = 0; v < g->num_vertices(); ++v) {
    if (g->OutDegree(v) == 0) zero_degree.push_back(v);
  }
  ASSERT_FALSE(zero_degree.empty());
  std::mt19937_64 rng(21);
  for (int c = 0; c < 720; ++c) {
    SCOPED_TRACE(testing::Message() << "case " << c);
    // Case c % 6: 0 an empty fragment, 1 a frontier ending in zero-degree
    // vertices, 2 quotas past the load, otherwise an ascending sample.
    std::vector<VertexId> frontier;
    if (c % 6 != 0) {
      const size_t size = 1 + rng() % 300;
      for (size_t k = 0; k < size; ++k) {
        frontier.push_back(static_cast<VertexId>(rng() % g->num_vertices()));
      }
      std::sort(frontier.begin(), frontier.end());
      frontier.erase(std::unique(frontier.begin(), frontier.end()),
                     frontier.end());
    }
    if (c % 6 == 1) {
      for (size_t k = 1 + rng() % 5; k > 0; --k) {
        frontier.push_back(zero_degree[rng() % zero_degree.size()]);
      }
    }
    double load = 0.0;
    for (const VertexId v : frontier) load += g->OutDegree(v);
    // 1-8 workers: an ascending sample of 8 devices, about a quarter of
    // them with a zero quota, the rest with fractional shares of the load.
    std::vector<int> workers = AllWorkers(8);
    std::shuffle(workers.begin(), workers.end(), rng);
    workers.resize(1 + c % 8);
    std::sort(workers.begin(), workers.end());
    std::vector<double> weight(8, 0.0);
    double weight_sum = 0.0;
    for (const int w : workers) {
      weight[w] = rng() % 4 == 0 ? 0.0 : 1.0 + static_cast<double>(rng() % 97);
      weight_sum += weight[w];
    }
    const double asked = c % 6 == 2 ? 1.5 * load : load;
    std::vector<double> quota(8, 0.0);
    for (const int w : workers) {
      if (weight_sum > 0.0) quota[w] = asked * weight[w] / weight_sum;
    }
    EXPECT_EQ(SelectStolenRanges(DegreePrefix(*g, frontier), quota, workers),
              RecomputingStolenRanges(*g, frontier, quota, workers));
  }
}

}  // namespace
}  // namespace gum::core
