#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "graph/csr.h"
#include "graph/generators.h"
#include "graph/partition.h"
#include "graph/types.h"

namespace gum::graph {
namespace {

EdgeList Triangle() {
  EdgeList list;
  list.num_vertices = 3;
  list.edges = {{0, 1, 1.0f}, {1, 2, 1.0f}, {2, 0, 1.0f}};
  return list;
}

// ---------- CSR construction ----------

TEST(CsrTest, BasicConstruction) {
  auto g = CsrGraph::FromEdgeList(Triangle());
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_vertices(), 3u);
  EXPECT_EQ(g->num_edges(), 3u);
  EXPECT_EQ(g->OutDegree(0), 1u);
  EXPECT_EQ(g->OutNeighbors(0)[0], 1u);
  EXPECT_EQ(g->InDegree(1), 1u);
  EXPECT_EQ(g->InNeighbors(1)[0], 0u);
}

TEST(CsrTest, RejectsOutOfRangeEndpoint) {
  EdgeList list;
  list.num_vertices = 2;
  list.edges = {{0, 5, 1.0f}};
  auto g = CsrGraph::FromEdgeList(list);
  EXPECT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
}

TEST(CsrTest, RemovesSelfLoopsByDefault) {
  EdgeList list;
  list.num_vertices = 2;
  list.edges = {{0, 0, 1.0f}, {0, 1, 1.0f}, {1, 1, 1.0f}};
  auto g = CsrGraph::FromEdgeList(list);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 1u);
}

TEST(CsrTest, KeepsSelfLoopsWhenAsked) {
  EdgeList list;
  list.num_vertices = 2;
  list.edges = {{0, 0, 1.0f}, {0, 1, 1.0f}};
  CsrBuildOptions opt;
  opt.remove_self_loops = false;
  auto g = CsrGraph::FromEdgeList(list, opt);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 2u);
}

TEST(CsrTest, Deduplicates) {
  EdgeList list;
  list.num_vertices = 2;
  list.edges = {{0, 1, 3.0f}, {0, 1, 5.0f}, {0, 1, 7.0f}};
  auto g = CsrGraph::FromEdgeList(list);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 1u);
  EXPECT_EQ(g->OutWeights(0)[0], 3.0f);  // first kept
}

TEST(CsrTest, SymmetrizeAddsReverseEdges) {
  CsrBuildOptions opt;
  opt.symmetrize = true;
  auto g = CsrGraph::FromEdgeList(Triangle(), opt);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 6u);
  for (VertexId v = 0; v < 3; ++v) {
    EXPECT_EQ(g->OutDegree(v), 2u);
    EXPECT_EQ(g->InDegree(v), 2u);
  }
}

TEST(CsrTest, NeighborsSortedAscending) {
  EdgeList list;
  list.num_vertices = 5;
  list.edges = {{0, 4, 1.0f}, {0, 1, 1.0f}, {0, 3, 1.0f}, {0, 2, 1.0f}};
  auto g = CsrGraph::FromEdgeList(list);
  ASSERT_TRUE(g.ok());
  const auto nbrs = g->OutNeighbors(0);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
}

TEST(CsrTest, UnweightedGraphHasNoWeightArray) {
  auto g = CsrGraph::FromEdgeList(Triangle());
  ASSERT_TRUE(g.ok());
  EXPECT_FALSE(g->has_weights());
  EXPECT_TRUE(g->OutWeights(0).empty());
}

TEST(CsrTest, WeightedGraphKeepsWeights) {
  EdgeList list;
  list.num_vertices = 2;
  list.edges = {{0, 1, 2.5f}, {1, 0, 4.0f}};
  auto g = CsrGraph::FromEdgeList(list);
  ASSERT_TRUE(g.ok());
  EXPECT_TRUE(g->has_weights());
  EXPECT_EQ(g->OutWeights(0)[0], 2.5f);
  EXPECT_EQ(g->OutWeights(1)[0], 4.0f);
}

TEST(CsrTest, InCsrConsistentWithOutCsr) {
  auto list = Rmat({.scale = 8, .edge_factor = 6, .seed = 3});
  auto g = CsrGraph::FromEdgeList(list);
  ASSERT_TRUE(g.ok());
  uint64_t out_total = 0, in_total = 0;
  for (VertexId v = 0; v < g->num_vertices(); ++v) {
    out_total += g->OutDegree(v);
    in_total += g->InDegree(v);
  }
  EXPECT_EQ(out_total, g->num_edges());
  EXPECT_EQ(in_total, g->num_edges());
}

TEST(CsrTest, MemoryBytesPositive) {
  auto g = CsrGraph::FromEdgeList(Triangle());
  ASSERT_TRUE(g.ok());
  EXPECT_GT(g->MemoryBytes(), 0u);
}

// ---------- generators ----------

TEST(GeneratorTest, RmatSizes) {
  RmatOptions opt;
  opt.scale = 10;
  opt.edge_factor = 8;
  const EdgeList list = Rmat(opt);
  EXPECT_EQ(list.num_vertices, 1024u);
  EXPECT_EQ(list.edges.size(), 8192u);
}

TEST(GeneratorTest, RmatDeterministic) {
  RmatOptions opt;
  opt.scale = 9;
  const EdgeList a = Rmat(opt), b = Rmat(opt);
  ASSERT_EQ(a.edges.size(), b.edges.size());
  for (size_t i = 0; i < a.edges.size(); ++i) {
    EXPECT_EQ(a.edges[i].src, b.edges[i].src);
    EXPECT_EQ(a.edges[i].dst, b.edges[i].dst);
  }
}

TEST(GeneratorTest, RmatSkewedDegrees) {
  RmatOptions opt;
  opt.scale = 12;
  opt.edge_factor = 8;
  auto g = CsrGraph::FromEdgeList(Rmat(opt));
  ASSERT_TRUE(g.ok());
  uint32_t max_deg = 0;
  for (VertexId v = 0; v < g->num_vertices(); ++v) {
    max_deg = std::max(max_deg, g->OutDegree(v));
  }
  // Power-law-ish: hub degree far above the mean (~8).
  EXPECT_GT(max_deg, 80u);
}

TEST(GeneratorTest, RmatWeighted) {
  RmatOptions opt;
  opt.scale = 8;
  opt.weighted = true;
  const EdgeList list = Rmat(opt);
  for (const Edge& e : list.edges) {
    EXPECT_GE(e.weight, 1.0f);
    EXPECT_LT(e.weight, 64.0f);
  }
}

TEST(GeneratorTest, RoadGridConnectedAndSparse) {
  RoadGridOptions opt;
  opt.rows = 24;
  opt.cols = 24;
  auto g = CsrGraph::FromEdgeList(RoadGrid(opt));
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_vertices(), 576u);
  // ~4 edges per vertex.
  EXPECT_LT(static_cast<double>(g->num_edges()) / g->num_vertices(), 5.0);
  // Connectivity via spanning comb: BFS from 0 reaches everything.
  std::vector<bool> seen(g->num_vertices(), false);
  std::vector<VertexId> stack = {0};
  seen[0] = true;
  size_t reached = 1;
  while (!stack.empty()) {
    const VertexId u = stack.back();
    stack.pop_back();
    for (VertexId v : g->OutNeighbors(u)) {
      if (!seen[v]) {
        seen[v] = true;
        ++reached;
        stack.push_back(v);
      }
    }
  }
  EXPECT_EQ(reached, g->num_vertices());
}

TEST(GeneratorTest, RoadGridWeightsInRange) {
  RoadGridOptions opt;
  opt.rows = 8;
  opt.cols = 8;
  for (const Edge& e : RoadGrid(opt).edges) {
    EXPECT_GE(e.weight, 1.0f);
    EXPECT_LT(e.weight, 16.0f);
  }
}

TEST(GeneratorTest, ErdosRenyiNoSelfLoops) {
  const EdgeList list = ErdosRenyi(100, 500, false, 5);
  EXPECT_EQ(list.edges.size(), 500u);
  for (const Edge& e : list.edges) EXPECT_NE(e.src, e.dst);
}

TEST(GeneratorTest, SmallWorldDegreeStructure) {
  const EdgeList list = SmallWorld(200, 3, 0.0, 5);
  // beta=0: pure ring lattice, 2k edges per vertex after symmetrization.
  auto g = CsrGraph::FromEdgeList(list);
  ASSERT_TRUE(g.ok());
  for (VertexId v = 0; v < g->num_vertices(); ++v) {
    EXPECT_EQ(g->OutDegree(v), 6u);
  }
}

}  // namespace
}  // namespace gum::graph
