#include <gtest/gtest.h>

#include <numeric>
#include <tuple>

#include "graph/generators.h"
#include "graph/partition.h"

namespace gum::graph {
namespace {

CsrGraph MakeSocial() {
  auto g = CsrGraph::FromEdgeList(
      Rmat({.scale = 10, .edge_factor = 8, .seed = 21}));
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

TEST(PartitionTest, RejectsBadArguments) {
  const CsrGraph g = MakeSocial();
  EXPECT_FALSE(PartitionGraph(g, 0).ok());
  EXPECT_FALSE(PartitionGraph(g, -3).ok());
}

TEST(PartitionTest, SinglePartTrivial) {
  const CsrGraph g = MakeSocial();
  auto p = PartitionGraph(g, 1);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->edge_cut, 0u);
  EXPECT_EQ(p->part_out_edges[0], g.num_edges());
  EXPECT_DOUBLE_EQ(p->EdgeImbalance(), 1.0);
}

// A fragment is the vertex set one part owns. The out-edges leaving each
// fragment, summed over fragments, are exactly the partition's edge cut.
TEST(FragmentTest, CrossEdgesMatchPartitionCut) {
  auto g = CsrGraph::FromEdgeList(Rmat({.scale = 8, .seed = 4}));
  ASSERT_TRUE(g.ok());
  auto p = PartitionGraph(*g, 3, {.kind = PartitionerKind::kRandom});
  ASSERT_TRUE(p.ok());
  EdgeId cross = 0;
  for (uint32_t part = 0; part < p->part_vertices.size(); ++part) {
    for (const VertexId u : p->part_vertices[part]) {
      for (const VertexId v : g->OutNeighbors(u)) {
        if (p->owner[v] != part) ++cross;
      }
    }
  }
  EXPECT_GT(cross, 0u);
  EXPECT_EQ(cross, p->edge_cut);
}

TEST(PartitionTest, PartitionerNames) {
  EXPECT_STREQ(PartitionerName(PartitionerKind::kSegment), "seg");
  EXPECT_STREQ(PartitionerName(PartitionerKind::kRandom), "random");
  EXPECT_STREQ(PartitionerName(PartitionerKind::kMetisLike), "metis");
}

class PartitionerSuite
    : public ::testing::TestWithParam<std::tuple<PartitionerKind, int>> {};

TEST_P(PartitionerSuite, CoversAllVerticesExactlyOnce) {
  const auto [kind, parts] = GetParam();
  const CsrGraph g = MakeSocial();
  auto p = PartitionGraph(g, parts, {.kind = kind});
  ASSERT_TRUE(p.ok());
  ASSERT_EQ(static_cast<int>(p->part_vertices.size()), parts);
  size_t total = 0;
  for (const auto& verts : p->part_vertices) total += verts.size();
  EXPECT_EQ(total, g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_LT(p->owner[v], static_cast<uint32_t>(parts));
  }
}

TEST_P(PartitionerSuite, EdgeCountsConsistent) {
  const auto [kind, parts] = GetParam();
  const CsrGraph g = MakeSocial();
  auto p = PartitionGraph(g, parts, {.kind = kind});
  ASSERT_TRUE(p.ok());
  EdgeId total = 0;
  for (EdgeId e : p->part_out_edges) total += e;
  EXPECT_EQ(total, g.num_edges());
  EXPECT_LE(p->edge_cut, g.num_edges());
}

TEST_P(PartitionerSuite, ReasonablyBalanced) {
  const auto [kind, parts] = GetParam();
  const CsrGraph g = MakeSocial();
  auto p = PartitionGraph(g, parts, {.kind = kind});
  ASSERT_TRUE(p.ok());
  // No partitioner should be catastrophically imbalanced on RMAT. The bound
  // is loose because a single hub can dominate a part.
  EXPECT_LT(p->EdgeImbalance(), 2.5) << PartitionerName(kind);
}

INSTANTIATE_TEST_SUITE_P(
    AllKindsAndSizes, PartitionerSuite,
    ::testing::Combine(::testing::Values(PartitionerKind::kSegment,
                                         PartitionerKind::kRandom,
                                         PartitionerKind::kMetisLike),
                       ::testing::Values(2, 3, 4, 8)),
    [](const auto& info) {
      return std::string(PartitionerName(std::get<0>(info.param))) + "_" +
             std::to_string(std::get<1>(info.param));
    });

TEST(PartitionTest, SegmentIsContiguous) {
  const CsrGraph g = MakeSocial();
  auto p = PartitionGraph(g, 4, {.kind = PartitionerKind::kSegment});
  ASSERT_TRUE(p.ok());
  for (VertexId v = 0; v + 1 < g.num_vertices(); ++v) {
    EXPECT_LE(p->owner[v], p->owner[v + 1]);  // nondecreasing over ids
  }
}

TEST(PartitionTest, RandomIsSeedStable) {
  const CsrGraph g = MakeSocial();
  auto a = PartitionGraph(g, 4, {.kind = PartitionerKind::kRandom,
                                 .seed = 9});
  auto b = PartitionGraph(g, 4, {.kind = PartitionerKind::kRandom,
                                 .seed = 9});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->owner, b->owner);
}

TEST(PartitionTest, MetisLikeCutsLessThanRandomOnLocalGraph) {
  // On a road grid, a locality-aware partitioner must beat random hashing
  // on edge cut by a wide margin.
  auto g = CsrGraph::FromEdgeList(RoadGrid({.rows = 40, .cols = 40}));
  ASSERT_TRUE(g.ok());
  auto metis = PartitionGraph(*g, 4, {.kind = PartitionerKind::kMetisLike});
  auto random = PartitionGraph(*g, 4, {.kind = PartitionerKind::kRandom});
  ASSERT_TRUE(metis.ok());
  ASSERT_TRUE(random.ok());
  EXPECT_LT(metis->edge_cut * 4, random->edge_cut);
}

TEST(PartitionTest, SegmentCutsLessThanRandomOnLocalGraph) {
  auto g = CsrGraph::FromEdgeList(RoadGrid({.rows = 40, .cols = 40}));
  ASSERT_TRUE(g.ok());
  auto seg = PartitionGraph(*g, 4, {.kind = PartitionerKind::kSegment});
  auto random = PartitionGraph(*g, 4, {.kind = PartitionerKind::kRandom});
  ASSERT_TRUE(seg.ok());
  ASSERT_TRUE(random.ok());
  EXPECT_LT(seg->edge_cut * 2, random->edge_cut);
}


TEST(PartitionTest, MetisBalanceSlackRespected) {
  const CsrGraph g = MakeSocial();
  PartitionOptions tight;
  tight.kind = PartitionerKind::kMetisLike;
  tight.balance_slack = 1.02;
  PartitionOptions loose = tight;
  loose.balance_slack = 1.6;
  auto pt = PartitionGraph(g, 4, tight);
  auto pl = PartitionGraph(g, 4, loose);
  ASSERT_TRUE(pt.ok());
  ASSERT_TRUE(pl.ok());
  // Looser slack lets refinement chase a smaller cut at the cost of
  // balance; the tight run must stay close to 1.0 imbalance.
  EXPECT_LT(pt->EdgeImbalance(), 1.6);
  EXPECT_LE(pl->edge_cut, static_cast<EdgeId>(1.05 * pt->edge_cut));
}

TEST(PartitionTest, MorePartsThanVerticesStillValid) {
  EdgeList list;
  list.num_vertices = 3;
  list.edges = {{0, 1, 1.0f}, {1, 2, 1.0f}};
  auto g = CsrGraph::FromEdgeList(list);
  ASSERT_TRUE(g.ok());
  auto p = PartitionGraph(*g, 8, {.kind = PartitionerKind::kMetisLike});
  ASSERT_TRUE(p.ok());
  size_t total = 0;
  for (const auto& verts : p->part_vertices) total += verts.size();
  EXPECT_EQ(total, 3u);
}

}  // namespace
}  // namespace gum::graph
