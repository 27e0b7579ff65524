#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

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


// Every metis-like part weighs (1 + out-degree per vertex) at most
// kMetisBalanceSlack times the average part, on a skewed and a local graph.
TEST(PartitionTest, MetisBalanceSlackRespected) {
  const CsrGraph social = MakeSocial();
  const CsrGraph road =
      CsrGraph::FromEdgeList(RoadGrid({.rows = 40, .cols = 40})).value();
  for (const CsrGraph* g : {&social, &road}) {
    for (const int parts : {2, 4, 8}) {
      auto p = PartitionGraph(*g, parts, {.kind = PartitionerKind::kMetisLike});
      ASSERT_TRUE(p.ok());
      uint64_t max_weight = 0;
      for (int k = 0; k < parts; ++k) {
        max_weight = std::max<uint64_t>(
            max_weight, p->part_vertices[k].size() + p->part_out_edges[k]);
      }
      const double average =
          static_cast<double>(g->num_vertices() + g->num_edges()) / parts;
      EXPECT_LE(static_cast<double>(max_weight), kMetisBalanceSlack * average)
          << g->num_vertices() << " vertices, " << parts << " parts";
    }
  }
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

// FNV-1a over the bytes of an owner array.
uint64_t OwnerDigest(const std::vector<uint32_t>& owner) {
  uint64_t h = 1469598103934665603ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(owner.data());
  for (size_t i = 0; i < owner.size() * sizeof(uint32_t); ++i) {
    h ^= bytes[i];
    h *= 1099511628211ULL;
  }
  return h;
}

// The metis-like owners of nine small graphs at 2, 3 and 8 parts and seeds
// 1 and 77, pinned as digests captured from the hash-map partitioner the
// flat-level data path replaced (commit b2ee9f2). The graphs cover a road
// grid, weighted RMAT, RMAT with duplicates kept (its digests were captured
// on a graph built without an in-CSR, whose in-lists the partitioner
// transposed itself; they list the same sources in the same order as the
// in-CSR), symmetrized RMAT, a web crawl, Erdos-Renyi, a
// star (matching stalls at once), 100 disjoint paths plus 200 isolated
// vertices (the initial partition hands leftovers to the lightest part) and
// RMAT with self-loops kept (dropped from the levels, counted in the vertex
// weights).
TEST(PartitionTest, MetisLikeOwnersMatchParentDigests) {
  const auto build = [](const EdgeList& list, CsrBuildOptions options = {}) {
    auto g = CsrGraph::FromEdgeList(list, options);
    EXPECT_TRUE(g.ok());
    return std::move(g).value();
  };
  CsrBuildOptions duplicates;
  duplicates.deduplicate = false;
  CsrBuildOptions symmetrized;
  symmetrized.symmetrize = true;
  CsrBuildOptions self_loops;
  self_loops.remove_self_loops = false;

  EdgeList star;
  star.num_vertices = 300;
  for (VertexId v = 1; v < 300; ++v) {
    star.edges.push_back({0, v, 1.0f});
    if (v % 3 == 0) star.edges.push_back({v, 0, 1.0f});
  }
  EdgeList paths;
  paths.num_vertices = 600;
  for (VertexId c = 0; c < 100; ++c) {
    for (VertexId i = 0; i < 3; ++i) {
      paths.edges.push_back({4 * c + i, 4 * c + i + 1, 1.0f});
      paths.edges.push_back({4 * c + i + 1, 4 * c + i, 1.0f});
    }
  }
  EdgeList loops = Rmat({.scale = 9, .edge_factor = 8, .seed = 11});
  for (VertexId v = 0; v < loops.num_vertices; v += 7) {
    loops.edges.push_back({v, v, 1.0f});
  }

  struct Cell {
    std::string name;
    CsrGraph graph;
    // Parts 2, 3, 8 (outer) x seeds 1, 77 (inner).
    std::array<uint64_t, 6> digests;
  };
  const Cell cells[] = {
      {"road", build(RoadGrid({.rows = 40, .cols = 40, .seed = 5})),
       {0xecf158ad268eddc2, 0xffe8655dbe25fa22, 0x1a053aea88e52883,
        0x78df78fb438a94d0, 0xf09dc392e4dd7ef3, 0xc3762b91e2a84d06}},
      {"rmat_weighted",
       build(Rmat({.scale = 11, .edge_factor = 8, .weighted = true,
                   .seed = 3})),
       {0x147dfb02929a7903, 0x3d5c5f92c3813872, 0x09364c61827bea51,
        0x9a0eeae6f6504163, 0xd0f9b4c460916f31, 0x7b1cf0447d6e29e1}},
      {"rmat_duplicates",
       build(Rmat({.scale = 10, .edge_factor = 8, .seed = 7}), duplicates),
       {0x31ef27c02c238d23, 0x6f1e09b75eee7733, 0x87be515dfd57fd03,
        0x281b649ee123c121, 0x0dadb59efebf19e7, 0x2d945c3c7c068a87}},
      {"rmat_symmetrized",
       build(Rmat({.scale = 10, .edge_factor = 8, .seed = 9}), symmetrized),
       {0x81880ab75db93f13, 0x7c99135190f58752, 0x6549974c215642b2,
        0x68716a515eed28a0, 0x8195d7b0d0267560, 0xc45bb83ab278c650}},
      {"web", build(WebCrawl({.scale = 10, .seed = 4})),
       {0x09fd93611319faa2, 0x5cd2094a9744fc83, 0x4570e249331e3850,
        0xc2d1f9394d6328e2, 0xb19d148887b2add7, 0x81ca9908caeef780}},
      {"er", build(ErdosRenyi(1000, 6000, false, 6)),
       {0xc1fe1df896c8d922, 0xecd09b0f77630923, 0x5ce741cec40f7473,
        0x11d14a57d7fbf413, 0x39fea19e4ae95005, 0xb7e00612f85b2fb5}},
      {"star", build(star),
       {0x7a571a3837f956c3, 0x7a571a3837f956c3, 0xb165985fbddf5222,
        0xb165985fbddf5222, 0xf8da9adbabf2dc01, 0xf8da9adbabf2dc01}},
      {"disconnected", build(paths),
       {0xd127c503a69ddd83, 0xd127c503a69ddd83, 0x81cac0fa4ef518e3,
        0x81cac0fa4ef518e3, 0x9a2aecfc7282afc3, 0x9a2aecfc7282afc3}},
      {"self_loops", build(loops, self_loops),
       {0x72ac33480145fd13, 0x56544e6a16f90312, 0x18975d3d139a0253,
        0xf1d4630ce37e3c01, 0x12aa326b164695b6, 0x754fca7fbebdbbf0}},
  };
  for (const Cell& cell : cells) {
    size_t i = 0;
    for (const int parts : {2, 3, 8}) {
      for (const uint64_t seed : {uint64_t{1}, uint64_t{77}}) {
        auto p = PartitionGraph(
            cell.graph, parts,
            {.kind = PartitionerKind::kMetisLike, .seed = seed});
        ASSERT_TRUE(p.ok());
        const uint64_t got = OwnerDigest(p->owner);
        char hex[24];
        std::snprintf(hex, sizeof(hex), "0x%016llx",
                      static_cast<unsigned long long>(got));
        EXPECT_EQ(got, cell.digests[i++])
            << cell.name << " at " << parts << " parts, seed " << seed
            << ": digest " << hex;
      }
    }
  }
}

}  // namespace
}  // namespace gum::graph
