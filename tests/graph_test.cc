#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "graph/csr.h"
#include "graph/generators.h"
#include "graph/mutation.h"
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

// Every out-list ascends by target and every in-list by source (the rule
// graph/csr.h states): on each generator, weighted or not, symmetrized or
// not, with duplicates kept, and on a DeltaCsr compaction after inserts
// and deletes that land inside existing out-lists.
TEST(CsrTest, NeighborsSortedAscending) {
  const auto expect_sorted = [](const CsrGraph& g, const std::string& what) {
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      const auto out = g.OutNeighbors(v);
      ASSERT_TRUE(std::is_sorted(out.begin(), out.end()))
          << what << ": out-list of " << v;
      const auto in = g.InNeighbors(v);
      ASSERT_TRUE(std::is_sorted(in.begin(), in.end()))
          << what << ": in-list of " << v;
    }
  };
  EdgeList list;
  list.num_vertices = 5;
  list.edges = {{0, 4, 1.0f}, {0, 1, 1.0f}, {0, 3, 1.0f}, {0, 2, 1.0f}};
  expect_sorted(CsrGraph::FromEdgeList(list).value(), "5-vertex list");

  for (const bool weighted : {false, true}) {
    const std::vector<std::pair<std::string, EdgeList>> lists = {
        {"rmat", Rmat({.scale = 9, .edge_factor = 8, .weighted = weighted,
                       .seed = 3})},
        {"web", WebCrawl({.scale = 9, .weighted = weighted, .seed = 4})},
        {"road", RoadGrid({.rows = 16, .cols = 16, .weighted = weighted,
                           .seed = 5})},
        {"er", ErdosRenyi(400, 3000, weighted, 6)},
    };
    for (const auto& [name, edges] : lists) {
      for (const bool symmetrize : {false, true}) {
        CsrBuildOptions options;
        options.symmetrize = symmetrize;
        const std::string what = name + (weighted ? " weighted" : "") +
                                 (symmetrize ? " symmetrized" : "");
        expect_sorted(CsrGraph::FromEdgeList(edges, options).value(), what);
      }
    }
  }
  CsrBuildOptions keep_all;
  keep_all.deduplicate = false;
  keep_all.remove_self_loops = false;
  expect_sorted(
      CsrGraph::FromEdgeList(Rmat({.scale = 8, .seed = 7}), keep_all).value(),
      "rmat with duplicates");

  const CsrGraph base =
      CsrGraph::FromEdgeList(Rmat({.scale = 9, .weighted = true, .seed = 8}))
          .value();
  DeltaCsr delta(&base);
  size_t inserted = 0;
  size_t deleted = 0;
  for (VertexId u = 0; u < base.num_vertices(); u += 3) {
    const auto out = base.OutNeighbors(u);
    const VertexId v = (u * 37 + 11) % base.num_vertices();
    if (delta.ApplyEdge(MutationKind::kInsertEdge, u, v, 2.0f) ==
        DeltaCsr::Effect::kInserted) {
      ++inserted;
    }
    if (!out.empty() &&
        delta.ApplyEdge(MutationKind::kDeleteEdge, u, out[out.size() / 2],
                        1.0f) == DeltaCsr::Effect::kDeleted) {
      ++deleted;
    }
  }
  ASSERT_GT(inserted, 0u);
  ASSERT_GT(deleted, 0u);
  const CsrGraph compacted = delta.Compact();
  EXPECT_EQ(compacted.num_edges(), base.num_edges() + inserted - deleted);
  expect_sorted(compacted, "compacted DeltaCsr");
}

// The arrays of a CSR build, laid out as CsrGraph stores them.
struct CsrArrays {
  std::vector<EdgeId> out_offsets;
  std::vector<VertexId> out_targets;
  std::vector<float> out_weights;
  std::vector<EdgeId> in_offsets;
  std::vector<VertexId> in_targets;
};

CsrArrays ArraysOf(const CsrGraph& g) {
  CsrArrays a;
  const VertexId n = g.num_vertices();
  a.out_offsets.push_back(0);
  a.in_offsets.push_back(0);
  for (VertexId v = 0; v < n; ++v) {
    const auto out = g.OutNeighbors(v);
    a.out_targets.insert(a.out_targets.end(), out.begin(), out.end());
    const auto w = g.OutWeights(v);
    a.out_weights.insert(a.out_weights.end(), w.begin(), w.end());
    a.out_offsets.push_back(a.out_targets.size());
    const auto in = g.InNeighbors(v);
    a.in_targets.insert(a.in_targets.end(), in.begin(), in.end());
    a.in_offsets.push_back(a.in_targets.size());
  }
  return a;
}

// FromEdgeList as it was before every build shared one assembly: it always
// sorts by (src, dst), deduplicates, scatters through per-vertex cursors,
// keeps weights only if one differs from 1, and transposes into the in-CSR.
CsrArrays AlwaysSortBuild(const EdgeList& list,
                          const CsrBuildOptions& options) {
  const VertexId n = list.num_vertices;
  std::vector<Edge> edges;
  for (const Edge& e : list.edges) {
    if (options.remove_self_loops && e.src == e.dst) continue;
    edges.push_back(e);
    if (options.symmetrize && e.src != e.dst) {
      edges.push_back(Edge{e.dst, e.src, e.weight});
    }
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    if (a.src != b.src) return a.src < b.src;
    return a.dst < b.dst;
  });
  if (options.deduplicate) {
    edges.erase(std::unique(edges.begin(), edges.end(),
                            [](const Edge& a, const Edge& b) {
                              return a.src == b.src && a.dst == b.dst;
                            }),
                edges.end());
  }
  CsrArrays a;
  a.out_offsets.assign(n + 1, 0);
  for (const Edge& e : edges) a.out_offsets[e.src + 1]++;
  std::partial_sum(a.out_offsets.begin(), a.out_offsets.end(),
                   a.out_offsets.begin());
  const bool weighted =
      std::any_of(edges.begin(), edges.end(),
                  [](const Edge& e) { return e.weight != 1.0f; });
  a.out_targets.resize(edges.size());
  if (weighted) a.out_weights.resize(edges.size());
  std::vector<EdgeId> cursor(a.out_offsets.begin(), a.out_offsets.end() - 1);
  for (const Edge& e : edges) {
    const EdgeId pos = cursor[e.src]++;
    a.out_targets[pos] = e.dst;
    if (weighted) a.out_weights[pos] = e.weight;
  }
  a.in_offsets.assign(n + 1, 0);
  for (const VertexId dst : a.out_targets) a.in_offsets[dst + 1]++;
  std::partial_sum(a.in_offsets.begin(), a.in_offsets.end(),
                   a.in_offsets.begin());
  a.in_targets.resize(a.out_targets.size());
  std::vector<EdgeId> in_cursor(a.in_offsets.begin(), a.in_offsets.end() - 1);
  for (VertexId u = 0; u < n; ++u) {
    for (EdgeId e = a.out_offsets[u]; e < a.out_offsets[u + 1]; ++e) {
      a.in_targets[in_cursor[a.out_targets[e]]++] = u;
    }
  }
  return a;
}

void ExpectSameArrays(const CsrGraph& g, const CsrArrays& want,
                      const std::string& what) {
  const CsrArrays got = ArraysOf(g);
  EXPECT_TRUE(got.out_offsets == want.out_offsets) << what << ": out offsets";
  EXPECT_TRUE(got.out_targets == want.out_targets) << what << ": out targets";
  EXPECT_TRUE(got.out_weights == want.out_weights) << what << ": weights";
  EXPECT_TRUE(got.in_offsets == want.in_offsets) << what << ": in offsets";
  EXPECT_TRUE(got.in_targets == want.in_targets) << what << ": in targets";
}

// FromEdgeList and DeltaCsr::Compact both end in CsrGraph's one assembly,
// and each must equal the always-sort build array by array. FromEdgeList:
// strictly ascending lists with and without weights, ascending lists with
// ties of differing weights, lists with self-loops, symmetrized lists,
// unsorted generator output, and edgeless lists. Compact (against the
// always-sort build of its overlay's edge list): road closures, an insert
// that brings weights to an unweighted base, deletes that take every
// non-unit weight from a weighted one, delv, a symmetric stream, empty
// overlays, and an edgeless graph.
TEST(CsrTest, AscendingInputMatchesSortedBuild) {
  const auto with_options = [&](const EdgeList& list,
                                const std::string& what) {
    for (const bool dedup : {true, false}) {
      for (const bool loops : {true, false}) {
        for (const bool symmetrize : {false, true}) {
          CsrBuildOptions options;
          options.deduplicate = dedup;
          options.remove_self_loops = loops;
          options.symmetrize = symmetrize;
          const std::string cell = what + (dedup ? " dedup" : "") +
                                   (loops ? " no-loops" : "") +
                                   (symmetrize ? " symmetrized" : "");
          auto built = CsrGraph::FromEdgeList(list, options);
          ASSERT_TRUE(built.ok()) << cell;
          ExpectSameArrays(*built, AlwaysSortBuild(list, options), cell);
        }
      }
    }
  };
  // The list a built graph's arrays spell out: strictly ascending.
  const auto listed = [](const CsrGraph& g) {
    EdgeList list;
    list.num_vertices = g.num_vertices();
    for (VertexId u = 0; u < g.num_vertices(); ++u) {
      const auto out = g.OutNeighbors(u);
      const auto w = g.OutWeights(u);
      for (size_t i = 0; i < out.size(); ++i) {
        list.edges.push_back({u, out[i], w.empty() ? 1.0f : w[i]});
      }
    }
    return list;
  };

  for (const bool weighted : {false, true}) {
    const EdgeList road =
        RoadGrid({.rows = 12, .cols = 12, .weighted = weighted, .seed = 5});
    with_options(road, weighted ? "weighted road" : "road");
    const EdgeList ascending = listed(CsrGraph::FromEdgeList(road).value());
    with_options(ascending,
                 weighted ? "ascending weighted road" : "ascending road");

    // Ties: each fifth edge repeats with another weight, right after
    // itself, so the list ascends but not strictly.
    EdgeList ties = ascending;
    ties.edges.clear();
    for (size_t i = 0; i < ascending.edges.size(); ++i) {
      ties.edges.push_back(ascending.edges[i]);
      if (i % 5 == 0) {
        Edge twin = ascending.edges[i];
        twin.weight += 3.0f;
        ties.edges.push_back(twin);
      }
    }
    with_options(ties, weighted ? "weighted ties" : "ties");

    // A self-loop on every fourth vertex, merged in ascending position.
    std::vector<Edge> self_loops;
    for (VertexId u = 0; u < ascending.num_vertices; u += 4) {
      self_loops.push_back({u, u, 2.0f});
    }
    EdgeList loops = ascending;
    loops.edges.clear();
    std::merge(ascending.edges.begin(), ascending.edges.end(),
               self_loops.begin(), self_loops.end(),
               std::back_inserter(loops.edges),
               [](const Edge& a, const Edge& b) {
                 return a.src != b.src ? a.src < b.src : a.dst < b.dst;
               });
    with_options(loops, weighted ? "weighted self-loops" : "self-loops");
  }
  with_options(Rmat({.scale = 8, .edge_factor = 6, .weighted = true,
                     .seed = 12}),
               "unsorted rmat");
  EdgeList edgeless;
  edgeless.num_vertices = 7;
  with_options(edgeless, "edgeless");
  with_options(EdgeList{}, "no vertices");

  const auto expect_compacts = [](const DeltaCsr& delta,
                                  const std::string& what) {
    EdgeList overlay;
    overlay.num_vertices = delta.base().num_vertices();
    for (VertexId u = 0; u < overlay.num_vertices; ++u) {
      delta.ForEachOut(u, [&](VertexId v, float w) {
        overlay.edges.push_back({u, v, w});
      });
    }
    ExpectSameArrays(delta.Compact(), AlwaysSortBuild(overlay, {}), what);
  };
  // Applies every epoch of `spec` to `base`, checks the compaction and
  // returns it.
  const auto expect_epochs = [&](const CsrGraph& base, bool symmetric,
                                 const std::string& spec,
                                 const std::string& what) {
    DynamicGraph dyn(base, symmetric);
    auto plan = MutationPlan::Parse(spec);
    if (!plan.ok()) {
      ADD_FAILURE() << what << ": " << plan.status().ToString();
      return CsrGraph();
    }
    auto stream = MutationStream::Create(*plan, dyn.base(), /*seed=*/5);
    if (!stream.ok()) {
      ADD_FAILURE() << what << ": " << stream.status().ToString();
      return CsrGraph();
    }
    for (int e = 1; e <= stream->num_epochs(); ++e) {
      dyn.Apply(stream->BatchAt(e));
    }
    expect_compacts(dyn.delta(), what);
    return dyn.Materialize();
  };

  // An epoch barrier's compaction: 8 road segments closed in both
  // directions, 2 reopened at another weight.
  const CsrGraph road =
      CsrGraph::FromEdgeList(RoadGrid({.rows = 16, .cols = 16, .seed = 9}))
          .value();
  DeltaCsr delta(&road);
  expect_compacts(delta, "empty overlay on a weighted road");
  int closed = 0;
  for (VertexId u = 3; u < road.num_vertices() && closed < 8; u += 29) {
    const auto out = road.OutNeighbors(u);
    if (out.empty() || !delta.HasEdge(u, out[0])) continue;
    const VertexId v = out[0];
    ASSERT_EQ(delta.ApplyEdge(MutationKind::kDeleteEdge, u, v, 1.0f),
              DeltaCsr::Effect::kDeleted);
    ASSERT_EQ(delta.ApplyEdge(MutationKind::kDeleteEdge, v, u, 1.0f),
              DeltaCsr::Effect::kDeleted);
    if (closed < 2) {
      ASSERT_EQ(delta.ApplyEdge(MutationKind::kInsertEdge, u, v, 40.0f),
                DeltaCsr::Effect::kInserted);
    }
    ++closed;
  }
  ASSERT_EQ(closed, 8);
  expect_compacts(delta, "road closures");

  // Weights appear: one weighted insert into an unweighted base.
  const CsrGraph unweighted =
      CsrGraph::FromEdgeList(
          RoadGrid({.rows = 12, .cols = 12, .weighted = false, .seed = 5}))
          .value();
  ASSERT_FALSE(unweighted.has_weights());
  expect_epochs(unweighted, false, "none", "empty overlay on a road");
  EXPECT_TRUE(expect_epochs(unweighted, false, "ins:0-77@1x2.5",
                            "weighted insert")
                  .has_weights());

  // Weights vanish: every non-unit edge of a weighted base deleted.
  EdgeList few = RoadGrid({.rows = 12, .cols = 12, .weighted = false,
                           .seed = 5});
  for (size_t i = 0; i < few.edges.size(); i += 37) few.edges[i].weight = 3.0f;
  const CsrGraph few_weighted = CsrGraph::FromEdgeList(few).value();
  ASSERT_TRUE(few_weighted.has_weights());
  std::string deletes;
  for (VertexId u = 0; u < few_weighted.num_vertices(); ++u) {
    const auto out = few_weighted.OutNeighbors(u);
    const auto w = few_weighted.OutWeights(u);
    for (size_t i = 0; i < out.size(); ++i) {
      if (w[i] == 1.0f) continue;
      deletes += (deletes.empty() ? "" : ";") + std::string("del:") +
                 std::to_string(u) + "-" + std::to_string(out[i]) + "@1";
    }
  }
  EXPECT_FALSE(expect_epochs(few_weighted, false, deletes,
                             "every non-unit weight deleted")
                   .has_weights());

  // delv on a directed graph drops in- and out-edges, base and added.
  const CsrGraph rmat =
      CsrGraph::FromEdgeList(Rmat({.scale = 8, .weighted = true, .seed = 3}))
          .value();
  ASSERT_GT(rmat.InDegree(1), 0u);
  ASSERT_GT(rmat.OutDegree(1), 0u);
  const CsrGraph isolated = expect_epochs(
      rmat, false, "ins:9-1@1x2;delv:1@1;delv:2@2;ins:2-3@2", "delv");
  EXPECT_EQ(isolated.InDegree(1) + isolated.OutDegree(1), 0u);

  // A symmetric stream mirrors every event.
  CsrBuildOptions symmetrize;
  symmetrize.symmetrize = true;
  const CsrGraph symmetric =
      CsrGraph::FromEdgeList(Rmat({.scale = 8, .seed = 4}), symmetrize)
          .value();
  expect_epochs(symmetric, true, "rand:3x40", "symmetric stream");
  expect_epochs(symmetric, true, "delv:0@1;ins:5-6@1x4", "symmetric delv");

  // An edgeless graph, with an empty overlay and with one insert.
  const CsrGraph empty = CsrGraph::FromEdgeList(edgeless).value();
  expect_epochs(empty, false, "none", "edgeless");
  expect_epochs(empty, false, "ins:2-5@1", "edgeless plus one edge");
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
