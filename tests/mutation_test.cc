// Mutation-plane tests (DESIGN.md §14): spec grammar, stream expansion,
// DeltaCsr overlay geometry, compaction round-trips, DynamicGraph apply
// semantics (set-like, history-independent), and the epoched context's
// rebuild-at-the-barrier contract.

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "core/epoch_context.h"
#include "graph/csr.h"
#include "graph/mutation.h"
#include "graph/partition.h"
#include "tests/test_util.h"

namespace gum::graph {
namespace {

CsrGraph MakeGraph(VertexId n, std::vector<Edge> edges,
                   bool symmetrize = false) {
  EdgeList list;
  list.num_vertices = n;
  list.edges = std::move(edges);
  CsrBuildOptions opt;
  opt.symmetrize = symmetrize;
  auto g = CsrGraph::FromEdgeList(list, opt);
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  return std::move(g).value();
}

using EdgeTuple = std::tuple<VertexId, VertexId, float>;

std::vector<EdgeTuple> Edges(const CsrGraph& g) {
  std::vector<EdgeTuple> out;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    const auto targets = g.OutNeighbors(u);
    const auto weights = g.OutWeights(u);
    for (size_t i = 0; i < targets.size(); ++i) {
      out.emplace_back(u, targets[i],
                       weights.empty() ? 1.0f : weights[i]);
    }
  }
  return out;
}

std::vector<EdgeTuple> Edges(const DeltaCsr& d) {
  std::vector<EdgeTuple> out;
  for (VertexId u = 0; u < d.base().num_vertices(); ++u) {
    d.ForEachOut(u, [&](VertexId v, float w) { out.emplace_back(u, v, w); });
  }
  return out;
}

// --- grammar ---

TEST(MutationPlanTest, ParsesExplicitEvents) {
  auto plan =
      MutationPlan::Parse("ins:1-2@1;del:3-4@2;delv:5@1;ins:6-7@2x2.5");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->events().size(), 4u);
  EXPECT_EQ(plan->events()[0].kind, MutationKind::kInsertEdge);
  EXPECT_EQ(plan->events()[0].u, 1u);
  EXPECT_EQ(plan->events()[0].v, 2u);
  EXPECT_EQ(plan->events()[0].epoch, 1);
  EXPECT_EQ(plan->events()[1].kind, MutationKind::kDeleteEdge);
  EXPECT_EQ(plan->events()[1].epoch, 2);
  EXPECT_EQ(plan->events()[2].kind, MutationKind::kDeleteVertex);
  EXPECT_EQ(plan->events()[2].u, 5u);
  EXPECT_FLOAT_EQ(plan->events()[3].weight, 2.5f);
  EXPECT_FALSE(plan->random());
}

TEST(MutationPlanTest, NoneAndEmptyAreEmptyPlans) {
  for (const char* spec : {"none", ""}) {
    auto plan = MutationPlan::Parse(spec);
    ASSERT_TRUE(plan.ok());
    EXPECT_TRUE(plan->empty());
  }
}

TEST(MutationPlanTest, RejectsUnknownEventKind) {
  auto plan = MutationPlan::Parse("frob:1-2@3");
  ASSERT_FALSE(plan.ok());
  EXPECT_NE(plan.status().ToString().find("unknown event kind"),
            std::string::npos);
}

TEST(MutationPlanTest, RejectsMalformedSpecs) {
  // Malformed numbers, missing epochs, misplaced weights, bad rand shapes:
  // every one must be a loud InvalidArgument, never a silent fallback.
  for (const char* spec :
       {"ins:a-2@1", "ins:1-2", "ins:1@1", "del:1-2@1x2.0", "delv:1-2@1",
        "ins:1-2@0", "ins:-1-2@1", "rand:0x5", "rand:3", "rand:3x5;ins:1-2@1",
        "rand:3x5;rand-ins:2x2", "ins:1-2@1x", "bogus"}) {
    auto plan = MutationPlan::Parse(spec);
    EXPECT_FALSE(plan.ok()) << "spec accepted: " << spec;
  }
}

TEST(MutationPlanTest, EventDescribeRoundTrips) {
  const std::string spec = "ins:1-2@1;del:3-4@2;delv:5@1;ins:6-7@2x2.5";
  auto plan = MutationPlan::Parse(spec);
  ASSERT_TRUE(plan.ok());
  std::string joined;
  for (const auto& ev : plan->events()) {
    if (!joined.empty()) joined += ";";
    joined += ev.Describe();
  }
  EXPECT_EQ(joined, spec);
}

// --- stream expansion ---

TEST(MutationStreamTest, BucketsEventsByEpochInPlanOrder) {
  const CsrGraph g = MakeGraph(8, {{0, 1}, {1, 2}});
  auto plan = MutationPlan::Parse("ins:1-2@2;ins:3-4@1;del:0-1@2;ins:5-6@1");
  ASSERT_TRUE(plan.ok());
  auto stream = MutationStream::Create(*plan, g);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  EXPECT_TRUE(stream->active());
  EXPECT_EQ(stream->num_epochs(), 2);

  const auto b1 = stream->BatchAt(1);
  ASSERT_EQ(b1.size(), 2u);
  EXPECT_EQ(b1[0].u, 3u);  // plan order within the epoch
  EXPECT_EQ(b1[1].u, 5u);
  const auto b2 = stream->BatchAt(2);
  ASSERT_EQ(b2.size(), 2u);
  EXPECT_EQ(b2[0].kind, MutationKind::kInsertEdge);
  EXPECT_EQ(b2[1].kind, MutationKind::kDeleteEdge);
  EXPECT_TRUE(stream->BatchAt(3).empty());
  EXPECT_TRUE(stream->BatchAt(0).empty());
}

TEST(MutationStreamTest, RejectsOutOfRangeEndpoints) {
  const CsrGraph g = MakeGraph(5, {{0, 1}});
  auto plan = MutationPlan::Parse("ins:99-1@1");
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(MutationStream::Create(*plan, g).ok());
}

TEST(MutationStreamTest, InactiveStreamFromEmptyPlan) {
  const CsrGraph g = MakeGraph(5, {{0, 1}});
  auto plan = MutationPlan::Parse("none");
  ASSERT_TRUE(plan.ok());
  auto stream = MutationStream::Create(*plan, g);
  ASSERT_TRUE(stream.ok());
  EXPECT_FALSE(stream->active());
  EXPECT_EQ(stream->num_epochs(), 0);
}

TEST(MutationStreamTest, RandomStreamsAreSeedDeterministic) {
  const CsrGraph g = test::SocialGraph(8);
  auto plan = MutationPlan::Parse("rand:4x8");
  ASSERT_TRUE(plan.ok());
  auto s1 = MutationStream::Create(*plan, g, 7);
  auto s2 = MutationStream::Create(*plan, g, 7);
  auto s3 = MutationStream::Create(*plan, g, 8);
  ASSERT_TRUE(s1.ok() && s2.ok() && s3.ok());
  EXPECT_EQ(s1->num_epochs(), 4);
  EXPECT_EQ(s1->Describe(), s2->Describe());
  EXPECT_NE(s1->Describe(), s3->Describe());
  // Every expanded event is in range and epoch-valid.
  for (int e = 1; e <= s1->num_epochs(); ++e) {
    EXPECT_EQ(s1->BatchAt(e).size(), 8u);
    for (const auto& ev : s1->BatchAt(e)) {
      EXPECT_LT(ev.u, g.num_vertices());
      EXPECT_LT(ev.v, g.num_vertices());
      EXPECT_EQ(ev.epoch, e);
    }
  }
}

TEST(MutationStreamTest, RandInsStreamsHoldOnlyInserts) {
  const CsrGraph g = test::SocialGraph(8);
  auto plan = MutationPlan::Parse("rand-ins:3x16");
  ASSERT_TRUE(plan.ok());
  auto stream = MutationStream::Create(*plan, g, 3);
  ASSERT_TRUE(stream.ok());
  for (int e = 1; e <= stream->num_epochs(); ++e) {
    for (const auto& ev : stream->BatchAt(e)) {
      EXPECT_EQ(ev.kind, MutationKind::kInsertEdge);
      EXPECT_NE(ev.u, ev.v);
    }
  }
}

// --- delta overlay geometry ---

TEST(DeltaCsrTest, SetLikeInsertDeleteSemantics) {
  const CsrGraph g = MakeGraph(6, {{0, 2, 3.0f}, {0, 4}, {1, 2}});
  DeltaCsr d(&g);
  EXPECT_TRUE(d.empty());

  // Insert an existing base edge: noop.
  EXPECT_EQ(d.ApplyEdge(MutationKind::kInsertEdge, 0, 2, 1.0f),
            DeltaCsr::Effect::kNoop);
  // Fresh insert lands in the added segment.
  EXPECT_EQ(d.ApplyEdge(MutationKind::kInsertEdge, 0, 3, 2.0f),
            DeltaCsr::Effect::kInserted);
  EXPECT_TRUE(d.HasEdge(0, 3));
  EXPECT_FLOAT_EQ(d.EdgeWeight(0, 3), 2.0f);
  // Re-inserting it: noop.
  EXPECT_EQ(d.ApplyEdge(MutationKind::kInsertEdge, 0, 3, 2.0f),
            DeltaCsr::Effect::kNoop);
  // Self-loop inserts are dropped.
  EXPECT_EQ(d.ApplyEdge(MutationKind::kInsertEdge, 5, 5, 1.0f),
            DeltaCsr::Effect::kNoop);
  // Deleting an absent edge: noop.
  EXPECT_EQ(d.ApplyEdge(MutationKind::kDeleteEdge, 3, 0, 1.0f),
            DeltaCsr::Effect::kNoop);

  // Deleting a base edge reports the removed weight (tightness checks).
  float w = 0.0f;
  EXPECT_EQ(d.ApplyEdge(MutationKind::kDeleteEdge, 0, 2, 1.0f, &w),
            DeltaCsr::Effect::kDeleted);
  EXPECT_FLOAT_EQ(w, 3.0f);
  EXPECT_FALSE(d.HasEdge(0, 2));
  // Double delete: noop.
  EXPECT_EQ(d.ApplyEdge(MutationKind::kDeleteEdge, 0, 2, 1.0f),
            DeltaCsr::Effect::kNoop);
  // Deleting an added edge erases the segment entry.
  EXPECT_EQ(d.ApplyEdge(MutationKind::kDeleteEdge, 0, 3, 1.0f, &w),
            DeltaCsr::Effect::kDeleted);
  EXPECT_FLOAT_EQ(w, 2.0f);
  EXPECT_FALSE(d.HasEdge(0, 3));

  EXPECT_EQ(d.added_edges(), 0u);
  EXPECT_EQ(d.deleted_edges(), 1u);
  EXPECT_EQ(d.OutDegree(0), 1u);  // {4}
}

TEST(DeltaCsrTest, MergedIterationStaysAscending) {
  const CsrGraph g = MakeGraph(10, {{0, 2}, {0, 5}, {0, 8}});
  DeltaCsr d(&g);
  d.ApplyEdge(MutationKind::kInsertEdge, 0, 7, 1.0f);
  d.ApplyEdge(MutationKind::kInsertEdge, 0, 1, 1.0f);
  d.ApplyEdge(MutationKind::kInsertEdge, 0, 3, 1.0f);
  d.ApplyEdge(MutationKind::kDeleteEdge, 0, 5, 1.0f);

  std::vector<VertexId> targets;
  d.ForEachOut(0, [&](VertexId v, float) { targets.push_back(v); });
  EXPECT_EQ(targets, (std::vector<VertexId>{1, 2, 3, 7, 8}));
  EXPECT_EQ(d.OutDegree(0), 5u);
  EXPECT_EQ(d.touched_vertices(), 1u);
  EXPECT_GT(d.delta_bytes(), 0u);
}

TEST(DeltaCsrTest, CompactFoldsOverlayIntoFlatCsr) {
  const CsrGraph g = MakeGraph(6, {{0, 1, 2.0f}, {1, 2, 1.5f}, {2, 3, 1.0f}});
  DeltaCsr d(&g);
  d.ApplyEdge(MutationKind::kInsertEdge, 3, 4, 4.0f);
  d.ApplyEdge(MutationKind::kDeleteEdge, 1, 2, 1.0f);

  const CsrGraph flat = d.Compact();
  EXPECT_EQ(flat.num_vertices(), g.num_vertices());
  EXPECT_EQ(Edges(flat), Edges(d));
  // Compacting the compacted graph with an empty overlay is the identity.
  DeltaCsr d2(&flat);
  EXPECT_EQ(Edges(d2.Compact()), Edges(flat));
}

// --- dynamic graph apply semantics ---

TEST(DynamicGraphTest, ApplyCountsEffectsAndNoops) {
  DynamicGraph dyn(MakeGraph(6, {{0, 1}, {1, 2}}), /*symmetric=*/false);
  const std::vector<MutationEvent> batch = {
      {MutationKind::kInsertEdge, 2, 3, 1},
      {MutationKind::kInsertEdge, 0, 1, 1},  // exists: noop
      {MutationKind::kDeleteEdge, 1, 2, 1},
      {MutationKind::kDeleteEdge, 4, 5, 1},  // absent: noop
  };
  const auto stats = dyn.Apply(batch);
  EXPECT_EQ(stats.inserted, 1);
  EXPECT_EQ(stats.deleted, 1);
  EXPECT_EQ(stats.noops, 2);
  ASSERT_EQ(stats.effective.size(), 2u);
  EXPECT_EQ(stats.affected, (std::vector<VertexId>{1, 2, 3}));
  EXPECT_EQ(dyn.epochs_applied(), 1);
}

TEST(DynamicGraphTest, DeleteVertexDropsAllIncidentEdges) {
  DynamicGraph dyn(
      MakeGraph(6, {{0, 2}, {1, 2}, {2, 3}, {2, 4}, {4, 2}}),
      /*symmetric=*/false);
  const std::vector<MutationEvent> batch = {
      {MutationKind::kDeleteVertex, 2, 0, 1}};
  const auto stats = dyn.Apply(batch);
  EXPECT_EQ(stats.deleted, 5);
  for (const auto& ev : stats.effective) {
    EXPECT_EQ(ev.kind, MutationKind::kDeleteEdge);
  }
  const CsrGraph flat = dyn.Materialize();
  EXPECT_EQ(flat.OutDegree(2), 0u);
  for (const auto& [u, v, w] : Edges(flat)) {
    EXPECT_NE(u, 2u);
    EXPECT_NE(v, 2u);
  }
}

// The delv expansion before it skipped sources without an added segment:
// after the base in-edges, every other vertex is asked HasEdge(src, u).
// Applies `batch` to `delta` and returns the effective events in order.
std::vector<MutationEvent> ApplyScanningEverySource(
    DeltaCsr& delta, std::span<const MutationEvent> batch) {
  std::vector<MutationEvent> effective;
  const auto apply_one = [&](MutationKind kind, VertexId u, VertexId v,
                             int epoch, float weight) {
    float w = weight;
    if (delta.ApplyEdge(kind, u, v, weight, &w) != DeltaCsr::Effect::kNoop) {
      effective.push_back(MutationEvent{kind, u, v, epoch, w});
    }
  };
  const auto apply_edge = [&](MutationKind kind, VertexId u, VertexId v,
                              int epoch, float weight) {
    apply_one(kind, u, v, epoch, weight);
    if (delta.symmetric() && u != v) apply_one(kind, v, u, epoch, weight);
  };
  for (const MutationEvent& ev : batch) {
    if (ev.kind != MutationKind::kDeleteVertex) {
      apply_edge(ev.kind, ev.u, ev.v, ev.epoch, ev.weight);
      continue;
    }
    std::vector<VertexId> outs;
    delta.ForEachOut(ev.u, [&](VertexId t, float) { outs.push_back(t); });
    for (const VertexId t : outs) {
      apply_edge(MutationKind::kDeleteEdge, ev.u, t, ev.epoch, 1.0f);
    }
    if (delta.symmetric()) continue;
    for (const VertexId src : delta.base().InNeighbors(ev.u)) {
      apply_edge(MutationKind::kDeleteEdge, src, ev.u, ev.epoch, 1.0f);
    }
    for (VertexId src = 0; src < delta.base().num_vertices(); ++src) {
      if (src != ev.u && delta.HasEdge(src, ev.u)) {
        apply_edge(MutationKind::kDeleteEdge, src, ev.u, ev.epoch, 1.0f);
      }
    }
  }
  return effective;
}

using EventTuple = std::tuple<MutationKind, VertexId, VertexId, int, float>;

std::vector<EventTuple> Tuples(const std::vector<MutationEvent>& events) {
  std::vector<EventTuple> out;
  for (const MutationEvent& ev : events) {
    out.emplace_back(ev.kind, ev.u, ev.v, ev.epoch, ev.weight);
  }
  return out;
}

// Runs `batches` through DynamicGraph::Apply and through the full-scan
// expansion: every batch's effective events (order and weights) and the
// final compacted CSR must match.
void ExpectApplyMatchesFullScan(
    const CsrGraph& base, bool symmetric,
    const std::vector<std::vector<MutationEvent>>& batches) {
  DynamicGraph dyn(base, symmetric);
  DeltaCsr reference(&base, symmetric);
  for (size_t b = 0; b < batches.size(); ++b) {
    const auto stats = dyn.Apply(batches[b]);
    EXPECT_EQ(Tuples(stats.effective),
              Tuples(ApplyScanningEverySource(reference, batches[b])))
        << "batch " << b;
  }
  EXPECT_EQ(Edges(dyn.Materialize()), Edges(reference.Compact()));
}

TEST(DynamicGraphTest, DeleteVertexCatchesAddedInEdges) {
  // An overlay-added edge targeting u must also fall to delv:u.
  DynamicGraph dyn(MakeGraph(6, {{0, 1}}), /*symmetric=*/false);
  dyn.Apply(std::vector<MutationEvent>{{MutationKind::kInsertEdge, 3, 2, 1}});
  const auto stats = dyn.Apply(
      std::vector<MutationEvent>{{MutationKind::kDeleteVertex, 2, 0, 2}});
  EXPECT_EQ(stats.deleted, 1);
  EXPECT_FALSE(dyn.delta().HasEdge(3, 2));

  using K = MutationKind;
  const CsrGraph base = MakeGraph(8, {{0, 1, 2.0f},
                                      {1, 2, 3.0f},
                                      {4, 2, 5.0f},
                                      {2, 6, 7.0f},
                                      {6, 2, 1.5f}});
  // Added in-edges of vertex 2 from several sources, in non-ascending
  // insertion order, beside base in-edges and an added out-edge.
  ExpectApplyMatchesFullScan(
      base, /*symmetric=*/false,
      {{{K::kInsertEdge, 7, 2, 1, 4.0f},
        {K::kInsertEdge, 3, 2, 1, 2.5f},
        {K::kInsertEdge, 0, 2, 1, 6.0f},
        {K::kInsertEdge, 5, 2, 1, 1.0f},
        {K::kInsertEdge, 2, 3, 1, 9.0f},
        {K::kInsertEdge, 3, 4, 1, 8.0f}},
       {{K::kDeleteVertex, 2, 0, 2}}});
  // A base in-edge deleted and then re-inserted sits in both the deletion
  // marks and an added segment; delv removes it once, with the new weight.
  ExpectApplyMatchesFullScan(base, /*symmetric=*/false,
                             {{{K::kDeleteEdge, 1, 2, 1}},
                              {{K::kInsertEdge, 1, 2, 2, 8.5f},
                               {K::kInsertEdge, 5, 2, 2, 2.0f}},
                              {{K::kDeleteVertex, 2, 0, 3},
                               {K::kInsertEdge, 4, 2, 3, 3.0f}}});
  // Symmetric graphs take in-edges through the mirrored out pass.
  ExpectApplyMatchesFullScan(
      MakeGraph(8, {{0, 1, 2.0f}, {1, 2, 3.0f}, {4, 2, 5.0f}},
                /*symmetrize=*/true),
      /*symmetric=*/true,
      {{{K::kInsertEdge, 7, 2, 1, 4.0f}, {K::kInsertEdge, 3, 2, 1, 2.5f}},
       {{K::kDeleteVertex, 2, 0, 2}, {K::kInsertEdge, 2, 5, 2}}});
}

TEST(DynamicGraphTest, SymmetricModeMirrorsEveryEvent) {
  DynamicGraph dyn(MakeGraph(6, {{0, 1}, {1, 0}}), /*symmetric=*/true);
  auto stats = dyn.Apply(
      std::vector<MutationEvent>{{MutationKind::kInsertEdge, 2, 3, 1}});
  EXPECT_EQ(stats.inserted, 2);
  EXPECT_TRUE(dyn.delta().HasEdge(2, 3));
  EXPECT_TRUE(dyn.delta().HasEdge(3, 2));

  stats = dyn.Apply(
      std::vector<MutationEvent>{{MutationKind::kDeleteEdge, 0, 1, 2}});
  EXPECT_EQ(stats.deleted, 2);
  EXPECT_FALSE(dyn.delta().HasEdge(0, 1));
  EXPECT_FALSE(dyn.delta().HasEdge(1, 0));
}

TEST(DynamicGraphTest, CompactionCadenceNeverChangesTheLogicalGraph) {
  // History independence: the same event stream produces the same edge set
  // whether the overlay is compacted every epoch or never.
  const CsrGraph base = test::SocialGraph(8);
  auto plan = MutationPlan::Parse("rand:4x16");
  ASSERT_TRUE(plan.ok());
  auto stream = MutationStream::Create(*plan, base, 11);
  ASSERT_TRUE(stream.ok());

  DynamicGraph never(base, false);
  DynamicGraph always(base, false);
  for (int e = 1; e <= stream->num_epochs(); ++e) {
    never.Apply(stream->BatchAt(e));
    always.Apply(stream->BatchAt(e));
    always.Compact();
    EXPECT_TRUE(always.delta().empty());
    EXPECT_EQ(Edges(never.Materialize()), Edges(always.base()))
        << "diverged at epoch " << e;
  }
}

// --- epoched context ---

TEST(EpochedGraphContextTest, AdvanceRebuildsContextUnderPinnedOwnership) {
  const CsrGraph base = test::SocialGraph(8);
  const auto partition = test::MakePartition(base, 4);
  const std::vector<uint32_t> owner_before = partition.owner;
  core::EpochedGraphContext ectx(base, partition, test::Topo(4),
                                 test::TestEngineOptions(),
                                 /*symmetric=*/false);
  EXPECT_EQ(ectx.epoch(), 0);
  EXPECT_EQ(ectx.ctx().graph().num_edges(), base.num_edges());

  auto plan = MutationPlan::Parse("rand-ins:2x32");
  ASSERT_TRUE(plan.ok());
  auto stream = MutationStream::Create(*plan, base, 5);
  ASSERT_TRUE(stream.ok());

  const auto adv = ectx.AdvanceEpoch(stream->BatchAt(1), /*compact_every=*/0);
  EXPECT_EQ(adv.epoch, 1);
  EXPECT_GT(adv.inserted, 0);
  EXPECT_GT(adv.apply_ms, 0.0);
  EXPECT_EQ(adv.compact_ms, 0.0);
  EXPECT_FALSE(adv.compacted);
  EXPECT_EQ(ectx.epoch(), 1);
  EXPECT_EQ(ectx.ctx().graph().num_edges(),
            base.num_edges() + static_cast<EdgeId>(adv.inserted));
  // Ownership is pinned across epochs; only derived views refresh.
  EXPECT_EQ(ectx.partition().owner, owner_before);
  EXPECT_EQ(ectx.ctx().partition().owner, ectx.partition().owner);
}

TEST(EpochedGraphContextTest, CompactEveryFoldsTheOverlay) {
  const CsrGraph base = test::SocialGraph(8);
  core::EpochedGraphContext ectx(base, test::MakePartition(base, 4),
                                 test::Topo(4), test::TestEngineOptions(),
                                 /*symmetric=*/false);
  auto plan = MutationPlan::Parse("rand:4x16");
  ASSERT_TRUE(plan.ok());
  auto stream = MutationStream::Create(*plan, base, 9);
  ASSERT_TRUE(stream.ok());

  for (int e = 1; e <= 4; ++e) {
    const auto adv = ectx.AdvanceEpoch(stream->BatchAt(e),
                                       /*compact_every=*/2);
    EXPECT_EQ(adv.compacted, e % 2 == 0);
    if (adv.compacted) {
      EXPECT_GT(adv.compact_ms, 0.0);
      EXPECT_TRUE(ectx.dynamic().delta().empty());
    }
  }
  EXPECT_EQ(ectx.compactions(), 2);
  EXPECT_GT(ectx.total_apply_ms(), 0.0);
  EXPECT_GT(ectx.total_compact_ms(), 0.0);
  EXPECT_GT(ectx.total_effective_events(), 0);
}

TEST(EpochedGraphContextTest, ChargesLandOnTheCommPlane) {
  const CsrGraph base = test::SocialGraph(8);
  core::EpochedGraphContext ectx(base, test::MakePartition(base, 4),
                                 test::Topo(4), test::TestEngineOptions(),
                                 /*symmetric=*/false);
  auto plan = MutationPlan::Parse("ins:0-1@1;ins:2-3@1;del:0-1@2");
  ASSERT_TRUE(plan.ok());
  auto stream = MutationStream::Create(*plan, base, 1);
  ASSERT_TRUE(stream.ok());
  for (int e = 1; e <= stream->num_epochs(); ++e) {
    ectx.AdvanceEpoch(stream->BatchAt(e), /*compact_every=*/1);
  }
  const auto& link_bytes = ectx.plane().link_bytes();
  double local_bytes = 0.0;
  for (size_t d = 0; d < link_bytes.size(); ++d) {
    local_bytes += link_bytes[d][d];
  }
  EXPECT_GT(local_bytes, 0.0);
}

}  // namespace
}  // namespace gum::graph
