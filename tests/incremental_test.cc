// Incremental-recompute tests (DESIGN.md §14). The load-bearing contract:
// after every mutation epoch, the incremental session's values byte-equal
// a full recompute on the mutated graph — across batch sizes, host thread
// counts, and expand backends. Plus the planner's soundness
// decisions (skip / warm incremental / checkpoint fallback) and the
// mutations x fault-plane compose.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algos/apps.h"
#include "algos/incremental.h"
#include "core/engine.h"
#include "core/epoch_context.h"
#include "fault/fault_plane.h"
#include "graph/mutation.h"
#include "tests/test_util.h"

namespace gum::algos {
namespace {

using graph::CsrGraph;
using graph::Edge;
using graph::EdgeList;
using graph::MutationPlan;
using graph::MutationStream;
using graph::VertexId;

CsrGraph MakeGraph(VertexId n, std::vector<Edge> edges,
                   bool symmetrize = false) {
  EdgeList list;
  list.num_vertices = n;
  list.edges = std::move(edges);
  graph::CsrBuildOptions opt;
  opt.symmetrize = symmetrize;
  auto g = CsrGraph::FromEdgeList(list, opt);
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  return std::move(g).value();
}

// Runs `app` through the mutation stream twice per epoch — once through
// the incremental session, once as a from-scratch engine run on the same
// epoch context — and asserts byte equality after every epoch.
template <typename App>
void ExpectIncrementalEqualsFull(const CsrGraph& base, bool symmetric,
                                 const std::string& spec, uint64_t seed,
                                 App app, core::EngineOptions options,
                                 int devices = 4, int compact_every = 2) {
  auto plan = MutationPlan::Parse(spec);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto stream = MutationStream::Create(*plan, base, seed);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();

  core::EpochedGraphContext ectx(base, test::MakePartition(base, devices),
                                 test::Topo(devices), options, symmetric);
  IncrementalSession<App> session;
  session.RunInitial(ectx.ctx(), app);

  for (int e = 1; e <= stream->num_epochs(); ++e) {
    const auto adv = ectx.AdvanceEpoch(stream->BatchAt(e), compact_every);
    session.RunEpoch(ectx.ctx(), adv.effective);

    App fresh = app;
    core::GumEngine<App> engine(&ectx.ctx());
    std::vector<typename App::Value> full;
    engine.Run(fresh, &full);

    ASSERT_EQ(session.values().size(), full.size());
    for (size_t v = 0; v < full.size(); ++v) {
      ASSERT_EQ(session.values()[v], full[v])
          << "epoch " << e << " vertex " << v << " diverged (threads="
          << options.num_host_threads << ", expand="
          << core::ExpandBackendKindName(options.expand_backend) << ")";
    }
  }
}

core::EngineOptions Options(int threads, core::ExpandBackendKind backend) {
  core::EngineOptions opt = test::TestEngineOptions();
  opt.num_host_threads = threads;
  opt.expand_backend = backend;
  return opt;
}

constexpr core::ExpandBackendKind kBackends[] = {
    core::ExpandBackendKind::kScatter, core::ExpandBackendKind::kSpmv,
    core::ExpandBackendKind::kAuto};

// --- the determinism matrix: every algorithm, geometry, and backend ---
// (one message shard per thread; 3 threads cut an odd shard count)

TEST(IncrementalEqualsFullTest, BfsAcrossGeometryAndBackends) {
  const CsrGraph base = test::SocialGraph(8);
  BfsApp app;
  app.source = test::MaxDegreeSource(base);
  for (const int threads : {1, 2, 3, 4, 8}) {
    for (const auto backend : kBackends) {
      ExpectIncrementalEqualsFull(base, false, "rand:3x16", 21, app,
                                  Options(threads, backend));
    }
  }
}

TEST(IncrementalEqualsFullTest, SsspAcrossGeometryAndBackends) {
  const CsrGraph base = test::SocialGraph(8, 2, /*weighted=*/true);
  SsspApp app;
  app.source = test::MaxDegreeSource(base);
  for (const int threads : {1, 2, 3, 4, 8}) {
    for (const auto backend : kBackends) {
      ExpectIncrementalEqualsFull(base, false, "rand:3x16", 22, app,
                                  Options(threads, backend));
    }
  }
}

TEST(IncrementalEqualsFullTest, WccAcrossGeometryAndBackends) {
  const CsrGraph base = test::SocialGraphSym(8);
  WccApp app;
  for (const int threads : {1, 2, 3, 4, 8}) {
    for (const auto backend : kBackends) {
      ExpectIncrementalEqualsFull(base, /*symmetric=*/true, "rand:3x16", 23,
                                  app, Options(threads, backend));
    }
  }
}

TEST(IncrementalEqualsFullTest, PageRankAcrossGeometryAndBackends) {
  const CsrGraph base = test::SocialGraph(8);
  PageRankApp app;
  app.num_vertices = base.num_vertices();
  app.rounds = 10;
  for (const int threads : {1, 2, 3, 4, 8}) {
    for (const auto backend : kBackends) {
      ExpectIncrementalEqualsFull(base, false, "rand:3x16", 24, app,
                                  Options(threads, backend));
    }
  }
}

TEST(IncrementalEqualsFullTest, BatchSizeSweep) {
  // Batch size is the per-epoch event count; the contract holds from a
  // single event per epoch up to wide batches, insert-only and mixed.
  const CsrGraph base = test::SocialGraph(8);
  BfsApp app;
  app.source = test::MaxDegreeSource(base);
  for (const int per_epoch : {1, 4, 64, 256}) {
    for (const char* kind : {"rand", "rand-ins"}) {
      const std::string spec =
          std::string(kind) + ":2x" + std::to_string(per_epoch);
      ExpectIncrementalEqualsFull(
          base, false, spec, 31, app,
          Options(4, core::ExpandBackendKind::kScatter));
    }
  }
}

// --- planner soundness decisions ---

template <typename App>
struct SessionHarness {
  core::EpochedGraphContext ectx;
  IncrementalSession<App> session;
  MutationStream stream;

  SessionHarness(const CsrGraph& base, bool symmetric, const std::string& spec,
                 App app, int devices = 2)
      : ectx(base, test::MakePartition(base, devices), test::Topo(devices),
             test::TestEngineOptions(), symmetric) {
    auto plan = MutationPlan::Parse(spec);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    auto s = MutationStream::Create(*plan, base, 1);
    EXPECT_TRUE(s.ok()) << s.status().ToString();
    stream = std::move(*s);
    session.RunInitial(ectx.ctx(), app);
  }

  typename IncrementalSession<App>::EpochRunStats Advance(
      int epoch, const core::EngineOptions* run_options = nullptr) {
    const auto adv = ectx.AdvanceEpoch(stream.BatchAt(epoch), 0);
    return session.RunEpoch(ectx.ctx(), adv.effective, run_options);
  }

  void ExpectMatchesFull(App app) {
    core::GumEngine<App> engine(&ectx.ctx());
    std::vector<typename App::Value> full;
    engine.Run(app, &full);
    EXPECT_EQ(session.values(), full);
  }
};

TEST(EpochPlanTest, NoopBatchSkipsTheRunEntirely) {
  // Deleting an absent edge is a noop; the effective set is empty and the
  // warm values are already the epoch's fixed point.
  const CsrGraph base = MakeGraph(6, {{0, 1}, {1, 2}});
  BfsApp app;
  app.source = 0;
  SessionHarness<BfsApp> h(base, false, "del:3-4@1", app);
  const auto stats = h.Advance(1);
  EXPECT_EQ(stats.kind, EpochPlanKind::kSkip);
  EXPECT_EQ(h.session.skips(), 1);
  EXPECT_EQ(h.session.fallbacks(), 0);
  h.ExpectMatchesFull(app);
}

TEST(EpochPlanTest, TightDeleteFallsBackToCheckpointReplay) {
  // 0 -> 1 -> 2 -> 3 chain: edge (1, 2) is tight support of warm[2]
  // (warm[1] + 1 == warm[2]), so deleting it breaks monotonicity.
  const CsrGraph base = MakeGraph(6, {{0, 1}, {1, 2}, {2, 3}});
  BfsApp app;
  app.source = 0;
  SessionHarness<BfsApp> h(base, false, "del:1-2@1", app);
  const auto stats = h.Advance(1);
  EXPECT_EQ(stats.kind, EpochPlanKind::kFallback);
  EXPECT_EQ(h.session.fallbacks(), 1);
  EXPECT_GT(stats.restore_ms, 0.0);
  h.ExpectMatchesFull(app);
  // 2 and 3 lost their only path.
  EXPECT_EQ(h.session.values()[2], BfsApp::kUnreached);
  EXPECT_EQ(h.session.values()[3], BfsApp::kUnreached);
}

TEST(EpochPlanTest, SlackDeleteStaysIncremental) {
  // warm[2] == 1 via (0, 2); the deleted edge (1, 2) would relax to
  // warm[1] + 1 == 2 != 1, so it supports no shortest path.
  const CsrGraph base = MakeGraph(6, {{0, 1}, {0, 2}, {1, 2}});
  BfsApp app;
  app.source = 0;
  SessionHarness<BfsApp> h(base, false, "del:1-2@1", app);
  const auto stats = h.Advance(1);
  EXPECT_EQ(stats.kind, EpochPlanKind::kIncremental);
  EXPECT_EQ(stats.seed_count, 0u);
  EXPECT_EQ(h.session.fallbacks(), 0);
  h.ExpectMatchesFull(app);
}

TEST(EpochPlanTest, InsertFromUnreachedVertexSeedsNothing) {
  // (2, 3) hangs off an unreached component: no seed, yet the run is still
  // planned incremental (and trivially converges to the warm values).
  const CsrGraph base = MakeGraph(6, {{0, 1}});
  BfsApp app;
  app.source = 0;
  SessionHarness<BfsApp> h(base, false, "ins:2-3@1", app);
  const auto stats = h.Advance(1);
  EXPECT_EQ(stats.kind, EpochPlanKind::kIncremental);
  EXPECT_EQ(stats.seed_count, 0u);
  h.ExpectMatchesFull(app);
  EXPECT_EQ(h.session.values()[3], BfsApp::kUnreached);
}

TEST(EpochPlanTest, InsertChainCascadesThroughOneEpoch) {
  // Both inserts land in one batch; only 1 is reached when the epoch is
  // planned, but activating it cascades through the new (2, 3) edge too.
  const CsrGraph base = MakeGraph(6, {{0, 1}});
  BfsApp app;
  app.source = 0;
  SessionHarness<BfsApp> h(base, false, "ins:1-2@1;ins:2-3@1", app);
  const auto stats = h.Advance(1);
  EXPECT_EQ(stats.kind, EpochPlanKind::kIncremental);
  EXPECT_EQ(stats.seed_count, 1u);
  h.ExpectMatchesFull(app);
  EXPECT_EQ(h.session.values()[2], 2u);
  EXPECT_EQ(h.session.values()[3], 3u);
}

TEST(EpochPlanTest, SsspTightnessUsesEdgeWeights) {
  // (0, 1, w=5) is tight for warm[1] = 5. A slack parallel route via 2
  // keeps the delete of (2, 1) incremental; deleting (0, 1) falls back.
  const CsrGraph base =
      MakeGraph(4, {{0, 1, 5.0f}, {0, 2, 3.0f}, {2, 1, 4.0f}});
  SsspApp app;
  app.source = 0;
  {
    SessionHarness<SsspApp> h(base, false, "del:2-1@1", app);
    EXPECT_EQ(h.Advance(1).kind, EpochPlanKind::kIncremental);
    h.ExpectMatchesFull(app);
  }
  {
    SessionHarness<SsspApp> h(base, false, "del:0-1@1", app);
    EXPECT_EQ(h.Advance(1).kind, EpochPlanKind::kFallback);
    h.ExpectMatchesFull(app);
    EXPECT_FLOAT_EQ(h.session.values()[1], 7.0f);  // 0 -> 2 -> 1
  }
}

TEST(EpochPlanTest, WccInsertMergesComponentsIncrementally) {
  const CsrGraph base = MakeGraph(4, {{0, 1}, {2, 3}}, /*symmetrize=*/true);
  WccApp app;
  SessionHarness<WccApp> h(base, /*symmetric=*/true, "ins:1-2@1", app);
  const auto stats = h.Advance(1);
  EXPECT_EQ(stats.kind, EpochPlanKind::kIncremental);
  h.ExpectMatchesFull(app);
  EXPECT_EQ(h.session.values()[3], h.session.values()[0]);
}

TEST(EpochPlanTest, WccDeleteFallsBack) {
  const CsrGraph base = MakeGraph(4, {{0, 1}, {1, 2}}, /*symmetrize=*/true);
  WccApp app;
  SessionHarness<WccApp> h(base, /*symmetric=*/true, "del:1-2@1", app);
  EXPECT_EQ(h.Advance(1).kind, EpochPlanKind::kFallback);
  h.ExpectMatchesFull(app);
  // The split leaves 2 in its own component.
  EXPECT_NE(h.session.values()[2], h.session.values()[0]);
}

TEST(EpochPlanTest, PageRankFallsBackOnAnyEffectiveEvent) {
  const CsrGraph base = MakeGraph(4, {{0, 1}, {1, 2}, {2, 0}});
  PageRankApp app;
  app.num_vertices = base.num_vertices();
  app.rounds = 5;
  SessionHarness<PageRankApp> h(base, false, "ins:2-3@1", app);
  EXPECT_EQ(h.Advance(1).kind, EpochPlanKind::kFallback);
  EXPECT_EQ(h.session.fallbacks(), 1);
  h.ExpectMatchesFull(app);
}

// --- mutations x fault plane compose ---

TEST(MutationFaultComposeTest, FailStopMidEpochRecoversToMutatedResult) {
  // A device fail-stop inside an epoch's (fallback) replay must still land
  // on the mutated graph's exact result: recovery restores the last
  // checkpoint, migrates the lost fragment, and replays forward.
  const CsrGraph base = test::SocialGraph(8);
  BfsApp app;
  app.source = test::MaxDegreeSource(base);
  SessionHarness<BfsApp> h(base, false, "rand:2x32", app, /*devices=*/4);

  auto plan = fault::FaultPlan::Parse("failstop:1@2");
  ASSERT_TRUE(plan.ok());
  auto plane = fault::FaultPlane::Create(*plan, 4, /*seed=*/1);
  ASSERT_TRUE(plane.ok());
  core::EngineOptions faulted = test::TestEngineOptions();
  faulted.fault_plane = &*plane;
  faulted.checkpoint.every = 1;

  for (int e = 1; e <= h.stream.num_epochs(); ++e) {
    const auto stats = h.Advance(e, &faulted);
    // Fallback replays run long enough to hit the scheduled fail-stop;
    // short incremental epochs may converge before it fires.
    if (stats.kind == EpochPlanKind::kFallback) {
      EXPECT_GT(stats.result.faults.recovery_events, 0) << "epoch " << e;
    }
    h.ExpectMatchesFull(app);
  }
}

}  // namespace
}  // namespace gum::algos
