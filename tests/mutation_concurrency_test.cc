// Mutation-plane concurrency cases for the ThreadSanitizer job: the
// epoch barrier (delta apply + context rebuild) interleaved with warm
// incremental runs on multi-threaded, multi-shard engine geometry — the
// pool-thread race surface TSan watches. Small matrices; the exhaustive
// incremental-equals-full sweep lives in incremental_test.cc.

#include <gtest/gtest.h>

#include <vector>

#include "algos/apps.h"
#include "algos/incremental.h"
#include "core/engine.h"
#include "core/epoch_context.h"
#include "graph/mutation.h"
#include "tests/test_util.h"

namespace gum::algos {
namespace {

TEST(MutationConcurrencyTest, EpochedBfsUnderThreadsAndShards) {
  const graph::CsrGraph base = test::SocialGraph(8);
  auto plan = graph::MutationPlan::Parse("rand:2x32");
  ASSERT_TRUE(plan.ok());
  auto stream = graph::MutationStream::Create(*plan, base, 17);
  ASSERT_TRUE(stream.ok());

  core::EngineOptions options = test::TestEngineOptions();
  options.num_host_threads = 4;
  core::EpochedGraphContext ectx(base, test::MakePartition(base, 4),
                                 test::Topo(4), options,
                                 /*symmetric=*/false);
  BfsApp app;
  app.source = test::MaxDegreeSource(base);
  IncrementalSession<BfsApp> session;
  session.RunInitial(ectx.ctx(), app);

  for (int e = 1; e <= stream->num_epochs(); ++e) {
    const auto adv = ectx.AdvanceEpoch(stream->BatchAt(e),
                                       /*compact_every=*/1);
    session.RunEpoch(ectx.ctx(), adv.effective);

    BfsApp fresh = app;
    core::GumEngine<BfsApp> engine(&ectx.ctx());
    std::vector<BfsApp::Value> full;
    engine.Run(fresh, &full);
    EXPECT_EQ(session.values(), full) << "epoch " << e;
  }
}

TEST(MutationConcurrencyTest, EpochedPageRankSpmvUnderThreads) {
  const graph::CsrGraph base = test::SocialGraph(8);
  auto plan = graph::MutationPlan::Parse("rand-ins:2x32");
  ASSERT_TRUE(plan.ok());
  auto stream = graph::MutationStream::Create(*plan, base, 19);
  ASSERT_TRUE(stream.ok());

  core::EngineOptions options = test::TestEngineOptions();
  options.num_host_threads = 4;
  options.expand_backend = core::ExpandBackendKind::kSpmv;
  core::EpochedGraphContext ectx(base, test::MakePartition(base, 4),
                                 test::Topo(4), options,
                                 /*symmetric=*/false);
  PageRankApp app;
  app.num_vertices = base.num_vertices();
  app.rounds = 5;
  IncrementalSession<PageRankApp> session;
  session.RunInitial(ectx.ctx(), app);

  for (int e = 1; e <= stream->num_epochs(); ++e) {
    const auto adv = ectx.AdvanceEpoch(stream->BatchAt(e),
                                       /*compact_every=*/0);
    session.RunEpoch(ectx.ctx(), adv.effective);

    PageRankApp fresh = app;
    core::GumEngine<PageRankApp> engine(&ectx.ctx());
    std::vector<PageRankApp::Value> full;
    engine.Run(fresh, &full);
    EXPECT_EQ(session.values(), full) << "epoch " << e;
  }
}

}  // namespace
}  // namespace gum::algos
