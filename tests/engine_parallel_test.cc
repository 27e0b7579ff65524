// Determinism contract of the superstep runtime (DESIGN.md): for every
// num_host_threads setting the engines must produce bit-identical vertex
// values AND bit-identical simulated statistics — total_ms, link_bytes,
// messages_sent, per-iteration timelines. The parallel path stages each
// work unit's messages privately, bins them by destination shard (one per
// thread), and replays every shard in canonical unit order, so nothing may
// depend on thread scheduling or the shard count.

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "algos/apps.h"
#include "algos/reference.h"
#include "baselines/gunrock.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "tests/test_util.h"

namespace gum::core {
namespace {

using algos::BfsApp;
using algos::PageRankApp;
using algos::SsspApp;
using graph::VertexId;
using test::MakePartition;
using test::SocialGraph;
using test::TestEngineOptions;
using test::Topo;

void ExpectTimelinesIdentical(const sim::Timeline& a,
                              const sim::Timeline& b) {
  ASSERT_EQ(a.num_iterations(), b.num_iterations());
  ASSERT_EQ(a.num_devices(), b.num_devices());
  for (int it = 0; it < a.num_iterations(); ++it) {
    for (int d = 0; d < a.num_devices(); ++d) {
      for (int c = 0; c < sim::kNumTimeCategories; ++c) {
        const auto cat = static_cast<sim::TimeCategory>(c);
        EXPECT_EQ(a.Get(it, d, cat), b.Get(it, d, cat))
            << "iter " << it << " device " << d << " category " << c;
      }
    }
  }
}

void ExpectResultsIdentical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.total_ms, b.total_ms);  // bit-identical, not just close
  EXPECT_EQ(a.edges_processed, b.edges_processed);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.stolen_edges_total, b.stolen_edges_total);
  EXPECT_EQ(a.fsteal_applied_iterations, b.fsteal_applied_iterations);
  EXPECT_EQ(a.osteal_shrink_events, b.osteal_shrink_events);
  EXPECT_EQ(a.link_bytes, b.link_bytes);
  ASSERT_EQ(a.iteration_stats.size(), b.iteration_stats.size());
  for (size_t i = 0; i < a.iteration_stats.size(); ++i) {
    EXPECT_EQ(a.iteration_stats[i].wall_ms, b.iteration_stats[i].wall_ms);
    EXPECT_EQ(a.iteration_stats[i].stolen_edges,
              b.iteration_stats[i].stolen_edges);
    EXPECT_EQ(a.iteration_stats[i].group_size,
              b.iteration_stats[i].group_size);
  }
  ExpectTimelinesIdentical(a.timeline, b.timeline);
}

template <typename App>
RunResult RunGumWithThreads(const graph::CsrGraph& g, App app, int threads,
                            std::vector<typename App::Value>* values) {
  auto opt = TestEngineOptions();
  opt.num_host_threads = threads;
  GumEngine<App> engine(&g, MakePartition(g, 4), Topo(4), opt);
  return engine.Run(app, values);
}

// The full determinism matrix: every thread count (3 cuts an odd shard
// count) must reproduce the serial single-shard run bit for bit.
template <typename App>
void ExpectGumDeterministic(const graph::CsrGraph& g, const App& app) {
  std::vector<typename App::Value> values1;
  const RunResult r1 = RunGumWithThreads(g, app, 1, &values1);
  for (const int threads : {2, 3, 4, 8}) {
    std::vector<typename App::Value> values_k;
    const RunResult rk = RunGumWithThreads(g, app, threads, &values_k);
    SCOPED_TRACE(testing::Message() << "num_host_threads=" << threads);
    EXPECT_EQ(values1, values_k);
    ExpectResultsIdentical(r1, rk);
  }
}

TEST(EngineParallelTest, ThreadPoolRunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  constexpr size_t kCount = 10000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.ParallelFor(kCount, [&](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
  // Reusable for a second, smaller launch.
  std::atomic<int> total{0};
  pool.ParallelFor(7, [&](size_t) { ++total; });
  EXPECT_EQ(total.load(), 7);
  pool.ParallelFor(0, [&](size_t) { FAIL() << "count 0 must not invoke"; });
}

TEST(EngineParallelTest, BfsBitIdenticalAcrossThreadCounts) {
  const auto g = SocialGraph(10, 7);
  BfsApp app;
  app.source = 1;
  ExpectGumDeterministic(g, app);
}

TEST(EngineParallelTest, SsspBitIdenticalAcrossThreadCounts) {
  const auto g = SocialGraph(10, 4, /*weighted=*/true);
  SsspApp app;
  app.source = 3;
  ExpectGumDeterministic(g, app);
}

TEST(EngineParallelTest, PageRankBitIdenticalAcrossThreadCounts) {
  // Fixed-rounds workload with a double-addition combiner: the merge order
  // of staged messages is the only thing standing between this test and
  // floating-point drift.
  const auto g = SocialGraph(9, 5);
  PageRankApp app;
  app.num_vertices = g.num_vertices();
  app.rounds = 12;
  ExpectGumDeterministic(g, app);
}

TEST(EngineParallelTest, WccBitIdenticalAcrossThreadCounts) {
  // All-active first iteration: every shard's merge and apply bins are
  // populated at once — the widest sharded-drain shape.
  const auto g = test::SocialGraphSym(9, 11);
  algos::WccApp app;
  ExpectGumDeterministic(g, app);
}

TEST(EngineParallelTest, ParallelRunStillMatchesReference) {
  const auto g = SocialGraph(10, 7);
  BfsApp app;
  app.source = 1;
  std::vector<uint32_t> depths;
  RunGumWithThreads(g, app, 8, &depths);
  EXPECT_EQ(depths, algos::ref::Bfs(g, 1));
}

TEST(EngineParallelTest, GunrockBitIdenticalAcrossThreadCounts) {
  const auto g = SocialGraph(10, 9);
  const auto part = MakePartition(g, 4);
  std::vector<uint32_t> values1;
  EngineOptions opt1 = baselines::GunrockEngineOptions();
  opt1.num_host_threads = 1;
  BfsApp app;
  app.source = 5;
  const RunResult r1 =
      GumEngine<BfsApp>(&g, part, Topo(4), opt1).Run(app, &values1);
  for (const int threads : {2, 3, 8}) {
    SCOPED_TRACE(testing::Message() << "num_host_threads=" << threads);
    EngineOptions optk = baselines::GunrockEngineOptions();
    optk.num_host_threads = threads;
    std::vector<uint32_t> values_k;
    app.source = 5;
    const RunResult rk =
        GumEngine<BfsApp>(&g, part, Topo(4), optk).Run(app, &values_k);
    EXPECT_EQ(values1, values_k);
    EXPECT_EQ(r1.iterations, rk.iterations);
    EXPECT_EQ(r1.total_ms, rk.total_ms);
    EXPECT_EQ(r1.edges_processed, rk.edges_processed);
    EXPECT_EQ(r1.messages_sent, rk.messages_sent);
    ExpectTimelinesIdentical(r1.timeline, rk.timeline);
  }
}

// Baseline equivalence: the Gunrock preset of the BSP engine still
// produces the results the seed baseline engine produced — correct vertex
// values against the references and the seed's accounting invariants
// (per-iteration p*n barrier on every device, boost factor on one GPU).
// The relational seed suite in baselines_test.cc runs unchanged on top of
// this.
TEST(EngineParallelTest, PortedGunrockReproducesSeedBehavior) {
  const auto g = SocialGraph(10, 4, /*weighted=*/true);
  SsspApp app;
  app.source = 3;
  std::vector<float> dist;
  const RunResult r = GumEngine<SsspApp>(&g, MakePartition(g, 4), Topo(4),
                                         baselines::GunrockEngineOptions())
                           .Run(app, &dist);
  const auto expected = algos::ref::Sssp(g, 3);
  ASSERT_EQ(dist.size(), expected.size());
  for (size_t v = 0; v < dist.size(); ++v) {
    EXPECT_EQ(dist[v], expected[v]) << "vertex " << v;
  }
  // Every device pays at least the p*n barrier in every iteration.
  const EngineOptions defaults = baselines::GunrockEngineOptions();
  const double barrier_ms =
      defaults.device.sync_per_peer_us * 4 / 1000.0;
  for (int it = 0; it < r.timeline.num_iterations(); ++it) {
    for (int d = 0; d < 4; ++d) {
      EXPECT_GE(r.timeline.Get(it, d, sim::TimeCategory::kOverhead),
                barrier_ms * (1.0 - 1e-12));
    }
  }
}

}  // namespace
}  // namespace gum::core
