// Serving-plane tests (DESIGN.md §13): QueryQueue batching semantics,
// latency statistics, and ServeSession end-to-end — batched waves must
// return byte-identical per-query values to the sequential stream while
// beating its makespan, stay deterministic across engine geometry, and
// compose with the fault plane so a mid-batch device loss replays only the
// affected batch.

#include <gtest/gtest.h>

#include <vector>

#include "core/graph_context.h"
#include "fault/fault_plane.h"
#include "serve/query.h"
#include "serve/query_queue.h"
#include "serve/serve_stats.h"
#include "serve/serving.h"
#include "tests/test_util.h"

namespace gum::serve {
namespace {

using graph::VertexId;

Query Q(int id, QueryKind kind, VertexId source) {
  Query q;
  q.id = id;
  q.kind = kind;
  q.source = source;
  return q;
}

TEST(QueryQueueTest, BatchesFifoUpToWidth) {
  QueryQueue queue;
  for (int i = 0; i < 5; ++i) queue.Admit(Q(i, QueryKind::kBfs, i));
  const auto b1 = queue.NextBatch(3);
  ASSERT_EQ(b1.size(), 3u);
  EXPECT_EQ(b1[0].id, 0);
  EXPECT_EQ(b1[1].id, 1);
  EXPECT_EQ(b1[2].id, 2);
  const auto b2 = queue.NextBatch(3);
  ASSERT_EQ(b2.size(), 2u);
  EXPECT_EQ(b2[0].id, 3);
  EXPECT_EQ(b2[1].id, 4);
  EXPECT_TRUE(queue.empty());
}

TEST(QueryQueueTest, SkipsIncompatibleKindsPreservingOrder) {
  QueryQueue queue;
  queue.Admit(Q(0, QueryKind::kBfs, 0));
  queue.Admit(Q(1, QueryKind::kSssp, 1));
  queue.Admit(Q(2, QueryKind::kBfs, 2));
  queue.Admit(Q(3, QueryKind::kSssp, 3));

  // Head fixes the kind; the SSSP queries are skipped but keep order.
  const auto b1 = queue.NextBatch(64);
  ASSERT_EQ(b1.size(), 2u);
  EXPECT_EQ(b1[0].id, 0);
  EXPECT_EQ(b1[1].id, 2);
  const auto b2 = queue.NextBatch(64);
  ASSERT_EQ(b2.size(), 2u);
  EXPECT_EQ(b2[0].id, 1);
  EXPECT_EQ(b2[1].id, 3);
}

TEST(QueryQueueTest, EveryCallRemovesAtLeastTheHead) {
  // Starvation-freedom: even with width clamped to 1, the queue drains.
  QueryQueue queue;
  for (int i = 0; i < 4; ++i) {
    queue.Admit(Q(i, i % 2 ? QueryKind::kSssp : QueryKind::kBfs, i));
  }
  int drained = 0;
  while (!queue.empty()) {
    const auto b = queue.NextBatch(0);  // clamps to width 1
    ASSERT_EQ(b.size(), 1u);
    EXPECT_EQ(b[0].id, drained);  // strict FIFO at width 1
    ++drained;
  }
  EXPECT_EQ(drained, 4);
}

TEST(QueryQueueTest, EmptyQueueYieldsEmptyBatch) {
  QueryQueue queue;
  EXPECT_TRUE(queue.NextBatch(8).empty());
}

TEST(ServeStatsTest, NearestRankPercentiles) {
  ServeStats stats;
  for (int i = 1; i <= 10; ++i) {
    QueryResult qr;
    qr.id = i;
    qr.latency_ms = static_cast<double>(i);  // 1..10, already what sort gives
    stats.query_results.push_back(qr);
  }
  EXPECT_DOUBLE_EQ(stats.LatencyPercentile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(stats.LatencyPercentile(0.9), 9.0);
  EXPECT_DOUBLE_EQ(stats.LatencyPercentile(0.99), 10.0);
  EXPECT_DOUBLE_EQ(stats.LatencyPercentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(stats.LatencyPercentile(1.0), 10.0);
}

// --- end-to-end session fixtures -----------------------------------------

std::vector<Query> BfsStream(const graph::CsrGraph& g, int count) {
  std::vector<Query> qs;
  for (int i = 0; i < count; ++i) {
    qs.push_back(Q(i, QueryKind::kBfs,
                   static_cast<VertexId>((static_cast<uint64_t>(i) * 211 + 3) %
                                         g.num_vertices())));
  }
  return qs;
}

core::EngineOptions ServeTestOptions(int threads = 2) {
  core::EngineOptions opt = test::TestEngineOptions();
  opt.num_host_threads = threads;
  return opt;
}

ServeOutcome<uint32_t> ServeBfsStream(const core::GraphContext& ctx,
                                      const std::vector<Query>& stream,
                                      const ServeOptions& opts) {
  QueryQueue queue;
  for (const Query& q : stream) queue.Admit(q);
  ServeSession<BfsServeTraits> session(&ctx);
  return session.ServeAll(queue, opts);
}

TEST(ServeSessionTest, BatchedMatchesSequentialAndBeatsItsMakespan) {
  const auto g = test::SocialGraph(10, 2);
  const auto part = test::MakePartition(g, 4);
  const core::GraphContext ctx(&g, part, test::Topo(4), ServeTestOptions());
  const auto stream = BfsStream(g, 24);

  ServeOptions sequential;
  sequential.batch_width = 1;
  const auto seq = ServeBfsStream(ctx, stream, sequential);
  ASSERT_EQ(seq.stats.queries, 24);
  EXPECT_EQ(seq.stats.batches, 24);

  ServeOptions batched;
  batched.batch_width = 8;
  const auto bat = ServeBfsStream(ctx, stream, batched);
  ASSERT_EQ(bat.stats.queries, 24);
  EXPECT_EQ(bat.stats.batches, 3);

  // Results are keyed by query id in both service orders; here both are
  // FIFO over a single-kind stream, so index i is query i in each.
  ASSERT_EQ(seq.values.size(), bat.values.size());
  for (size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(seq.stats.query_results[i].id, bat.stats.query_results[i].id);
    ASSERT_EQ(bat.values[i], seq.values[i]) << "query " << i;
  }

  // The whole point of batching: one wave amortises the superstep
  // machinery over 8 queries.
  EXPECT_LT(bat.stats.makespan_ms, seq.stats.makespan_ms);
  // Latencies are the simulated makespan through each query's own batch —
  // monotone within the stream, final one equal to the makespan.
  EXPECT_DOUBLE_EQ(bat.stats.query_results.back().latency_ms,
                   bat.stats.makespan_ms);
  EXPECT_GT(bat.stats.QueriesPerSecond(), seq.stats.QueriesPerSecond());
}

TEST(ServeSessionTest, StreamIsDeterministicAcrossGeometry) {
  const auto g = test::SocialGraph(10, 2);
  const auto part = test::MakePartition(g, 4);
  const auto stream = BfsStream(g, 16);
  ServeOptions opts;
  opts.batch_width = 8;

  const core::GraphContext ref_ctx(&g, part, test::Topo(4),
                                   ServeTestOptions(1));
  const auto ref = ServeBfsStream(ref_ctx, stream, opts);

  // One message shard per thread: 3 threads cut an odd shard count.
  for (const int threads : {2, 3, 4, 8}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    const core::GraphContext ctx(&g, part, test::Topo(4),
                                 ServeTestOptions(threads));
    const auto got = ServeBfsStream(ctx, stream, opts);
    EXPECT_DOUBLE_EQ(got.stats.makespan_ms, ref.stats.makespan_ms);
    ASSERT_EQ(got.values.size(), ref.values.size());
    for (size_t i = 0; i < ref.values.size(); ++i) {
      ASSERT_EQ(got.values[i], ref.values[i]) << "query " << i;
    }
  }
}

TEST(ServeSessionTest, FaultOnOneBatchReplaysOnlyThatBatch) {
  const auto g = test::SocialGraph(10, 2);
  const auto part = test::MakePartition(g, 4);
  const core::GraphContext ctx(&g, part, test::Topo(4), ServeTestOptions());
  const auto stream = BfsStream(g, 24);

  ServeOptions clean_opts;
  clean_opts.batch_width = 8;
  const auto clean = ServeBfsStream(ctx, stream, clean_opts);
  ASSERT_EQ(clean.stats.batches, 3);
  ASSERT_GT(clean.stats.batch_stats[1].iterations, 2)
      << "batch 1 must run long enough for an iteration-2 fail-stop";

  auto plan = fault::FaultPlan::Parse("failstop:1@2");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto plane = fault::FaultPlane::Create(*plan, 4);
  ASSERT_TRUE(plane.ok()) << plane.status().ToString();

  ServeOptions faulted_opts = clean_opts;
  faulted_opts.fault_batch = 1;
  faulted_opts.fault_plane = &*plane;
  faulted_opts.ckpt_every = 1;
  const auto faulted = ServeBfsStream(ctx, stream, faulted_opts);

  // Every per-query result — including the replayed batch's — is
  // byte-identical to the fault-free stream.
  ASSERT_EQ(faulted.values.size(), clean.values.size());
  for (size_t i = 0; i < clean.values.size(); ++i) {
    ASSERT_EQ(faulted.values[i], clean.values[i]) << "query " << i;
  }

  // Only batch 1 pays: recovery charged there and nowhere else, and the
  // surrounding batches' simulated wall times are untouched.
  EXPECT_GT(faulted.stats.batch_stats[1].recovery_ms, 0.0);
  EXPECT_DOUBLE_EQ(faulted.stats.batch_stats[0].recovery_ms, 0.0);
  EXPECT_DOUBLE_EQ(faulted.stats.batch_stats[2].recovery_ms, 0.0);
  EXPECT_DOUBLE_EQ(faulted.stats.batch_stats[0].wall_ms,
                   clean.stats.batch_stats[0].wall_ms);
  EXPECT_DOUBLE_EQ(faulted.stats.batch_stats[2].wall_ms,
                   clean.stats.batch_stats[2].wall_ms);
  EXPECT_GT(faulted.stats.batch_stats[1].wall_ms,
            clean.stats.batch_stats[1].wall_ms);
  EXPECT_GT(faulted.stats.recovery_ms, 0.0);
  EXPECT_GT(faulted.stats.makespan_ms, clean.stats.makespan_ms);
}

TEST(ServeSessionTest, SsspSessionServesWeightedStream) {
  const auto g = test::SocialGraph(9, 3, /*weighted=*/true);
  const auto part = test::MakePartition(g, 4);
  const core::GraphContext ctx(&g, part, test::Topo(4), ServeTestOptions());

  QueryQueue queue;
  for (int i = 0; i < 6; ++i) {
    queue.Admit(Q(i, QueryKind::kSssp,
                  static_cast<VertexId>((i * 97 + 11) % g.num_vertices())));
  }
  ServeOptions opts;
  opts.batch_width = 4;
  ServeSession<SsspServeTraits> session(&ctx);
  const auto out = session.ServeAll(queue, opts);
  EXPECT_EQ(out.stats.queries, 6);
  EXPECT_EQ(out.stats.batches, 2);
  ASSERT_EQ(out.values.size(), 6u);

  // Each query's lane reaches its own source at distance 0.
  for (size_t i = 0; i < out.values.size(); ++i) {
    const VertexId src = static_cast<VertexId>((i * 97 + 11) %
                                               g.num_vertices());
    EXPECT_EQ(out.values[i][src], 0.0f) << "query " << i;
  }
}

}  // namespace
}  // namespace gum::serve
