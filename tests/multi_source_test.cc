// Determinism tests for bit-parallel multi-source batching
// (algos/multi_source.h, DESIGN.md §13): every lane of a batched BFS/SSSP
// wave must be byte-identical to the sequential single-source run — for
// every host thread count and expand backend — and reusing
// one RunContext across runs must change nothing.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "algos/apps.h"
#include "algos/multi_source.h"
#include "core/engine.h"
#include "core/graph_context.h"
#include "core/run_context.h"
#include "tests/test_util.h"

namespace gum {
namespace {

using core::ExpandBackendKind;
using graph::VertexId;

// A deterministic spread of batch sources, including one duplicate pair.
std::vector<VertexId> BatchSources(const graph::CsrGraph& g, int count) {
  std::vector<VertexId> sources;
  for (int i = 0; i < count; ++i) {
    sources.push_back(
        static_cast<VertexId>((static_cast<uint64_t>(i) * 131 + 7) %
                              g.num_vertices()));
  }
  if (count >= 2) sources[count - 1] = sources[0];  // duplicate lanes
  return sources;
}

core::EngineOptions Options(ExpandBackendKind backend, int threads) {
  core::EngineOptions opt = test::TestEngineOptions();
  opt.expand_backend = backend;
  opt.num_host_threads = threads;
  return opt;
}

template <typename App, typename Value = typename App::Value>
std::vector<Value> RunOnce(const graph::CsrGraph& g,
                           const graph::Partition& partition,
                           const core::EngineOptions& options, App app) {
  core::GumEngine<App> engine(&g, partition, test::Topo(partition.num_parts),
                              options);
  std::vector<Value> values;
  engine.Run(app, &values);
  return values;
}

struct BfsCase {
  using SingleApp = algos::BfsApp;
  using BatchApp = algos::MultiSourceBfsApp;
  static graph::CsrGraph Graph() { return test::SocialGraph(10, 2); }
  static SingleApp Single(VertexId s) {
    SingleApp app;
    app.source = s;
    return app;
  }
  static std::vector<uint32_t> Lane(
      const std::vector<BatchApp::Value>& vals, int lane) {
    return algos::ExtractBfsLane(vals, lane);
  }
};

struct SsspCase {
  using SingleApp = algos::SsspApp;
  using BatchApp = algos::MultiSourceSsspApp;
  static graph::CsrGraph Graph() {
    return test::SocialGraph(10, 2, /*weighted=*/true);
  }
  static SingleApp Single(VertexId s) {
    SingleApp app;
    app.source = s;
    return app;
  }
  static std::vector<float> Lane(const std::vector<BatchApp::Value>& vals,
                                 int lane) {
    return algos::ExtractSsspLane(vals, lane);
  }
};

template <typename Case>
void CheckBatchedMatchesSequential(int batch_size) {
  const graph::CsrGraph g = Case::Graph();
  const graph::Partition partition = test::MakePartition(g, 4);
  const std::vector<VertexId> sources = BatchSources(g, batch_size);

  // Sequential reference: one single-source run per lane, default
  // (scatter, serial) configuration.
  using SingleValue = typename Case::SingleApp::Value;
  std::vector<std::vector<SingleValue>> reference;
  for (const VertexId s : sources) {
    reference.push_back(RunOnce(
        g, partition, Options(ExpandBackendKind::kScatter, 1),
        Case::Single(s)));
  }

  for (const ExpandBackendKind backend :
       {ExpandBackendKind::kScatter, ExpandBackendKind::kSpmv,
        ExpandBackendKind::kAuto}) {
    // One message shard per thread: 3 threads cut an odd shard count.
    for (const int threads : {1, 2, 3, 4, 8}) {
      SCOPED_TRACE(testing::Message()
                   << "backend=" << static_cast<int>(backend)
                   << " threads=" << threads);
      const auto batched = RunOnce(g, partition, Options(backend, threads),
                                   typename Case::BatchApp(sources));
      for (size_t lane = 0; lane < sources.size(); ++lane) {
        // Byte-identical per lane, not approximately equal.
        ASSERT_EQ(Case::Lane(batched, static_cast<int>(lane)),
                  reference[lane])
            << "lane " << lane << " (source " << sources[lane] << ")";
      }
    }
  }
}

TEST(MultiSourceBfsTest, FullWidthBatchMatchesSequentialEverywhere) {
  CheckBatchedMatchesSequential<BfsCase>(algos::kMaxBatchLanes);
}

TEST(MultiSourceBfsTest, PartialBatchMatchesSequential) {
  CheckBatchedMatchesSequential<BfsCase>(5);
}

TEST(MultiSourceSsspTest, FullWidthBatchMatchesSequentialEverywhere) {
  CheckBatchedMatchesSequential<SsspCase>(algos::kMaxBatchLanes);
}

TEST(MultiSourceSsspTest, PartialBatchMatchesSequential) {
  CheckBatchedMatchesSequential<SsspCase>(3);
}

TEST(MultiSourceBfsTest, SingleLaneBatchMatchesPlainBfs) {
  const graph::CsrGraph g = test::SocialGraph(9, 5);
  const graph::Partition partition = test::MakePartition(g, 2);
  const VertexId s = test::MaxDegreeSource(g);
  const auto ref = RunOnce(g, partition,
                           Options(ExpandBackendKind::kScatter, 2),
                           BfsCase::Single(s));
  const auto batched =
      RunOnce(g, partition, Options(ExpandBackendKind::kScatter, 2),
              algos::MultiSourceBfsApp({s}));
  EXPECT_EQ(algos::ExtractBfsLane(batched, 0), ref);
}

// RunContext reuse across runs (the serving fast path) must be invisible
// in the results: run A, then B, then A again in one context — the two A
// runs and a fresh-context A run all agree bit for bit.
TEST(MultiSourceTest, RunContextReuseIsByteIdentical) {
  const graph::CsrGraph g = test::SocialGraph(10, 2);
  const graph::Partition partition = test::MakePartition(g, 4);
  const core::GraphContext ctx(&g, partition, test::Topo(4),
                               Options(ExpandBackendKind::kAuto, 4));
  core::GumEngine<algos::MultiSourceBfsApp> engine(&ctx);
  core::RunContext<algos::MultiSourceBfsApp> rc;

  const std::vector<VertexId> batch_a = BatchSources(g, 16);
  std::vector<VertexId> batch_b = BatchSources(g, 64);
  for (VertexId& v : batch_b) v = (v + 13) % g.num_vertices();

  algos::MultiSourceBfsApp app_a1(batch_a);
  const auto res_a1 = engine.Run(app_a1, rc);
  const auto vals_a1 = rc.state.values;

  algos::MultiSourceBfsApp app_b(batch_b);
  engine.Run(app_b, rc);

  algos::MultiSourceBfsApp app_a2(batch_a);
  const auto res_a2 = engine.Run(app_a2, rc);
  EXPECT_EQ(rc.state.values.size(), vals_a1.size());
  for (size_t lane = 0; lane < batch_a.size(); ++lane) {
    ASSERT_EQ(algos::ExtractBfsLane(rc.state.values, static_cast<int>(lane)),
              algos::ExtractBfsLane(vals_a1, static_cast<int>(lane)))
        << "lane " << lane;
  }
  EXPECT_EQ(res_a2.iterations, res_a1.iterations);
  EXPECT_EQ(res_a2.total_ms, res_a1.total_ms);

  // A fresh RunContext (the legacy overload) agrees too.
  algos::MultiSourceBfsApp app_a3(batch_a);
  std::vector<algos::MultiSourceBfsApp::Value> fresh;
  engine.Run(app_a3, &fresh);
  for (size_t lane = 0; lane < batch_a.size(); ++lane) {
    ASSERT_EQ(algos::ExtractBfsLane(fresh, static_cast<int>(lane)),
              algos::ExtractBfsLane(vals_a1, static_cast<int>(lane)));
  }
}

// Engines of different App types sharing one GraphContext: the context's
// immutable substrate (shard map, schedule, pull edges) serves both.
TEST(MultiSourceTest, SharedContextServesSingleAndBatchedEngines) {
  const graph::CsrGraph g = test::SocialGraph(10, 2);
  const graph::Partition partition = test::MakePartition(g, 4);
  const core::GraphContext ctx(&g, partition, test::Topo(4),
                               Options(ExpandBackendKind::kScatter, 2));

  const VertexId s = test::MaxDegreeSource(g);
  core::GumEngine<algos::BfsApp> single(&ctx);
  std::vector<uint32_t> single_vals;
  algos::BfsApp app = BfsCase::Single(s);
  single.Run(app, &single_vals);

  core::GumEngine<algos::MultiSourceBfsApp> batched(&ctx);
  std::vector<algos::MultiSourceBfsApp::Value> batch_vals;
  algos::MultiSourceBfsApp bapp({s, (s + 1) % g.num_vertices()});
  batched.Run(bapp, &batch_vals);

  EXPECT_EQ(algos::ExtractBfsLane(batch_vals, 0), single_vals);

  // And the legacy-constructed engine (owning its context) agrees.
  const auto legacy = RunOnce(g, partition,
                              Options(ExpandBackendKind::kScatter, 2),
                              BfsCase::Single(s));
  EXPECT_EQ(legacy, single_vals);
}

}  // namespace
}  // namespace gum
