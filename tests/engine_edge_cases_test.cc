// Edge cases and less-traveled engine paths: degenerate graphs, message
// filtering, iteration caps, determinism of the learned-model pipeline, and
// the one check of a run's options (ValidateRunOptions).

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>

#include "algos/apps.h"
#include "algos/reference.h"
#include "baselines/groute.h"
#include "baselines/gunrock.h"
#include "core/engine.h"
#include "fault/fault_plane.h"
#include "ml/dataset.h"
#include "ml/polynomial_regression.h"
#include "tests/test_util.h"

namespace gum::core {
namespace {

using algos::BfsApp;
using algos::DeltaPageRankApp;
using algos::PageRankApp;
using graph::VertexId;
using test::MakePartition;
using test::SocialGraph;
using test::TestEngineOptions;
using test::Topo;

TEST(EngineEdgeCaseTest, EdgelessGraph) {
  graph::EdgeList list;
  list.num_vertices = 16;  // no edges at all
  auto g = graph::CsrGraph::FromEdgeList(list);
  ASSERT_TRUE(g.ok());
  GumEngine<BfsApp> engine(&*g, MakePartition(*g, 4), Topo(4),
                           TestEngineOptions());
  BfsApp app;
  app.source = 5;
  std::vector<uint32_t> depths;
  const RunResult result = engine.Run(app, &depths);
  EXPECT_LE(result.iterations, 1);
  EXPECT_EQ(depths[5], 0u);
  for (VertexId v = 0; v < 16; ++v) {
    if (v != 5) {
      EXPECT_EQ(depths[v], BfsApp::kUnreached);
    }
  }
}

TEST(EngineEdgeCaseTest, TwoVertexGraph) {
  graph::EdgeList list;
  list.num_vertices = 2;
  list.edges = {{0, 1, 3.0f}};
  auto g = graph::CsrGraph::FromEdgeList(list);
  ASSERT_TRUE(g.ok());
  GumEngine<algos::SsspApp> engine(&*g, MakePartition(*g, 2), Topo(2),
                                   TestEngineOptions());
  algos::SsspApp app;
  app.source = 0;
  std::vector<float> dist;
  engine.Run(app, &dist);
  EXPECT_EQ(dist[0], 0.0f);
  EXPECT_EQ(dist[1], 3.0f);
}

TEST(EngineEdgeCaseTest, MaxIterationsCapsRun) {
  const auto g = SocialGraph(9, 71);
  auto opt = TestEngineOptions();
  opt.max_iterations = 2;
  GumEngine<PageRankApp> engine(&g, MakePartition(g, 2), Topo(2), opt);
  PageRankApp app;
  app.num_vertices = g.num_vertices();
  app.rounds = 50;  // more than the cap allows
  const RunResult result = engine.Run(app);
  EXPECT_EQ(result.iterations, 2);
}

// An app whose Scatter suppresses edges into odd-numbered vertices: checks
// that nullopt messages are honored everywhere.
struct EvenOnlyBfs : algos::BfsApp {
  std::optional<Message> Scatter(const Message& payload, VertexId dst,
                                 float) const {
    if (dst % 2 == 1) return std::nullopt;
    return payload + 1;
  }
};

TEST(EngineEdgeCaseTest, ScatterFilteringRespected) {
  const auto g = SocialGraph(9, 72);
  GumEngine<EvenOnlyBfs> engine(&g, MakePartition(g, 4), Topo(4),
                                TestEngineOptions());
  EvenOnlyBfs app;
  app.source = test::MaxDegreeSource(g);
  std::vector<uint32_t> depths;
  engine.Run(app, &depths);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (v % 2 == 1 && v != app.source) {
      EXPECT_EQ(depths[v], algos::BfsApp::kUnreached)
          << "odd vertex " << v << " must stay unreached";
    }
  }
  // And even vertices match a reference BFS over the filtered graph.
  graph::EdgeList filtered;
  filtered.num_vertices = g.num_vertices();
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v : g.OutNeighbors(u)) {
      if (v % 2 == 0) filtered.edges.push_back({u, v, 1.0f});
    }
  }
  auto fg = graph::CsrGraph::FromEdgeList(filtered);
  ASSERT_TRUE(fg.ok());
  const auto expected = algos::ref::Bfs(*fg, app.source);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (v % 2 == 0 || v == app.source) {
      EXPECT_EQ(depths[v], expected[v]);
    }
  }
}

TEST(EngineEdgeCaseTest, DeltaPrZeroDampingConvergesInstantly) {
  const auto g = SocialGraph(8, 73);
  GumEngine<DeltaPageRankApp> engine(&g, MakePartition(g, 2), Topo(2),
                                     TestEngineOptions());
  DeltaPageRankApp app;
  app.num_vertices = g.num_vertices();
  app.damping = 0.0;  // no propagation: ranks = (1-d)/N after one pass
  std::vector<DeltaPageRankApp::State> state;
  const RunResult result = engine.Run(app, &state);
  EXPECT_LE(result.iterations, 2);
  for (const auto& s : state) {
    EXPECT_NEAR(s.rank, 1.0 / g.num_vertices(), 1e-12);
  }
}


TEST(EngineEdgeCaseTest, OnlinePEstimationMatchesOracleDecisions) {
  // Eq. (4)'s p is estimated from observed iterations; even with a wildly
  // wrong prior the estimator must converge and produce the same OSteal
  // trajectory as the oracle engine on a long-tail workload.
  const auto g = test::RoadGraph(24, 77);
  const auto part = MakePartition(g, 8);
  algos::SsspApp app;

  auto oracle = TestEngineOptions();
  oracle.estimate_sync_online = false;
  auto estimated = TestEngineOptions();
  estimated.estimate_sync_online = true;
  estimated.sync_prior_us = 2000.0;  // 18x too high

  app.source = 0;
  const RunResult r_oracle =
      GumEngine<algos::SsspApp>(&g, part, Topo(8), oracle).Run(app);
  app.source = 0;
  const RunResult r_est =
      GumEngine<algos::SsspApp>(&g, part, Topo(8), estimated).Run(app);

  // Both engage OSteal, and the estimated run lands within 40% of the
  // oracle's end-to-end time despite the bad prior.
  EXPECT_GT(r_oracle.osteal_shrink_events, 0);
  EXPECT_GT(r_est.osteal_shrink_events, 0);
  EXPECT_LT(r_est.total_ms, 1.4 * r_oracle.total_ms);
  EXPECT_GT(r_est.total_ms, 0.6 * r_oracle.total_ms);
}

TEST(EngineEdgeCaseTest, RecordIterationStatsOffSavesMemory) {
  const auto g = SocialGraph(9, 74);
  auto opt = TestEngineOptions();
  opt.record_iteration_stats = false;
  GumEngine<BfsApp> engine(&g, MakePartition(g, 2), Topo(2), opt);
  BfsApp app;
  app.source = 1;
  const RunResult result = engine.Run(app);
  EXPECT_TRUE(result.iteration_stats.empty());
  EXPECT_GT(result.iterations, 0);
}

TEST(EngineEdgeCaseTest, LearnedModelPipelineDeterministic) {
  ml::CostDatasetOptions data_opt;
  data_opt.frontiers_per_graph = 40;
  const ml::Dataset data = ml::GenerateDefaultCostDataset(data_opt);
  ml::PolynomialRegression m1(3), m2(3);
  ASSERT_TRUE(m1.Fit(data).ok());
  ASSERT_TRUE(m2.Fit(data).ok());
  const std::vector<double> probe = {8.0, 9.0, 100.0, 120.0, 0.4, 0.8};
  EXPECT_DOUBLE_EQ(m1.Predict(probe), m2.Predict(probe));

  const auto g = SocialGraph(9, 75, /*weighted=*/true);
  auto opt = TestEngineOptions();
  algos::SsspApp app;
  std::vector<float> d1, d2;
  app.source = 4;
  const RunResult r1 =
      GumEngine<algos::SsspApp>(&g, MakePartition(g, 4), Topo(4), opt, &m1)
          .Run(app, &d1);
  app.source = 4;
  const RunResult r2 =
      GumEngine<algos::SsspApp>(&g, MakePartition(g, 4), Topo(4), opt, &m2)
          .Run(app, &d2);
  EXPECT_EQ(d1, d2);
  EXPECT_DOUBLE_EQ(r1.total_ms, r2.total_ms);
}

// ---------- ValidateRunOptions: one case per rule ----------

fault::FaultPlane FailStopPlane(int num_devices) {
  auto plan = fault::FaultPlan::Parse("failstop:1@2");
  EXPECT_TRUE(plan.ok());
  auto plane = fault::FaultPlane::Create(*plan, num_devices);
  EXPECT_TRUE(plane.ok());
  return std::move(plane).value();
}

EngineOptions AsyncRunOptions() {
  EngineOptions opt;
  opt.mode = EngineMode::kAsync;
  return opt;
}

// An async-capable data-driven app (SSSP, BFS, ...) on 4 devices.
Status ValidateDataDriven(const EngineOptions& opt) {
  return ValidateRunOptions(opt, 4, /*fixed_round_app=*/false,
                            /*async_capable_app=*/true);
}

void ExpectRejected(const Status& status, const std::string& needle) {
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_NE(status.message().find(needle), std::string::npos)
      << status.message();
}

TEST(ValidateRunOptionsTest, DefaultsAndPresetsPass) {
  EXPECT_TRUE(ValidateDataDriven(EngineOptions{}).ok());
  EXPECT_TRUE(ValidateDataDriven(AsyncRunOptions()).ok());
  EXPECT_TRUE(ValidateDataDriven(baselines::GunrockEngineOptions()).ok());
  EXPECT_TRUE(ValidateDataDriven(baselines::GrouteEngineOptions()).ok());
  // Fixed-round and BSP-only apps run on every BSP engine.
  EXPECT_TRUE(ValidateRunOptions(baselines::GunrockEngineOptions(), 4,
                                 /*fixed_round_app=*/true,
                                 /*async_capable_app=*/false)
                  .ok());
  // An empty fault plan is inert whatever it was bound to.
  const fault::FaultPlane empty;
  EngineOptions opt;
  opt.fault_plane = &empty;
  EXPECT_TRUE(ValidateDataDriven(opt).ok());
}

TEST(ValidateRunOptionsTest, AsyncRejectsActiveFaultPlane) {
  const fault::FaultPlane plane = FailStopPlane(4);
  EngineOptions opt = AsyncRunOptions();
  opt.fault_plane = &plane;
  ExpectRejected(ValidateDataDriven(opt), "fault plane");
}

TEST(ValidateRunOptionsTest, AsyncRejectsCheckpoints) {
  EngineOptions opt = AsyncRunOptions();
  opt.checkpoint.every = 4;
  ExpectRejected(ValidateDataDriven(opt), "checkpoints");
}

TEST(ValidateRunOptionsTest, AsyncRejectsFixedRoundApp) {
  ExpectRejected(ValidateRunOptions(AsyncRunOptions(), 4,
                                    /*fixed_round_app=*/true,
                                    /*async_capable_app=*/true),
                 "data-driven");
}

TEST(ValidateRunOptionsTest, AsyncRejectsAppWithoutPriority) {
  ExpectRejected(ValidateRunOptions(AsyncRunOptions(), 4,
                                    /*fixed_round_app=*/false,
                                    /*async_capable_app=*/false),
                 "AsyncPriority");
}

TEST(ValidateRunOptionsTest, AsyncRejectsInvalidAsyncConfig) {
  EngineOptions opt = AsyncRunOptions();
  opt.async.steal_prob = 1.5;
  ExpectRejected(ValidateDataDriven(opt), "--steal-prob");
  // BSP runs never read the async knobs.
  opt.mode = EngineMode::kBsp;
  EXPECT_TRUE(ValidateDataDriven(opt).ok());
}

TEST(ValidateRunOptionsTest, RejectsFaultPlaneBoundToOtherDeviceCount) {
  const fault::FaultPlane plane = FailStopPlane(8);
  EngineOptions opt;
  opt.fault_plane = &plane;
  ExpectRejected(ValidateDataDriven(opt), "bound to 8 devices");
  EXPECT_TRUE(ValidateRunOptions(opt, 8, false, true).ok());
}

TEST(ValidateRunOptionsTest, BspRejectsRingRoute) {
  EngineOptions opt;
  opt.route = sim::RoutePolicy::kRing;
  ExpectRejected(ValidateDataDriven(opt), "ring");
  opt.mode = EngineMode::kAsync;
  EXPECT_TRUE(ValidateDataDriven(opt).ok());
}

TEST(ValidateRunOptionsTest, GunrockModelRejectsWhatItCannotPrice) {
  const fault::FaultPlane plane = FailStopPlane(4);
  const std::pair<void (*)(EngineOptions&), const char*> cases[] = {
      {[](EngineOptions& o) { o.mode = EngineMode::kAsync; }, "async"},
      {[](EngineOptions& o) { o.enable_fsteal = true; }, "frontier stealing"},
      {[](EngineOptions& o) { o.enable_osteal = true; },
       "ownership stealing"},
      {[](EngineOptions& o) { o.checkpoint.every = 2; }, "checkpoints"},
      {[](EngineOptions& o) { o.multipath = sim::MultipathMode::kOn; },
       "multipath"},
      {[](EngineOptions& o) {
         o.expand_backend = ExpandBackendKind::kSpmv;
       },
       "expand backend"},
      {[](EngineOptions& o) { o.expand_backend = ExpandBackendKind::kAuto; },
       "expand backend"},
  };
  for (const auto& [mutate, needle] : cases) {
    SCOPED_TRACE(needle);
    EngineOptions opt = baselines::GunrockEngineOptions();
    mutate(opt);
    ExpectRejected(ValidateDataDriven(opt), needle);
  }
  EngineOptions faulted = baselines::GunrockEngineOptions();
  faulted.fault_plane = &plane;
  ExpectRejected(ValidateDataDriven(faulted), "fault plane");
}

}  // namespace
}  // namespace gum::core
