#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "algos/apps.h"
#include "algos/reference.h"
#include "baselines/groute_cc.h"
#include "core/engine.h"
#include "core/fast_wcc.h"
#include "tests/test_util.h"

namespace gum::core {
namespace {

using graph::VertexId;
using test::MakePartition;
using test::RoadGraph;
using test::SocialGraphSym;
using test::Topo;

TEST(FastWccTest, MatchesUnionFindReference) {
  const auto g = SocialGraphSym(10, 31);
  std::vector<VertexId> labels;
  FastWcc(g, MakePartition(g, 8), Topo(8), {}, &labels);
  EXPECT_EQ(labels, algos::ref::Wcc(g));
}

TEST(FastWccTest, DiameterIndependentRounds) {
  const auto g = RoadGraph(32, 32);  // diameter ~64
  std::vector<VertexId> labels;
  const RunResult result =
      FastWcc(g, MakePartition(g, 8), Topo(8), {}, &labels);
  EXPECT_EQ(labels, algos::ref::Wcc(g));
  EXPECT_LE(result.iterations, 12);
}

TEST(FastWccTest, BeatsLabelPropagationOnLongDiameter) {
  const auto g = RoadGraph(32, 33);
  const auto part = MakePartition(g, 8);
  std::vector<VertexId> fast_labels, lp_labels;
  const RunResult fast = FastWcc(g, part, Topo(8), {}, &fast_labels);
  algos::WccApp app;
  const RunResult lp =
      GumEngine<algos::WccApp>(&g, part, Topo(8), test::TestEngineOptions())
          .Run(app, &lp_labels);
  EXPECT_EQ(fast_labels, lp_labels);
  EXPECT_LT(fast.total_ms, lp.total_ms);
}

TEST(FastWccTest, AgreesAcrossDeviceCountsAndPartitioners) {
  const auto g = SocialGraphSym(9, 34);
  const auto expected = algos::ref::Wcc(g);
  for (int devices : {1, 3, 8}) {
    for (auto kind : {graph::PartitionerKind::kSegment,
                      graph::PartitionerKind::kMetisLike}) {
      std::vector<VertexId> labels;
      FastWcc(g, MakePartition(g, devices, kind), Topo(devices), {},
              &labels);
      EXPECT_EQ(labels, expected)
          << devices << " devices, " << graph::PartitionerName(kind);
    }
  }
}

TEST(FastWccTest, TimelineAccountsEveryRound) {
  const auto g = SocialGraphSym(8, 35);
  const RunResult result = FastWcc(g, MakePartition(g, 4), Topo(4), {});
  EXPECT_EQ(result.timeline.num_iterations(), result.iterations);
  EXPECT_GT(result.ComputeMs(), 0.0);
  EXPECT_GT(result.OverheadMs(), 0.0);
  EXPECT_GT(result.edges_processed, 0u);
}

// Golden pins for the union-find round FastWcc and Groute's CC share
// (HookAndPropose): the simulated clock, the counters and every link's
// traffic stay bit-identical to the solvers before they shared it. Doubles
// compare as bit patterns; link_bytes folds into an FNV-1a digest.
TEST(UnionFindGoldenTest, FastWccAndGrouteCcBitIdentical) {
  struct Golden {
    uint64_t total_ms_bits, messages, edges;
    int iterations;
    uint64_t link_bytes_digest;
  };
  // {FastWcc, GrouteCc} x {road 32x32, RMAT 10} x {contention off, fair}.
  constexpr Golden kGolden[8] = {
      {4613294517221987484ull, 2126, 11610, 3, 15372262422630696997ull},
      {4613294236467771702ull, 2126, 11610, 3, 6065978412948588581ull},
      {4613423346717146912ull, 550, 36192, 3, 11687614239999854629ull},
      {4613423333386492015ull, 550, 36192, 3, 6439654036718028837ull},
      {4593476672329791705ull, 2126, 11610, 3, 15432207796577044517ull},
      {4593476672329791705ull, 2126, 11610, 3, 15432207796577044517ull},
      {4595636311560565730ull, 550, 36192, 3, 591061417507751973ull},
      {4595636311560565730ull, 550, 36192, 3, 591061417507751973ull},
  };
  const graph::CsrGraph graphs[] = {RoadGraph(32, 3), SocialGraphSym(10, 2)};
  int i = 0;
  for (const bool groute : {false, true}) {
    for (const graph::CsrGraph& g : graphs) {
      for (const auto contention :
           {sim::ContentionModel::kOff, sim::ContentionModel::kFair}) {
        SCOPED_TRACE(testing::Message() << "row " << i);
        const graph::Partition part = MakePartition(g, 8);
        RunResult r;
        if (groute) {
          baselines::GrouteCcOptions options;
          options.contention = contention;
          r = baselines::GrouteCcEngine(&g, part, options).Run();
        } else {
          FastWccOptions options;
          options.contention = contention;
          r = FastWcc(g, part, Topo(8), options);
        }
        uint64_t digest = 14695981039346656037ull;
        for (const auto& row : r.link_bytes) {
          for (const double b : row) {
            digest = (digest ^ std::bit_cast<uint64_t>(b)) * 1099511628211ull;
          }
        }
        const Golden& want = kGolden[i++];
        EXPECT_EQ(std::bit_cast<uint64_t>(r.total_ms), want.total_ms_bits)
            << r.total_ms;
        EXPECT_EQ(r.messages_sent, want.messages);
        EXPECT_EQ(r.edges_processed, want.edges);
        EXPECT_EQ(r.iterations, want.iterations);
        EXPECT_EQ(digest, want.link_bytes_digest);
      }
    }
  }
}

}  // namespace
}  // namespace gum::core
