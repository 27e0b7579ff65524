// CommPlane: routing, the two contention models, telemetry semantics, and
// the engine-level contract that the `contention` knob changes only time
// and telemetry — never results.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "algos/apps.h"
#include "baselines/groute.h"
#include "baselines/gunrock.h"
#include "core/engine.h"
#include "sim/comm_plane.h"
#include "sim/topology.h"
#include "tests/test_util.h"

namespace gum::sim {
namespace {

using algos::BfsApp;
using algos::DeltaPageRankApp;
using algos::SsspApp;
using test::MakePartition;
using test::MaxDegreeSource;
using test::SocialGraph;
using test::TestEngineOptions;
using test::Topo;

Topology Line3() {
  // 0 -- 1 -- 2 at 50 GB/s; no direct 0 -- 2 link, so (0, 2) routes via 1
  // (2-hop at kTransitEfficiency * 50 = 25 GB/s, better than PCIe's 10).
  auto t = Topology::FromMatrix(
      {{0.0, 50.0, 0.0}, {50.0, 0.0, 50.0}, {0.0, 50.0, 0.0}});
  EXPECT_TRUE(t.ok());
  return *t;
}

Topology Isolated2() {
  // No NVLink at all: every pair falls back to PCIe.
  auto t = Topology::FromMatrix({{0.0, 0.0}, {0.0, 0.0}});
  EXPECT_TRUE(t.ok());
  return *t;
}

TEST(CommPlaneTest, ParseContentionModel) {
  auto off = ParseContentionModel("off");
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(*off, ContentionModel::kOff);
  auto fair = ParseContentionModel("fair");
  ASSERT_TRUE(fair.ok());
  EXPECT_EQ(*fair, ContentionModel::kFair);
  EXPECT_FALSE(ParseContentionModel("tcp").ok());
  EXPECT_STREQ(ContentionModelName(ContentionModel::kOff), "off");
  EXPECT_STREQ(ContentionModelName(ContentionModel::kFair), "fair");
}

TEST(CommPlaneTest, RoutePicksTransitAndPcie) {
  const CommPlane plane(Line3());
  const CommRoute direct = plane.Route(0, 1);
  EXPECT_EQ(direct.transit, -1);
  EXPECT_FALSE(direct.via_pcie);
  EXPECT_DOUBLE_EQ(direct.point_to_point_gbps, 50.0);

  const CommRoute routed = plane.Route(0, 2);
  EXPECT_EQ(routed.transit, 1);
  EXPECT_DOUBLE_EQ(routed.point_to_point_gbps,
                   50.0 * Topology::kTransitEfficiency);

  const CommPlane pcie(Isolated2());
  const CommRoute fallback = pcie.Route(0, 1);
  EXPECT_EQ(fallback.transit, -1);
  EXPECT_TRUE(fallback.via_pcie);
  EXPECT_DOUBLE_EQ(fallback.point_to_point_gbps, Topology::kPcieGBps);
}

TEST(CommPlaneTest, DirectOnlyPolicyNeverRoutes) {
  const CommPlane plane(Line3(), ContentionModel::kOff,
                        RoutePolicy::kDirectOnly);
  const CommRoute r = plane.Route(0, 2);
  EXPECT_EQ(r.transit, -1);
  EXPECT_TRUE(r.via_pcie);
  EXPECT_DOUBLE_EQ(r.point_to_point_gbps, Topology::kPcieGBps);
  EXPECT_DOUBLE_EQ(plane.PointToPointNs(0, 2, 100.0),
                   100.0 / Topology::kPcieGBps);
}

// The path src -> dst as the plane walks it, endpoints included.
std::vector<int> Walk(const CommPlane& plane, int src, int dst) {
  std::vector<int> path = {src};
  for (int at = src; at != dst;) {
    at = plane.NextHop(src, at, dst);
    path.push_back(at);
  }
  return path;
}

TEST(CommPlaneTest, RingWalkForwardsOneWayAndWrapsOverPcie) {
  const CommPlane odd(
      Topology::Ring(5, Topology::kNvlinkLaneGBps, /*pcie_odd_wrap=*/true),
      ContentionModel::kOff, RoutePolicy::kRing);
  EXPECT_EQ(Walk(odd, 3, 1), (std::vector<int>{3, 4, 0, 1}));
  // The odd ring closes over PCIe: 4 -> 0 is the PCIe lane.
  EXPECT_DOUBLE_EQ(odd.LaneMs(4, 0, 1e6), 1e6 / Topology::kPcieGBps / 1e6);
  EXPECT_DOUBLE_EQ(odd.LaneMs(3, 4, 1e6),
                   1e6 / Topology::kNvlinkLaneGBps / 1e6);

  const CommPlane even(Topology::Ring(4), ContentionModel::kOff,
                       RoutePolicy::kRing);
  EXPECT_EQ(Walk(even, 0, 3), (std::vector<int>{0, 1, 2, 3}));
}

TEST(CommPlaneTest, BestPathWalkFollowsRoute) {
  const CommPlane plane(Topology::HybridCubeMesh8());
  int pairs = 0;
  int routed = 0;
  for (int src = 0; src < 8; ++src) {
    for (int dst = 0; dst < 8; ++dst) {
      if (src == dst) continue;
      ++pairs;
      const int transit = plane.Route(src, dst).transit;
      std::vector<int> want = {src, dst};
      if (transit >= 0) {
        want.insert(want.begin() + 1, transit);
        ++routed;
      }
      EXPECT_EQ(Walk(plane, src, dst), want) << src << " -> " << dst;
    }
  }
  EXPECT_EQ(pairs, 56);
  EXPECT_GT(routed, 0) << "the cube mesh has pairs without a direct link";
}

TEST(CommPlaneTest, DirectOnlyWalkIsOneHop) {
  const CommPlane plane(Topology::HybridCubeMesh8(), ContentionModel::kOff,
                        RoutePolicy::kDirectOnly);
  for (int src = 0; src < 8; ++src) {
    for (int dst = 0; dst < 8; ++dst) {
      if (src == dst) continue;
      EXPECT_EQ(Walk(plane, src, dst), (std::vector<int>{src, dst}));
    }
  }
}

TEST(CommPlaneTest, OffModeMatchesEffectiveBandwidth) {
  const auto topo = Topology::HybridCubeMesh8();
  CommPlane plane(topo);  // kOff
  TransferBatch batch;
  batch.Add(0, 1, 1e6, 0);
  batch.Add(0, 5, 2e6, 0);
  batch.Add(3, 2, 5e5, 3);
  const SettleResult settled = plane.Settle(batch);
  ASSERT_EQ(settled.completion_ns.size(), 3u);
  // Solo duration at the legacy path bandwidth, bit for bit.
  EXPECT_DOUBLE_EQ(settled.completion_ns[0],
                   1e6 / topo.EffectiveBandwidth(0, 1));
  EXPECT_DOUBLE_EQ(settled.completion_ns[1],
                   2e6 / topo.EffectiveBandwidth(0, 5));
  EXPECT_DOUBLE_EQ(settled.completion_ns[2],
                   5e5 / topo.EffectiveBandwidth(3, 2));
  // Tag charge is the legacy accumulator: enqueue-order sum per tag.
  EXPECT_DOUBLE_EQ(settled.tag_comm_ns[0],
                   1e6 / topo.EffectiveBandwidth(0, 1) +
                       2e6 / topo.EffectiveBandwidth(0, 5));
  EXPECT_DOUBLE_EQ(settled.tag_comm_ns[3],
                   5e5 / topo.EffectiveBandwidth(3, 2));
  // Off-mode telemetry records endpoints: link bytes == payload bytes.
  EXPECT_DOUBLE_EQ(plane.link_bytes()[0][1], 1e6);
  EXPECT_DOUBLE_EQ(plane.payload_bytes()[0][1], 1e6);
  EXPECT_DOUBLE_EQ(plane.link_bytes()[0][5], 2e6);
}

TEST(CommPlaneTest, FairSharesASingleLane) {
  const auto topo = Topology::FullyConnected(2, 50.0);
  // Solo: the full 50 GB/s lane.
  {
    CommPlane plane(topo, ContentionModel::kFair);
    TransferBatch batch;
    batch.Add(0, 1, 1e6, 0);
    const SettleResult s = plane.Settle(batch);
    EXPECT_DOUBLE_EQ(s.completion_ns[0], 1e6 / 50.0);
  }
  // Two transfers on the same directed lane: each gets half the bandwidth,
  // both finish at twice the solo time.
  CommPlane plane(topo, ContentionModel::kFair);
  TransferBatch batch;
  batch.Add(0, 1, 1e6, 0);
  batch.Add(0, 1, 1e6, 1);
  const SettleResult s = plane.Settle(batch);
  EXPECT_DOUBLE_EQ(s.completion_ns[0], 1e6 / 25.0);
  EXPECT_DOUBLE_EQ(s.completion_ns[1], 1e6 / 25.0);
  // Fair tag charge is the makespan of the tag's transfers.
  EXPECT_DOUBLE_EQ(s.tag_comm_ns[0], 1e6 / 25.0);
  EXPECT_DOUBLE_EQ(s.tag_comm_ns[1], 1e6 / 25.0);
  // The lane was busy for the whole batch; bytes sum over both users.
  EXPECT_DOUBLE_EQ(plane.link_bytes()[0][1], 2e6);
  EXPECT_DOUBLE_EQ(plane.link_busy_ms()[0][1], (1e6 / 25.0) / 1e6);
}

TEST(CommPlaneTest, FairDisjointLanesAreIndependent) {
  const auto topo = Topology::FullyConnected(2, 50.0);
  CommPlane plane(topo, ContentionModel::kFair);
  TransferBatch batch;
  batch.Add(0, 1, 1e6, 0);
  batch.Add(1, 0, 4e6, 1);  // the opposite directed lane: no sharing
  const SettleResult s = plane.Settle(batch);
  EXPECT_DOUBLE_EQ(s.completion_ns[0], 1e6 / 50.0);
  EXPECT_DOUBLE_EQ(s.completion_ns[1], 4e6 / 50.0);
}

TEST(CommPlaneTest, FairTransitChargesBothHops) {
  CommPlane plane(Line3(), ContentionModel::kFair);
  TransferBatch batch;
  batch.Add(0, 2, 1e6, 0);  // routed via device 1
  batch.Add(0, 1, 1e6, 1);  // competes on the first hop
  const SettleResult s = plane.Settle(batch);
  // Both transfers share lane 0 -> 1 (25 GB/s each); the routed one holds
  // lane 1 -> 2 as well but that lane is uncontended.
  EXPECT_DOUBLE_EQ(s.completion_ns[0], 1e6 / 25.0);
  EXPECT_DOUBLE_EQ(s.completion_ns[1], 1e6 / 25.0);
  // Traffic telemetry charges the routed transfer on BOTH hops...
  EXPECT_DOUBLE_EQ(plane.link_bytes()[0][1], 2e6);
  EXPECT_DOUBLE_EQ(plane.link_bytes()[1][2], 1e6);
  EXPECT_DOUBLE_EQ(plane.link_bytes()[0][2], 0.0);
  // ...while payload telemetry counts endpoints exactly once.
  EXPECT_DOUBLE_EQ(plane.payload_bytes()[0][2], 1e6);
  EXPECT_DOUBLE_EQ(plane.payload_bytes()[0][1], 1e6);
  EXPECT_DOUBLE_EQ(plane.payload_bytes()[1][2], 0.0);
}

TEST(CommPlaneTest, FairPcieFallbackSharesThePciePool) {
  CommPlane plane(Isolated2(), ContentionModel::kFair);
  TransferBatch batch;
  batch.Add(0, 1, 1e6, 0);
  batch.Add(0, 1, 1e6, 1);
  const SettleResult s = plane.Settle(batch);
  // Two transfers split the 10 GB/s PCIe path.
  EXPECT_DOUBLE_EQ(s.completion_ns[0], 1e6 / 5.0);
  EXPECT_DOUBLE_EQ(s.completion_ns[1], 1e6 / 5.0);
}

TEST(CommPlaneTest, FairCompletionsAreEnqueueOrderInvariant) {
  const auto topo = Topology::HybridCubeMesh8();
  TransferBatch forward;
  TransferBatch reversed;
  std::vector<Transfer> transfers;
  for (int i = 0; i < 24; ++i) {
    const int src = i % 8;
    const int dst = (src + 1 + (i * 5) % 7) % 8;
    transfers.push_back({src, dst, 1e5 * (1 + i % 13), src});
  }
  for (const Transfer& t : transfers) {
    forward.Add(t.src, t.dst, t.bytes, t.tag);
  }
  for (auto it = transfers.rbegin(); it != transfers.rend(); ++it) {
    reversed.Add(it->src, it->dst, it->bytes, it->tag);
  }
  CommPlane plane_f(topo, ContentionModel::kFair);
  CommPlane plane_r(topo, ContentionModel::kFair);
  const SettleResult sf = plane_f.Settle(forward);
  const SettleResult sr = plane_r.Settle(reversed);
  const size_t m = transfers.size();
  for (size_t i = 0; i < m; ++i) {
    EXPECT_DOUBLE_EQ(sf.completion_ns[i], sr.completion_ns[m - 1 - i]);
  }
  for (size_t tag = 0; tag < sf.tag_comm_ns.size(); ++tag) {
    EXPECT_DOUBLE_EQ(sf.tag_comm_ns[tag], sr.tag_comm_ns[tag]);
  }
  EXPECT_EQ(plane_f.link_bytes(), plane_r.link_bytes());
}

TEST(CommPlaneTest, FairConservesBytes) {
  // Total traffic absorbed by the lanes at their achieved rates equals the
  // enqueued per-hop bytes (the max-min allocation never loses work).
  const auto topo = Topology::HybridCubeMesh8();
  CommPlane plane(topo, ContentionModel::kFair);
  TransferBatch batch;
  double payload = 0.0;
  for (int i = 0; i < 16; ++i) {
    const int src = (i * 3) % 8;
    const int dst = (src + 2 + i % 5) % 8;
    if (src == dst) continue;
    batch.Add(src, dst, 7e4 * (1 + i), src);
    payload += 7e4 * (1 + i);
  }
  (void)plane.Settle(batch);
  double total_payload = 0.0;
  double total_traffic = 0.0;
  for (const auto& row : plane.payload_bytes()) {
    for (double v : row) total_payload += v;
  }
  for (const auto& row : plane.link_bytes()) {
    for (double v : row) total_traffic += v;
  }
  EXPECT_DOUBLE_EQ(total_payload, payload);
  // Per-hop traffic is at least the payload (transit doubles some of it).
  EXPECT_GE(total_traffic, payload);
}

TEST(CommPlaneTest, ReserveLaneQueuesOnlyUnderFair) {
  const auto topo = Topology::FullyConnected(2, 50.0);
  const double lane_ms = 1e6 / 50.0 / 1e6;
  {
    CommPlane plane(topo, ContentionModel::kOff);
    EXPECT_DOUBLE_EQ(plane.ReserveLane(0, 1, 0.0, 1e6), 0.0);
    // Legacy lanes are infinitely shareable: no queueing, ever.
    EXPECT_DOUBLE_EQ(plane.ReserveLane(0, 1, 0.0, 1e6), 0.0);
  }
  CommPlane plane(topo, ContentionModel::kFair);
  EXPECT_DOUBLE_EQ(plane.ReserveLane(0, 1, 0.0, 1e6), 0.0);
  // The lane drains at lane_ms; a second transfer queues behind it.
  EXPECT_DOUBLE_EQ(plane.ReserveLane(0, 1, 0.0, 1e6), lane_ms);
  // A transfer already ready after the drain starts on time.
  EXPECT_DOUBLE_EQ(plane.ReserveLane(0, 1, 10.0, 1e6), 10.0);
  EXPECT_DOUBLE_EQ(plane.link_bytes()[0][1], 3e6);
}

TEST(CommPlaneTest, RecordLinkTrafficAccountsWithoutQueueing) {
  const auto topo = Topology::FullyConnected(2, 50.0);
  const double lane_ms = 1e6 / 50.0 / 1e6;
  CommPlane plane(topo, ContentionModel::kFair);
  plane.RecordLinkTraffic(0, 1, 1e6);
  // Telemetry matches a ReserveLane of the same bytes...
  EXPECT_DOUBLE_EQ(plane.link_bytes()[0][1], 1e6);
  EXPECT_DOUBLE_EQ(plane.link_busy_ms()[0][1], lane_ms);
  // ...but the lane FIFO is untouched: the next reservation starts on time.
  EXPECT_DOUBLE_EQ(plane.ReserveLane(0, 1, 0.0, 1e6), 0.0);
  // Payload matrix is the caller's job, as with ReserveLane.
  EXPECT_DOUBLE_EQ(plane.payload_bytes()[0][1], 0.0);
}

TEST(CommPlaneTest, RenderAsciiListsBusyLanes) {
  CommPlane plane(Topology::FullyConnected(2, 50.0), ContentionModel::kFair);
  TransferBatch batch;
  batch.Add(0, 1, 1e6, 0);
  (void)plane.Settle(batch);
  const std::string table = plane.RenderAscii();
  EXPECT_NE(table.find("0 -> 1"), std::string::npos);
  EXPECT_EQ(table.find("1 -> 0"), std::string::npos);
  const std::string empty = CommPlane(Topology::FullyConnected(2)).RenderAscii();
  EXPECT_NE(empty.find("no interconnect traffic"), std::string::npos);
}

// ---------- engine-level contract ----------

template <typename App, typename Value = typename App::Value>
core::RunResult RunGum(const graph::CsrGraph& g, App app,
                       ContentionModel model, std::vector<Value>* values,
                       int host_threads = 0, bool enable_osteal = false) {
  auto opt = TestEngineOptions();
  opt.contention = model;
  opt.num_host_threads = host_threads;
  // OSteal triggers on the previous iteration's *simulated* wall time, so
  // the contention model may legitimately change its schedule; disable it
  // where the test demands bitwise-equal schedules across models.
  opt.enable_osteal = enable_osteal;
  core::GumEngine<App> engine(&g, MakePartition(g, 4), Topo(4), opt);
  return engine.Run(app, values);
}

TEST(CommPlaneEngineTest, GumContentionChangesOnlyTimeAndTelemetry) {
  const auto g = SocialGraph(10, 21);
  BfsApp app;
  app.source = MaxDegreeSource(g);
  std::vector<uint32_t> depths_off;
  std::vector<uint32_t> depths_fair;
  const auto off = RunGum(g, app, ContentionModel::kOff, &depths_off);
  const auto fair = RunGum(g, app, ContentionModel::kFair, &depths_fair);
  EXPECT_EQ(depths_off, depths_fair);
  EXPECT_EQ(off.iterations, fair.iterations);
  EXPECT_EQ(off.edges_processed, fair.edges_processed);
  EXPECT_EQ(off.messages_sent, fair.messages_sent);
  EXPECT_EQ(off.stolen_edges_total, fair.stolen_edges_total);
  // The same transfers moved: logical payload is model-invariant.
  EXPECT_DOUBLE_EQ(off.TotalPayloadBytes(), fair.TotalPayloadBytes());
  // Off-mode legacy semantics: link bytes ARE the payload bytes.
  EXPECT_EQ(off.link_bytes, off.payload_bytes);
  // Fair mode never reports less per-hop traffic than payload.
  EXPECT_GE(fair.TotalRemoteBytes(), fair.TotalPayloadBytes() - 1e-9);
  // Busy-time telemetry only exists for lanes that carried traffic.
  ASSERT_EQ(fair.link_busy_ms.size(), fair.link_bytes.size());
}

TEST(CommPlaneEngineTest, GumSsspContentionPreservesValues) {
  const auto g = SocialGraph(10, 22, /*weighted=*/true);
  SsspApp app;
  app.source = MaxDegreeSource(g);
  std::vector<float> dist_off;
  std::vector<float> dist_fair;
  // Full default machinery (OSteal on): results must still be identical —
  // schedules may differ, answers may not.
  (void)RunGum(g, app, ContentionModel::kOff, &dist_off, 0, true);
  (void)RunGum(g, app, ContentionModel::kFair, &dist_fair, 0, true);
  EXPECT_EQ(dist_off, dist_fair);
}

TEST(CommPlaneEngineTest, GumDeltaPageRankContentionPreservesValues) {
  const auto g = SocialGraph(9, 23);
  DeltaPageRankApp app;
  app.num_vertices = g.num_vertices();
  app.epsilon = 1e-12;
  std::vector<DeltaPageRankApp::State> off_state;
  std::vector<DeltaPageRankApp::State> fair_state;
  const auto off = RunGum(g, app, ContentionModel::kOff, &off_state);
  const auto fair = RunGum(g, app, ContentionModel::kFair, &fair_state);
  ASSERT_EQ(off_state.size(), fair_state.size());
  for (size_t v = 0; v < off_state.size(); ++v) {
    EXPECT_EQ(off_state[v].rank, fair_state[v].rank);
  }
  EXPECT_EQ(off.iterations, fair.iterations);
}

TEST(CommPlaneEngineTest, FairModeIsDeterministicAcrossThreadCounts) {
  const auto g = SocialGraph(10, 24);
  BfsApp app;
  app.source = MaxDegreeSource(g);
  std::vector<uint32_t> d1;
  std::vector<uint32_t> d4;
  const auto r1 = RunGum(g, app, ContentionModel::kFair, &d1, 1);
  const auto r4 = RunGum(g, app, ContentionModel::kFair, &d4, 4);
  EXPECT_EQ(d1, d4);
  EXPECT_EQ(r1.total_ms, r4.total_ms);  // bitwise, not approximately
  EXPECT_EQ(r1.link_bytes, r4.link_bytes);
  EXPECT_EQ(r1.link_busy_ms, r4.link_busy_ms);
}

// ---------- multi-path transfer plans ----------

TEST(TransferPlanTest, ParseMultipathMode) {
  auto off = ParseMultipathMode("off");
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(*off, MultipathMode::kOff);
  auto on = ParseMultipathMode("on");
  ASSERT_TRUE(on.ok());
  EXPECT_EQ(*on, MultipathMode::kOn);
  EXPECT_FALSE(ParseMultipathMode("auto").ok());
  EXPECT_STREQ(MultipathModeName(MultipathMode::kOff), "off");
  EXPECT_STREQ(MultipathModeName(MultipathMode::kOn), "on");
}

TEST(TransferPlanTest, StripesAcrossLinkDisjointPaths) {
  CommPlane plane(Topology::HybridCubeMesh8(), ContentionModel::kFair);
  plane.set_multipath(true);
  const TransferPlan plan = plane.PlanBulkTransfer(0, 5, 4e6);
  ASSERT_TRUE(plan.striped());
  EXPECT_LE(plan.paths.size(), 4u);
  // Candidates are mutually link-disjoint: at most one direct path, at
  // most one PCIe path, and every transit device distinct.
  int direct = 0;
  int pcie = 0;
  std::vector<int> transits;
  double fraction_sum = 0.0;
  double gbps_sum = 0.0;
  for (const PlanPath& p : plan.paths) {
    if (p.via_pcie) {
      ++pcie;
    } else if (p.transit < 0) {
      ++direct;
    } else {
      transits.push_back(p.transit);
    }
    fraction_sum += p.fraction;
    gbps_sum += p.gbps;
    EXPECT_GT(p.gbps, 0.0);
  }
  EXPECT_LE(direct, 1);
  EXPECT_LE(pcie, 1);
  std::sort(transits.begin(), transits.end());
  EXPECT_EQ(std::adjacent_find(transits.begin(), transits.end()),
            transits.end());
  EXPECT_NEAR(fraction_sum, 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(gbps_sum, plan.total_gbps);
  // Paths come bandwidth-descending; striping beats the best single path.
  for (size_t i = 1; i < plan.paths.size(); ++i) {
    EXPECT_LE(plan.paths[i].gbps, plan.paths[i - 1].gbps);
  }
  EXPECT_GT(plan.StripeEfficiency(), 1.0);
  EXPECT_LT(plane.StripedTransferNs(0, 5, 4e6),
            plane.PointToPointNs(0, 5, 4e6));
}

TEST(TransferPlanTest, SmallPayloadsStaySinglePath) {
  CommPlane plane(Topology::HybridCubeMesh8(), ContentionModel::kFair);
  plane.set_multipath(true);
  const TransferPlan plan = plane.PlanBulkTransfer(0, 5, 1024.0);
  ASSERT_EQ(plan.paths.size(), 1u);
  EXPECT_FALSE(plan.striped());
  EXPECT_DOUBLE_EQ(plan.paths[0].fraction, 1.0);
  // The single path is what single-path routing would use, so the striped
  // estimate degenerates to the point-to-point one.
  EXPECT_DOUBLE_EQ(plane.StripedTransferNs(0, 5, 1024.0),
                   plane.PointToPointNs(0, 5, 1024.0));
}

TEST(TransferPlanTest, StripingReducesFairMakespan) {
  TransferBatch bulk;
  TransferBatch plain;
  for (int src = 0; src < 8; ++src) {
    const int dst = (src + 3) % 8;
    bulk.AddBulk(src, dst, 4e6, src);
    plain.Add(src, dst, 4e6, src);
  }
  CommPlane on(Topology::HybridCubeMesh8(), ContentionModel::kFair);
  on.set_multipath(true);
  CommPlane off(Topology::HybridCubeMesh8(), ContentionModel::kFair);
  off.set_multipath(true);  // enabled, but no bulk hint -> no striping
  const SettleResult s_on = on.Settle(bulk);
  const SettleResult s_off = off.Settle(plain);
  double makespan_on = 0.0;
  double makespan_off = 0.0;
  for (double ns : s_on.completion_ns) makespan_on = std::max(makespan_on, ns);
  for (double ns : s_off.completion_ns) {
    makespan_off = std::max(makespan_off, ns);
  }
  EXPECT_LT(makespan_on, makespan_off);
  EXPECT_EQ(on.multipath_stats().bulk_transfers, 8);
  EXPECT_GT(on.multipath_stats().striped_transfers, 0);
  EXPECT_GT(on.multipath_stats().paths_used,
            on.multipath_stats().bulk_transfers);
  EXPECT_EQ(off.multipath_stats().bulk_transfers, 0);
}

TEST(TransferPlanTest, OffContentionIgnoresBulkHint) {
  // Under kOff the bulk hint is dead: completions, charges, and telemetry
  // are bit-identical to the plain Add path even with multipath enabled.
  const auto topo = Topology::HybridCubeMesh8();
  TransferBatch bulk;
  TransferBatch plain;
  for (int i = 0; i < 12; ++i) {
    const int src = i % 8;
    const int dst = (src + 1 + (i * 5) % 7) % 8;
    bulk.AddBulk(src, dst, 1e6 * (1 + i % 3), src);
    plain.Add(src, dst, 1e6 * (1 + i % 3), src);
  }
  CommPlane plane_bulk(topo, ContentionModel::kOff);
  plane_bulk.set_multipath(true);
  CommPlane plane_plain(topo, ContentionModel::kOff);
  const SettleResult sb = plane_bulk.Settle(bulk);
  const SettleResult sp = plane_plain.Settle(plain);
  EXPECT_EQ(sb.completion_ns, sp.completion_ns);
  EXPECT_EQ(sb.tag_comm_ns, sp.tag_comm_ns);
  EXPECT_EQ(plane_bulk.link_bytes(), plane_plain.link_bytes());
  EXPECT_EQ(plane_bulk.multipath_stats().bulk_transfers, 0);
}

TEST(TransferPlanTest, NonBulkFairSettlingIsUnchangedByTheKnob) {
  // The multipath flag alone (no bulk transfers) must not perturb the fair
  // settle arithmetic: single-path flows are the pre-plan code path.
  const auto topo = Topology::HybridCubeMesh8();
  TransferBatch batch;
  for (int i = 0; i < 24; ++i) {
    const int src = i % 8;
    const int dst = (src + 1 + (i * 5) % 7) % 8;
    batch.Add(src, dst, 1e5 * (1 + i % 13), src);
  }
  CommPlane plane_on(topo, ContentionModel::kFair);
  plane_on.set_multipath(true);
  CommPlane plane_off(topo, ContentionModel::kFair);
  const SettleResult on = plane_on.Settle(batch);
  const SettleResult off = plane_off.Settle(batch);
  EXPECT_EQ(on.completion_ns, off.completion_ns);
  EXPECT_EQ(on.tag_comm_ns, off.tag_comm_ns);
  EXPECT_EQ(plane_on.link_bytes(), plane_off.link_bytes());
  EXPECT_EQ(plane_on.link_busy_ms(), plane_off.link_busy_ms());
}

TEST(TransferPlanTest, LinkFaultDropsThePathNeverTheTransfer) {
  CommPlane plane(Topology::HybridCubeMesh8(), ContentionModel::kFair);
  plane.set_multipath(true);
  const TransferPlan nominal = plane.PlanBulkTransfer(0, 3, 4e6);
  ASSERT_TRUE(nominal.striped());
  EXPECT_EQ(nominal.paths_dropped, 0);

  // Kill the direct 0 -- 3 link: the plan re-stripes over the survivors.
  plane.SetLinkScale(0, 3, 0.0);
  const TransferPlan faulted = plane.PlanBulkTransfer(0, 3, 4e6);
  EXPECT_GT(faulted.paths_dropped, 0);
  EXPECT_LT(faulted.paths.size(), nominal.paths.size());
  for (const PlanPath& p : faulted.paths) {
    EXPECT_FALSE(p.transit < 0 && !p.via_pcie)
        << "downed direct link must not be offered as a path";
  }
  // The payload still moves — a settled bulk transfer completes.
  TransferBatch batch;
  batch.AddBulk(0, 3, 4e6, 0);
  const SettleResult s = plane.Settle(batch);
  ASSERT_EQ(s.completion_ns.size(), 1u);
  EXPECT_GT(s.completion_ns[0], 0.0);
  EXPECT_GT(plane.multipath_stats().paths_dropped, 0);

  // Degrading (not killing) a link shrinks its stripe proportionally
  // instead of dropping it.
  CommPlane degraded(Topology::HybridCubeMesh8(), ContentionModel::kFair);
  degraded.set_multipath(true);
  degraded.SetLinkScale(0, 3, 0.25);
  const TransferPlan thin = degraded.PlanBulkTransfer(0, 3, 4e6);
  double nominal_direct = 0.0;
  double thin_direct = 0.0;
  for (const PlanPath& p : nominal.paths) {
    if (p.transit < 0 && !p.via_pcie) nominal_direct = p.fraction;
  }
  for (const PlanPath& p : thin.paths) {
    if (p.transit < 0 && !p.via_pcie) thin_direct = p.fraction;
  }
  ASSERT_GT(nominal_direct, 0.0);
  if (thin_direct > 0.0) {
    EXPECT_LT(thin_direct, nominal_direct);
  }
}

// Golden pins for the transfer planner's fixed numbers (the path cap, the
// striping threshold and the slow-path cut): every (src, dst) plan on the
// hybrid cube mesh for payloads just under, at and well over the 32 KiB
// striping threshold, on a healthy mesh and on one with a degraded and a
// downed link. Captured from the planner before those numbers became
// constants; each plan's paths, bandwidths and fractions fold into an
// FNV-1a digest as bit patterns.
TEST(TransferPlanGoldenTest, PlanBulkTransferBitIdentical) {
  struct Golden {
    uint64_t digest;
    int striped;
  };
  // {healthy, degraded} x {32767, 32768, 1 MiB} bytes.
  constexpr Golden kGolden[6] = {
      {532649720195468837ull, 0},    {12804488028136066597ull, 56},
      {12804488028136066597ull, 56}, {15644902166367431145ull, 0},
      {5732926008411745937ull, 54},  {5732926008411745937ull, 54},
  };
  int row = 0;
  for (const bool degraded : {false, true}) {
    CommPlane plane(Topology::HybridCubeMesh8(), ContentionModel::kFair);
    plane.set_multipath(true);
    if (degraded) {
      plane.SetLinkScale(0, 3, 0.25);
      plane.SetLinkScale(1, 5, 0.0);
    }
    for (const double bytes : {32767.0, 32768.0, 1048576.0}) {
      SCOPED_TRACE(testing::Message() << "row " << row);
      uint64_t digest = test::kFnvBasis;
      int striped = 0;
      for (int src = 0; src < 8; ++src) {
        for (int dst = 0; dst < 8; ++dst) {
          if (src == dst) continue;
          const TransferPlan plan = plane.PlanBulkTransfer(src, dst, bytes);
          const auto fold = [&digest](uint64_t word) {
            digest = test::Fnv1a(digest, word);
          };
          fold(plan.paths.size());
          for (const PlanPath& p : plan.paths) {
            fold(static_cast<uint64_t>(p.transit));
            fold(p.via_pcie ? 1 : 0);
            fold(std::bit_cast<uint64_t>(p.gbps));
            fold(std::bit_cast<uint64_t>(p.fraction));
          }
          fold(std::bit_cast<uint64_t>(plan.total_gbps));
          fold(std::bit_cast<uint64_t>(plan.best_single_gbps));
          fold(static_cast<uint64_t>(plan.paths_dropped));
          if (plan.striped()) ++striped;
        }
      }
      const Golden& want = kGolden[row++];
      EXPECT_EQ(digest, want.digest);
      EXPECT_EQ(striped, want.striped);
    }
  }
}

TEST(TransferPlanTest, ReductionTreeIsDeterministicAndBeatsTheStar) {
  CommPlane plane(Topology::HybridCubeMesh8(), ContentionModel::kFair);
  std::vector<int> active = {0, 1, 2, 3, 4, 5, 6, 7};
  const ReductionTree a = plane.BuildCensusTree(active);
  const ReductionTree b = plane.BuildCensusTree(active);
  EXPECT_EQ(a.parent, b.parent);
  EXPECT_EQ(a.root, b.root);
  EXPECT_FALSE(a.star);
  EXPECT_EQ(a.members, 8);
  EXPECT_GE(a.height, 1);
  for (int d : active) EXPECT_TRUE(a.InTree(d));
  // The tree's whole point: leaves sync with their neighborhood + height,
  // strictly less than the all-to-one group factor m = 8.
  double max_factor = 0.0;
  for (int d : active) max_factor = std::max(max_factor, a.SyncFactor(d));
  EXPECT_LT(max_factor, 8.0);
}

TEST(TransferPlanTest, ReductionTreeStarFallbackMatchesLegacyCharge) {
  CommPlane plane(Isolated2(), ContentionModel::kFair);
  const ReductionTree tree = plane.BuildCensusTree({0, 1});
  EXPECT_TRUE(tree.star);
  EXPECT_EQ(tree.members, 2);
  // Star fallback reproduces the legacy all-to-one charge: factor == m.
  EXPECT_DOUBLE_EQ(tree.SyncFactor(0), 2.0);
  EXPECT_DOUBLE_EQ(tree.SyncFactor(1), 2.0);
}

TEST(CommPlaneEngineTest, MultipathChangesOnlyTimeAcrossThreadsAndShards) {
  const auto g = SocialGraph(10, 27);
  BfsApp app;
  app.source = MaxDegreeSource(g);
  const auto part = MakePartition(g, 4);
  auto run = [&](MultipathMode multipath, int threads,
                 std::vector<uint32_t>* depths) {
    auto opt = TestEngineOptions();
    opt.contention = ContentionModel::kFair;
    opt.multipath = multipath;
    opt.num_host_threads = threads;
    opt.enable_osteal = true;
    core::GumEngine<BfsApp> engine(&g, part, Topo(4), opt);
    return engine.Run(app, depths);
  };
  std::vector<uint32_t> base;
  const auto off = run(MultipathMode::kOff, 1, &base);
  // One message shard per thread: 3 threads cut an odd shard count.
  for (const int threads : {1, 2, 3, 4, 8}) {
    std::vector<uint32_t> depths;
    const auto on = run(MultipathMode::kOn, threads, &depths);
    EXPECT_EQ(depths, base) << threads << " threads";
    EXPECT_EQ(on.iterations, off.iterations);
    EXPECT_EQ(on.edges_processed, off.edges_processed);
    EXPECT_TRUE(on.multipath_active);
  }
  // And the knob is observable: the on-run exports striping telemetry,
  // the off-run none.
  EXPECT_FALSE(off.multipath_active);
  EXPECT_EQ(off.multipath.bulk_transfers, 0);
}

TEST(CommPlaneEngineTest, GunrockContentionChangesOnlyTime) {
  const auto g = SocialGraph(10, 25);
  BfsApp app;
  app.source = MaxDegreeSource(g);
  const core::EngineOptions off_opt = baselines::GunrockEngineOptions();
  const core::EngineOptions fair_opt =
      baselines::GunrockEngineOptions({}, ContentionModel::kFair);
  std::vector<uint32_t> depths_off;
  std::vector<uint32_t> depths_fair;
  const auto part = MakePartition(g, 4);
  const auto off = core::GumEngine<BfsApp>(&g, part, Topo(4), off_opt)
                       .Run(app, &depths_off);
  app.source = MaxDegreeSource(g);
  const auto fair = core::GumEngine<BfsApp>(&g, part, Topo(4), fair_opt)
                        .Run(app, &depths_fair);
  EXPECT_EQ(depths_off, depths_fair);
  EXPECT_EQ(off.iterations, fair.iterations);
  EXPECT_EQ(off.messages_sent, fair.messages_sent);
  EXPECT_DOUBLE_EQ(off.TotalPayloadBytes(), fair.TotalPayloadBytes());
  // No direction is asserted on the charge: `off` sums a device's per-peer
  // flushes serially while `fair` overlaps them (makespan), so fair can be
  // faster on disjoint lanes even though shared lanes slow it down.
  EXPECT_GT(fair.CommunicationMs(), 0.0);
}

TEST(CommPlaneEngineTest, GrouteContentionPreservesValuesAndSlowsRing) {
  const auto g = SocialGraph(10, 26);
  BfsApp app;
  app.source = MaxDegreeSource(g);
  const auto off_opt = baselines::GrouteEngineOptions();
  const auto fair_opt =
      baselines::GrouteEngineOptions({}, ContentionModel::kFair);
  std::vector<uint32_t> depths_off;
  std::vector<uint32_t> depths_fair;
  const auto part = MakePartition(g, 4);
  const auto off = baselines::RunGroute(g, part, off_opt, app, &depths_off);
  app.source = MaxDegreeSource(g);
  const auto fair =
      baselines::RunGroute(g, part, fair_opt, app, &depths_fair);
  EXPECT_EQ(depths_off, depths_fair);
  // Store-and-forward hops now queue on busy lanes: the simulated clock
  // can only move later.
  EXPECT_GE(fair.total_ms, off.total_ms - 1e-9);
}

}  // namespace
}  // namespace gum::sim
