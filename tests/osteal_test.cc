#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>

#include "common/random.h"
#include "core/fsteal.h"
#include "core/osteal.h"
#include "sim/reduction_schedule.h"
#include "solver/steal_problem.h"

namespace gum::core {
namespace {

std::vector<std::vector<double>> UniformCost(int n, double local,
                                             double remote) {
  std::vector<std::vector<double>> c(n, std::vector<double>(n, remote));
  for (int i = 0; i < n; ++i) c[i][i] = local;
  return c;
}

TEST(OStealTest, TinyWorkloadShrinksToOne) {
  const auto schedule =
      sim::ReductionSchedule::Build(sim::Topology::HybridCubeMesh8());
  // A handful of edges per fragment; sync costs 100us per peer.
  const auto cost = UniformCost(8, 1.0, 2.0);  // ns/edge
  const std::vector<double> loads = {3, 1, 0, 2, 0, 0, 1, 0};
  const auto dec =
      DecideOSteal(cost, loads, schedule, /*sync_per_peer_ns=*/100000.0);
  EXPECT_EQ(dec.group_size, 1);
  EXPECT_EQ(dec.active.size(), 1u);
  // Long tail: p*2 already exceeds z(1) + p, so the enumeration stops after
  // the trivial m = 1 plan and builds no LP.
  EXPECT_EQ(dec.lp_iterations_total, 0);
}

TEST(OStealTest, HeavyWorkloadKeepsAllDevices) {
  const auto schedule =
      sim::ReductionSchedule::Build(sim::Topology::HybridCubeMesh8());
  const auto cost = UniformCost(8, 1.0, 1.2);
  std::vector<double> loads(8, 5e7);  // 50M edges each
  const auto dec =
      DecideOSteal(cost, loads, schedule, /*sync_per_peer_ns=*/100000.0);
  EXPECT_EQ(dec.group_size, 8);
}

TEST(OStealTest, IntermediateWorkloadPicksMiddleGroup) {
  const auto schedule =
      sim::ReductionSchedule::Build(sim::Topology::HybridCubeMesh8());
  const auto cost = UniformCost(8, 1.0, 1.1);
  // Total work W, m workers => z ~ W*1.05/m, overhead = p*m.
  // Optimum m = sqrt(W*1.05/p). Choose W so optimum ~ 3-5.
  const double p = 100000.0;
  std::vector<double> loads(8, 2e5);  // W = 1.6e6 => m* ~ sqrt(16.8) ~ 4
  const auto dec = DecideOSteal(cost, loads, schedule, p);
  EXPECT_GE(dec.group_size, 2);
  EXPECT_LE(dec.group_size, 6);
}

TEST(OStealTest, OwnerVectorConsistentWithActive) {
  const auto schedule =
      sim::ReductionSchedule::Build(sim::Topology::HybridCubeMesh8());
  const auto cost = UniformCost(8, 1.0, 2.0);
  const std::vector<double> loads = {10, 10, 10, 10, 10, 10, 10, 10};
  const auto dec =
      DecideOSteal(cost, loads, schedule, /*sync_per_peer_ns=*/50000.0);
  ASSERT_EQ(static_cast<int>(dec.active.size()), dec.group_size);
  for (int i = 0; i < 8; ++i) {
    EXPECT_NE(std::find(dec.active.begin(), dec.active.end(), dec.owner[i]),
              dec.active.end());
  }
}

TEST(OStealTest, ZeroSyncCostNeverShrinks) {
  const auto schedule =
      sim::ReductionSchedule::Build(sim::Topology::HybridCubeMesh8());
  const auto cost = UniformCost(8, 1.0, 1.5);
  std::vector<double> loads(8, 1000);
  const auto dec = DecideOSteal(cost, loads, schedule, 0.0);
  // With free synchronization, more parallelism is never worse.
  EXPECT_EQ(dec.group_size, 8);
}

TEST(OStealTest, PredictedCostMatchesEquationFour) {
  // With one loaded fragment and uniform costs, z = load * c and the total
  // is z + p*m; verify for m=1 directly.
  const auto schedule =
      sim::ReductionSchedule::Build(sim::Topology::FullyConnected(2));
  const auto cost = UniformCost(2, 2.0, 3.0);
  const std::vector<double> loads = {100, 0};
  const double p = 1000.0;
  const auto dec = DecideOSteal(cost, loads, schedule, p);
  // m=1 options: either device alone. If device 0 survives: z=200;
  // if device 1: z=300. Schedule picks its canonical survivor; m=2 would be
  // z>=120 (split) + 2000 sync. Best should be m=1 with cost ~ z + 1000.
  EXPECT_EQ(dec.group_size, 1);
  EXPECT_NEAR(dec.predicted_cost_ns,
              (dec.active[0] == 0 ? 200.0 : 300.0) + p, 1e-6);
}

TEST(OStealTest, MaxGroupSizeCapsEnumeration) {
  const auto schedule =
      sim::ReductionSchedule::Build(sim::Topology::HybridCubeMesh8());
  const auto cost = UniformCost(8, 1.0, 1.2);
  std::vector<double> loads(8, 5e7);  // heavy: uncapped picks all 8
  const auto uncapped = DecideOSteal(cost, loads, schedule, 100000.0);
  ASSERT_EQ(uncapped.group_size, 8);
  const auto capped = DecideOSteal(cost, loads, schedule, 100000.0,
                                   /*max_group_size=*/5);
  EXPECT_LE(capped.group_size, 5);
  ASSERT_EQ(static_cast<int>(capped.active.size()), capped.group_size);
  // Zero (the default) means "no cap" and must match the legacy signature.
  const auto zero = DecideOSteal(cost, loads, schedule, 100000.0,
                                 /*max_group_size=*/0);
  EXPECT_EQ(zero.group_size, uncapped.group_size);
  EXPECT_EQ(zero.owner, uncapped.owner);
}

// --- Early exit: the enumeration stops once p*m alone reaches the best
// total, and must pick exactly what solving every m would. ---

// Reference: solve every candidate m and keep the strict-`<` winner.
OStealDecision ExhaustiveOSteal(const std::vector<std::vector<double>>& cost,
                                const std::vector<double>& loads,
                                const sim::ReductionSchedule& schedule,
                                double p, int max_group_size) {
  const int n = schedule.num_devices();
  const int limit = max_group_size > 0 ? std::min(max_group_size, n) : n;
  OStealDecision best;
  best.predicted_cost_ns = std::numeric_limits<double>::infinity();
  for (int m = 1; m <= limit; ++m) {
    const std::vector<int> active = schedule.ActiveFor(m);
    auto plan = solver::SolveStealProblem(cost, loads, active);
    if (!plan.ok()) continue;
    const double total = plan->makespan + p * m;
    if (total < best.predicted_cost_ns) {
      best.predicted_cost_ns = total;
      best.group_size = m;
    }
  }
  best.owner = schedule.OwnerVectorFor(best.group_size);
  best.active = schedule.ActiveFor(best.group_size);
  return best;
}

TEST(OStealEarlyExitTest, MatchesExhaustiveEnumerationBitForBit) {
  const auto topo = sim::Topology::HybridCubeMesh8();
  const std::vector<std::vector<int>> forbidden_sets = {{}, {3}, {2, 5},
                                                        {0, 3, 7}};
  Rng rng(20231);
  int shrunk = 0, full = 0;
  for (int trial = 0; trial < 16; ++trial) {
    std::vector<std::vector<double>> cost(8, std::vector<double>(8));
    for (int i = 0; i < 8; ++i) {
      for (int j = 0; j < 8; ++j) {
        cost[i][j] = i == j ? 0.5 + rng.NextDouble()
                            : 1.0 + 4.0 * rng.NextDouble();
      }
    }
    // Load magnitudes from a few edges to tens of millions, with empty
    // fragments, so every regime of Eq. (4) gets a winner.
    const double scale = std::pow(10.0, static_cast<double>(1 + trial % 7));
    std::vector<double> loads(8);
    for (double& load : loads) {
      load = rng.NextBounded(3) == 0
                 ? 0.0
                 : std::floor(scale * (1.0 + 9.0 * rng.NextDouble()));
    }
    for (const auto& forbidden : forbidden_sets) {
      const auto schedule =
          sim::ReductionSchedule::BuildWithForbidden(topo, forbidden);
      const int survivors = 8 - static_cast<int>(forbidden.size());
      std::vector<int> caps = {survivors, 2};
      if (forbidden.empty()) caps.push_back(0);
      for (const double p : {0.0, 1e3, 1e5, 1e7}) {
        for (const int cap : caps) {
          const auto ref = ExhaustiveOSteal(cost, loads, schedule, p, cap);
          const auto dec = DecideOSteal(cost, loads, schedule, p, cap);
          SCOPED_TRACE(::testing::Message()
                       << "trial=" << trial << " p=" << p << " cap=" << cap
                       << " forbidden=" << forbidden.size());
          ASSERT_EQ(dec.group_size, ref.group_size);
          EXPECT_EQ(dec.owner, ref.owner);
          EXPECT_EQ(dec.active, ref.active);
          EXPECT_EQ(std::bit_cast<uint64_t>(dec.predicted_cost_ns),
                    std::bit_cast<uint64_t>(ref.predicted_cost_ns));
          (dec.group_size < survivors ? shrunk : full) += 1;
        }
      }
    }
  }
  // The sweep must exercise both outcomes, or it proves little.
  EXPECT_GT(shrunk, 0);
  EXPECT_GT(full, 0);
}

// --- BuildWithForbidden: ownership inheritance over arbitrary survivor
// subsets (the recovery path when failed devices are mid-range, not a
// prefix). ---

void ExpectForbiddenNeverOwn(const sim::ReductionSchedule& schedule,
                             const std::vector<int>& forbidden) {
  const int n = schedule.num_devices();
  const int max_m = n - static_cast<int>(forbidden.size());
  for (int m = 1; m <= max_m; ++m) {
    const auto active = schedule.ActiveFor(m);
    ASSERT_EQ(static_cast<int>(active.size()), m);
    for (int dead : forbidden) {
      EXPECT_EQ(std::find(active.begin(), active.end(), dead), active.end())
          << "m=" << m << " dead=" << dead;
    }
    const auto owner = schedule.OwnerVectorFor(m);
    for (int frag = 0; frag < n; ++frag) {
      EXPECT_NE(
          std::find(active.begin(), active.end(), owner[frag]), active.end())
          << "m=" << m << " fragment " << frag << " owned by " << owner[frag];
    }
  }
}

TEST(ReductionScheduleForbiddenTest, MidRangeSubsetNeverOwnsFragments) {
  const auto topo = sim::Topology::HybridCubeMesh8();
  // Arbitrary mid-range / scattered subsets, not prefixes.
  for (const auto& forbidden : std::vector<std::vector<int>>{
           {3}, {2, 5}, {1, 4, 6}, {0, 3, 7}, {2, 3, 4, 5}}) {
    const auto schedule =
        sim::ReductionSchedule::BuildWithForbidden(topo, forbidden);
    ExpectForbiddenNeverOwn(schedule, forbidden);
  }
}

TEST(ReductionScheduleForbiddenTest, ForbiddenDevicesAreEvictedFirst) {
  const std::vector<int> forbidden = {2, 5, 6};
  const auto schedule = sim::ReductionSchedule::BuildWithForbidden(
      sim::Topology::HybridCubeMesh8(), forbidden);
  const auto& steps = schedule.steps();
  ASSERT_EQ(steps.size(), 7u);
  // The first |forbidden| victims are exactly the forbidden set, and their
  // receivers are always allowed devices.
  std::vector<int> first_victims;
  for (size_t k = 0; k < forbidden.size(); ++k) {
    first_victims.push_back(steps[k].victim);
    EXPECT_EQ(std::find(forbidden.begin(), forbidden.end(),
                        steps[k].receiver),
              forbidden.end())
        << "step " << k << " receiver " << steps[k].receiver;
  }
  std::sort(first_victims.begin(), first_victims.end());
  EXPECT_EQ(first_victims, forbidden);
}

TEST(ReductionScheduleForbiddenTest, EmptyForbiddenEqualsBuild) {
  const auto topo = sim::Topology::HybridCubeMesh8();
  const auto plain = sim::ReductionSchedule::Build(topo);
  const auto empty = sim::ReductionSchedule::BuildWithForbidden(topo, {});
  ASSERT_EQ(plain.steps().size(), empty.steps().size());
  for (size_t k = 0; k < plain.steps().size(); ++k) {
    EXPECT_EQ(plain.steps()[k].victim, empty.steps()[k].victim) << k;
    EXPECT_EQ(plain.steps()[k].receiver, empty.steps()[k].receiver) << k;
  }
}

TEST(ReductionScheduleForbiddenTest, DecisionOverSurvivorsAvoidsTheDead) {
  // The recovery flow: forbid the dead device, cap the group at the
  // survivor count, and check no fragment lands on the dead device.
  const std::vector<int> forbidden = {4};
  const auto schedule = sim::ReductionSchedule::BuildWithForbidden(
      sim::Topology::HybridCubeMesh8(), forbidden);
  const auto cost = UniformCost(8, 1.0, 1.5);
  std::vector<double> loads(8, 2e5);
  const auto dec = DecideOSteal(cost, loads, schedule, 100000.0,
                                /*max_group_size=*/7);
  EXPECT_LE(dec.group_size, 7);
  for (int frag = 0; frag < 8; ++frag) EXPECT_NE(dec.owner[frag], 4);
  for (int d : dec.active) EXPECT_NE(d, 4);
}

}  // namespace
}  // namespace gum::core
