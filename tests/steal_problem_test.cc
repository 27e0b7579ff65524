#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/random.h"
#include "solver/steal_problem.h"
#include "tests/test_util.h"

namespace gum::solver {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<std::vector<double>> UniformCost(int n, double local,
                                             double remote) {
  std::vector<std::vector<double>> c(n, std::vector<double>(n, remote));
  for (int i = 0; i < n; ++i) c[i][i] = local;
  return c;
}

void ExpectRowSumsMatchLoads(const StealPlan& plan,
                             const std::vector<double>& load) {
  for (size_t i = 0; i < load.size(); ++i) {
    double sum = 0;
    for (double x : plan.assignment[i]) {
      EXPECT_GE(x, 0.0);
      EXPECT_NEAR(x, std::round(x), 1e-9) << "assignment must be integral";
      sum += x;
    }
    EXPECT_NEAR(sum, load[i], 1e-9) << "row " << i;
  }
}

TEST(StealProblemTest, BalancedLoadStaysPut) {
  const auto cost = UniformCost(4, 1.0, 2.0);
  const std::vector<double> load = {100, 100, 100, 100};
  auto plan = SolveStealProblem(cost, load, {0, 1, 2, 3});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ExpectRowSumsMatchLoads(*plan, load);
  // Local processing of equal loads is already optimal.
  EXPECT_NEAR(plan->makespan, 100.0, 1.0);
}

TEST(StealProblemTest, SkewedLoadGetsBalanced) {
  const auto cost = UniformCost(2, 1.0, 2.0);
  const std::vector<double> load = {10, 2};
  auto plan = SolveStealProblem(cost, load, {0, 1});
  ASSERT_TRUE(plan.ok());
  ExpectRowSumsMatchLoads(*plan, load);
  // Analytic optimum 22/3 (see simplex_test); integral rounding nearby.
  EXPECT_LT(plan->makespan, 8.5);
  EXPECT_GT(plan->assignment[0][1], 0.0) << "worker 1 must steal";
}

TEST(StealProblemTest, RemoteCostDiscouragesStealing) {
  // Remote processing 100x local: keep everything local even if skewed.
  const auto cost = UniformCost(2, 1.0, 100.0);
  const std::vector<double> load = {10, 2};
  auto plan = SolveStealProblem(cost, load, {0, 1});
  ASSERT_TRUE(plan.ok());
  EXPECT_NEAR(plan->assignment[0][0], 10.0, 1e-9);
  EXPECT_NEAR(plan->makespan, 10.0, 1e-9);
}

TEST(StealProblemTest, ForbiddenWorkerGetsNothing) {
  auto cost = UniformCost(3, 1.0, 2.0);
  for (int i = 0; i < 3; ++i) cost[i][2] = kInf;  // worker 2 evicted
  const std::vector<double> load = {30, 30, 30};
  auto plan = SolveStealProblem(cost, load, {0, 1});
  ASSERT_TRUE(plan.ok());
  ExpectRowSumsMatchLoads(*plan, load);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(plan->assignment[i][2], 0.0);
}

TEST(StealProblemTest, AllForbiddenIsInfeasible) {
  auto cost = UniformCost(2, 1.0, 2.0);
  cost[0][0] = kInf;
  cost[0][1] = kInf;
  auto plan = SolveStealProblem(cost, {5, 5}, {0, 1});
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInfeasible);
}

TEST(StealProblemTest, EmptyLoadsTrivial) {
  const auto cost = UniformCost(4, 1.0, 2.0);
  auto plan = SolveStealProblem(cost, {0, 0, 0, 0}, {0, 1, 2, 3});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->makespan, 0.0);
}

TEST(StealProblemTest, SingleWorkerTakesEverything) {
  const auto cost = UniformCost(3, 1.0, 2.0);
  const std::vector<double> load = {5, 7, 9};
  auto plan = SolveStealProblem(cost, load, {1});
  ASSERT_TRUE(plan.ok());
  ExpectRowSumsMatchLoads(*plan, load);
  EXPECT_NEAR(plan->assignment[1][1], 7.0, 1e-9);
  EXPECT_NEAR(plan->assignment[0][1], 5.0, 1e-9);
}

TEST(StealProblemTest, ExactMilpMatchesRoundedLpClosely) {
  const auto cost = UniformCost(3, 1.0, 1.5);
  const std::vector<double> load = {17, 3, 1};
  StealProblemOptions exact;
  exact.exact_milp = true;
  auto lp_plan = SolveStealProblem(cost, load, {0, 1, 2});
  auto milp_plan = SolveStealProblem(cost, load, {0, 1, 2}, exact);
  ASSERT_TRUE(lp_plan.ok());
  ASSERT_TRUE(milp_plan.ok());
  ExpectRowSumsMatchLoads(*milp_plan, load);
  EXPECT_LE(milp_plan->makespan, lp_plan->makespan + 1e-6);
  EXPECT_NEAR(milp_plan->makespan, lp_plan->makespan, 2.0);
}

TEST(StealProblemTest, AsymmetricCostsRouteToCheapWorker) {
  // Worker 1 processes fragment 0's edges almost as cheaply as worker 0,
  // worker 2 is expensive: stealing should prefer worker 1.
  std::vector<std::vector<double>> cost = {
      {1.0, 1.1, 5.0},
      {1.1, 1.0, 5.0},
      {5.0, 5.0, 1.0},
  };
  const std::vector<double> load = {100, 0, 0};
  auto plan = SolveStealProblem(cost, load, {0, 1, 2});
  ASSERT_TRUE(plan.ok());
  EXPECT_GT(plan->assignment[0][1], plan->assignment[0][2]);
}

TEST(GreedyStealTest, RespectsForbiddenAndBalances) {
  auto cost = UniformCost(3, 1.0, 1.2);
  cost[0][2] = kInf;
  cost[1][2] = kInf;
  cost[2][2] = kInf;
  const StealPlan plan = GreedyStealPlan(cost, {50, 10, 0}, {0, 1});
  double sum = 0;
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(plan.assignment[i][2], 0.0);
    for (double x : plan.assignment[i]) sum += x;
  }
  EXPECT_NEAR(sum, 60.0, 1e-9);
  EXPECT_GT(plan.makespan, 0.0);
}

TEST(GreedyStealTest, GreedyNeverBeatsLpByMuch) {
  const auto cost = UniformCost(4, 1.0, 1.6);
  const std::vector<double> load = {40, 13, 7, 2};
  auto lp_plan = SolveStealProblem(cost, load, {0, 1, 2, 3});
  const StealPlan greedy = GreedyStealPlan(cost, load, {0, 1, 2, 3});
  ASSERT_TRUE(lp_plan.ok());
  // The LP can split fragments, the greedy cannot: LP <= greedy (+rounding).
  EXPECT_LE(lp_plan->makespan, greedy.makespan + 1.0);
}

TEST(PlanMakespanTest, ComputesColumnMax) {
  const std::vector<std::vector<double>> cost = {{1.0, 2.0}, {3.0, 1.0}};
  const std::vector<std::vector<double>> assignment = {{4.0, 0.0},
                                                       {0.0, 5.0}};
  EXPECT_DOUBLE_EQ(PlanMakespan(cost, assignment), 5.0);
}

// Golden pins for the solver's fixed numbers (the simplex tolerance and
// iteration cap, the branch-and-bound node budget, integrality and gap
// tolerances): seeded instances at n in {2, 4, 8}, with and without a
// forbidden (+infinity) column, solved as the rounded LP and exactly.
// Captured from the solver before those numbers became constants; the
// makespan compares as bits and the assignment folds into an FNV-1a
// digest.
TEST(StealProblemGoldenTest, SeededInstancesBitIdentical) {
  struct Golden {
    uint64_t makespan_bits, assignment_digest;
    int lp_iterations, milp_nodes;
  };
  // n in {2, 4, 8} x {no forbidden column, last column forbidden} x
  // {rounded LP, exact}.
  constexpr Golden kGolden[12] = {
      {4628080768395768963ull, 622612201476068341ull, 6, 0},
      {4628080768395768963ull, 622612201476068341ull, 6, 3},
      {4644581150954466675ull, 4988640933979231221ull, 5, 0},
      {4644581150954466675ull, 4988640933979231221ull, 5, 1},
      {4630265312780548399ull, 10469144796088722533ull, 15, 0},
      {4630265312780548399ull, 10469144796088722533ull, 15, 53},
      {4633589305385826381ull, 7340268954973070437ull, 12, 0},
      {4633589305385826381ull, 7340268954973070437ull, 12, 3},
      {4631624306957249123ull, 3963307560361855013ull, 50, 0},
      {4631624306957249123ull, 3963307560361855013ull, 50, 47},
      {4631411942544807864ull, 226938350760429605ull, 37, 0},
      {4631411942544807864ull, 226938350760429605ull, 37, 99},
  };
  int row = 0;
  for (const int n : {2, 4, 8}) {
    for (const bool forbidden : {false, true}) {
      Rng rng(100 + 10 * n + (forbidden ? 1 : 0));
      std::vector<std::vector<double>> cost(n, std::vector<double>(n));
      std::vector<double> load(n);
      for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
          cost[i][j] = i == j ? rng.NextUniform(0.4, 0.6)
                              : rng.NextUniform(0.8, 2.0);
        }
        // Loads of at most 200 edges leave the rounded LP a gap, so the
        // exact solve branches (up to 99 nodes here).
        const double skew = rng.NextDouble();
        load[i] = std::floor(skew * skew * 200.0) + 1.0;
      }
      if (forbidden) {
        for (int i = 0; i < n; ++i) cost[i][n - 1] = kInf;
      }
      std::vector<int> workers(n);
      std::iota(workers.begin(), workers.end(), 0);
      for (const bool exact : {false, true}) {
        SCOPED_TRACE(testing::Message() << "row " << row);
        StealProblemOptions options;
        options.exact_milp = exact;
        auto plan = SolveStealProblem(cost, load, workers, options);
        ASSERT_TRUE(plan.ok()) << plan.status().ToString();
        uint64_t digest = test::kFnvBasis;
        for (const auto& assignment_row : plan->assignment) {
          for (const double x : assignment_row) {
            digest = test::Fnv1a(digest, std::bit_cast<uint64_t>(x));
          }
        }
        const Golden& want = kGolden[row++];
        EXPECT_EQ(std::bit_cast<uint64_t>(plan->makespan), want.makespan_bits)
            << plan->makespan;
        EXPECT_EQ(digest, want.assignment_digest);
        EXPECT_EQ(plan->lp_iterations, want.lp_iterations);
        EXPECT_EQ(plan->milp_nodes, want.milp_nodes);
      }
    }
  }
}

}  // namespace
}  // namespace gum::solver
