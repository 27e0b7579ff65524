#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>

#include "common/random.h"
#include "ml/dataset.h"
#include "ml/decision_tree.h"
#include "ml/linear_regression.h"
#include "ml/model.h"
#include "ml/polynomial_regression.h"
#include "ml/svr.h"
#include "tests/test_util.h"

namespace gum::ml {
namespace {

// Small shared dataset for the whole suite (generation dominates runtime).
const Dataset& CostData() {
  static const Dataset* data = [] {
    CostDatasetOptions opt;
    opt.frontiers_per_graph = 120;
    opt.noise_stddev = 0.03;
    return new Dataset(GenerateDefaultCostDataset(opt));
  }();
  return *data;
}

TEST(LinearRegressionTest, FitsExactLinearFunction) {
  Dataset data;
  Rng rng(4);
  for (int i = 0; i < 200; ++i) {
    const double a = rng.NextUniform(0, 10), b = rng.NextUniform(0, 5);
    data.samples.push_back({{a, b}, 3.0 * a - 2.0 * b + 7.0});
  }
  LinearRegression model;
  ASSERT_TRUE(model.Fit(data).ok());
  const std::vector<double> x = {2.0, 1.0};
  EXPECT_NEAR(model.Predict(x), 3.0 * 2 - 2.0 * 1 + 7.0, 1e-6);
}

TEST(LinearRegressionTest, EmptyDatasetRejected) {
  LinearRegression model;
  EXPECT_FALSE(model.Fit(Dataset{}).ok());
}

TEST(PolynomialRegressionTest, FitsQuadratic) {
  Dataset data;
  Rng rng(5);
  for (int i = 0; i < 400; ++i) {
    const double a = rng.NextUniform(0.5, 4.0);
    data.samples.push_back({{a}, 1.0 + a * a});
  }
  PolynomialRegression model(3);
  ASSERT_TRUE(model.Fit(data).ok());
  EXPECT_LT(Rmsre(model, data), 0.05);
}

TEST(PolynomialRegressionTest, TermCountMatchesCombinatorics) {
  Dataset data;
  data.samples.push_back({{1, 1, 1, 1, 1, 1}, 1.0});
  data.samples.push_back({{2, 1, 0, 1, 3, 1}, 2.0});
  PolynomialRegression model(4);
  ASSERT_TRUE(model.Fit(data).ok());
  // C(6 + 4, 4) = 210 monomials of degree <= 4 over 6 variables.
  EXPECT_EQ(model.num_terms(), 210);
}

TEST(DecisionTreeTest, FitsPiecewiseConstant) {
  Dataset data;
  for (int i = 0; i < 200; ++i) {
    const double x = i / 200.0;
    data.samples.push_back({{x}, x < 0.5 ? 1.0 : 5.0});
  }
  DecisionTreeRegressor model;
  ASSERT_TRUE(model.Fit(data).ok());
  EXPECT_NEAR(model.Predict(std::vector<double>{0.2}), 1.0, 1e-9);
  EXPECT_NEAR(model.Predict(std::vector<double>{0.9}), 5.0, 1e-9);
  EXPECT_GT(model.num_nodes(), 1);
}

TEST(DecisionTreeTest, RespectsLeafSizeLimits) {
  Dataset data;
  Rng rng(6);
  for (int i = 0; i < 100; ++i) {
    data.samples.push_back({{rng.NextDouble()}, rng.NextDouble()});
  }
  DecisionTreeRegressor model;
  ASSERT_TRUE(model.Fit(data).ok());
  // Every leaf holds at least kMinSamplesLeaf of the 100 samples, so there
  // are at most 100 / kMinSamplesLeaf leaves, and a binary tree with L
  // leaves has 2L - 1 nodes.
  EXPECT_GT(model.num_nodes(), 1);
  EXPECT_LE(model.num_nodes(),
            2 * (100 / DecisionTreeRegressor::kMinSamplesLeaf) - 1);
}

TEST(SvrTest, FitsSmoothFunction) {
  Dataset data;
  Rng rng(7);
  for (int i = 0; i < 300; ++i) {
    const double a = rng.NextUniform(-2, 2);
    data.samples.push_back({{a}, 2.0 + std::sin(a)});
  }
  RbfSvr model;
  ASSERT_TRUE(model.Fit(data).ok());
  EXPECT_LT(Rmsre(model, data), 0.1);
}

TEST(RmsreTest, ZeroForPerfectModel) {
  struct Oracle : RegressionModel {
    Status Fit(const Dataset&) override { return Status::OK(); }
    double Predict(std::span<const double> f) const override {
      return f[0];
    }
    std::string name() const override { return "oracle"; }
  };
  Dataset data;
  data.samples.push_back({{2.0}, 2.0});
  data.samples.push_back({{5.0}, 5.0});
  Oracle oracle;
  EXPECT_DOUBLE_EQ(Rmsre(oracle, data), 0.0);
}

TEST(RmsreTest, RelativeNotAbsolute) {
  struct ConstantModel : RegressionModel {
    Status Fit(const Dataset&) override { return Status::OK(); }
    double Predict(std::span<const double>) const override { return 2.0; }
    std::string name() const override { return "const"; }
  };
  Dataset data;
  data.samples.push_back({{0.0}, 1.0});  // rel err 1.0
  ConstantModel model;
  EXPECT_NEAR(Rmsre(model, data), 1.0, 1e-12);
}

// ---- The Table-V ordering property: on the cost-model learning task the
// polynomial/SVR/tree models must beat plain linear regression on RMSRE. ----

TEST(ModelComparisonTest, PolynomialBeatsLinearOnCostData) {
  const auto [train, test] = CostData().Split(0.8, 11);
  LinearRegression linear;
  PolynomialRegression poly(4);
  ASSERT_TRUE(linear.Fit(train).ok());
  ASSERT_TRUE(poly.Fit(train).ok());
  const double lin = Rmsre(linear, test);
  const double pol = Rmsre(poly, test);
  EXPECT_LT(pol, lin) << "poly=" << pol << " linear=" << lin;
  EXPECT_LT(pol, 0.25) << "polynomial model should be accurate";
}

TEST(ModelComparisonTest, TreeIsReasonableOnCostData) {
  const auto [train, test] = CostData().Split(0.8, 12);
  DecisionTreeRegressor tree;
  ASSERT_TRUE(tree.Fit(train).ok());
  EXPECT_LT(Rmsre(tree, test), 0.6);
}

TEST(ModelComparisonTest, SvrIsAccurateOnCostData) {
  const auto [train, test] = CostData().Split(0.8, 13);
  RbfSvr svr;
  ASSERT_TRUE(svr.Fit(train).ok());
  EXPECT_LT(Rmsre(svr, test), 0.35);
}

TEST(ModelComparisonTest, AllModelsPredictPositiveCosts) {
  const auto [train, test] = CostData().Split(0.8, 14);
  std::vector<std::unique_ptr<RegressionModel>> models;
  models.push_back(std::make_unique<LinearRegression>());
  models.push_back(std::make_unique<PolynomialRegression>(4));
  models.push_back(std::make_unique<DecisionTreeRegressor>());
  models.push_back(std::make_unique<RbfSvr>());
  for (auto& model : models) {
    ASSERT_TRUE(model->Fit(train).ok()) << model->name();
    for (const Sample& s : test.samples) {
      EXPECT_GT(model->Predict(s.features), 0.0) << model->name();
    }
  }
}

// Golden pins for the learned models' fixed numbers (SGD, SVR and tree
// hyper-parameters): the four Table V models fit a small seeded cost
// dataset, and their predictions on the held-out samples fold into one
// FNV-1a digest per model as bit patterns. Captured from the models before
// those numbers became constants.
TEST(ModelGoldenTest, TableVPredictionsBitIdentical) {
  CostDatasetOptions opt;
  opt.frontiers_per_graph = 24;
  opt.seed = 5;
  const auto [train, probe] = GenerateDefaultCostDataset(opt).Split(0.8, 3);
  std::vector<std::unique_ptr<RegressionModel>> models;
  models.push_back(std::make_unique<LinearRegression>());
  models.push_back(std::make_unique<PolynomialRegression>(4));
  models.push_back(std::make_unique<RbfSvr>());
  models.push_back(std::make_unique<DecisionTreeRegressor>());
  constexpr uint64_t kGolden[4] = {
      4368060661925770547ull, 2178238422519136994ull,
      8573801841796718202ull, 13554064928564547255ull};
  ASSERT_EQ(probe.size(), 24u);
  for (size_t m = 0; m < models.size(); ++m) {
    ASSERT_TRUE(models[m]->Fit(train).ok()) << models[m]->name();
    uint64_t digest = test::kFnvBasis;
    for (const Sample& s : probe.samples) {
      digest = test::Fnv1a(
          digest, std::bit_cast<uint64_t>(models[m]->Predict(s.features)));
    }
    EXPECT_EQ(digest, kGolden[m]) << models[m]->name();
  }
}

}  // namespace
}  // namespace gum::ml
