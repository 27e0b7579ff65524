// Polynomial regression trained with SGD on the RMSRE objective —
// the cost model GUM ships with (paper §III-B, Table V row 2).
//
// The feature vector is expanded into all multivariate monomials up to
// `degree` (degree 4 over the six Table-I variables gives 210 terms); the
// expanded features are z-score standardized, and the weights are fit by
// mini-batch SGD on the squared-relative-error loss of Eq. (3):
//
//     L = mean(((w . phi(x) - t) / t)^2)
//
// which is exactly weighted least squares with weight 1/t^2 — so SGD
// converges to the paper's optimum while keeping the paper's training
// procedure.

#ifndef GUM_ML_POLYNOMIAL_REGRESSION_H_
#define GUM_ML_POLYNOMIAL_REGRESSION_H_

#include <vector>

#include "ml/model.h"

namespace gum::ml {

class PolynomialRegression : public RegressionModel {
 public:
  explicit PolynomialRegression(int degree = 4);

  Status Fit(const Dataset& data) override;
  double Predict(std::span<const double> features) const override;
  std::string name() const override;

  int degree() const { return degree_; }
  // Expanded monomial count after Fit.
  int num_terms() const { return static_cast<int>(weights_.size()); }

 private:
  std::vector<double> Expand(std::span<const double> features) const;

  int degree_;
  int input_dim_ = 0;
  // Monomial exponent tuples, each of size input_dim_.
  std::vector<std::vector<int>> monomials_;
  std::vector<double> raw_mean_, raw_std_;  // standardization of raw inputs
  std::vector<double> mean_, stddev_;  // standardization of expanded terms
  std::vector<double> weights_;        // includes bias as monomial (0,..,0)
  double target_scale_ = 1.0;          // mean target; SGD runs scale-free
};

}  // namespace gum::ml

#endif  // GUM_ML_POLYNOMIAL_REGRESSION_H_
