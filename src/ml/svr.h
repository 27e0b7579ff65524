// Support vector regression with an RBF kernel (Table V row 3).
//
// The RBF kernel is approximated with random Fourier features
// (Rahimi & Recht 2007): z(x) = sqrt(2/D) * cos(W x + b) with
// W ~ N(0, 1/sigma^2); a linear epsilon-SVR is then trained on z(x) by
// subgradient descent on the epsilon-insensitive loss with L2 regularization
// — a from-scratch stand-in for libsvm-style SMO that keeps the hypothesis
// class (and the "slow to train, most accurate" profile of Table V).

#ifndef GUM_ML_SVR_H_
#define GUM_ML_SVR_H_

#include <vector>

#include "ml/model.h"

namespace gum::ml {

class RbfSvr : public RegressionModel {
 public:
  Status Fit(const Dataset& data) override;
  double Predict(std::span<const double> features) const override;
  std::string name() const override { return "svr_rbf"; }

 private:
  std::vector<double> Featurize(std::span<const double> features) const;

  int input_dim_ = 0;
  std::vector<double> mean_, stddev_;        // input standardization
  std::vector<std::vector<double>> omega_;   // D x input_dim
  std::vector<double> phase_;                // D
  std::vector<double> weights_;              // D
  double bias_ = 0.0;
  double target_scale_ = 1.0;
};

}  // namespace gum::ml

#endif  // GUM_ML_SVR_H_
