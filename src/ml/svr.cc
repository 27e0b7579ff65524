#include "ml/svr.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/random.h"

namespace gum::ml {

namespace {

constexpr int kNumRandomFeatures = 384;
constexpr double kSigma = 2.2;     // RBF bandwidth (on standardized inputs)
constexpr double kEpsilon = 0.01;  // insensitive tube, relative to target scale
constexpr double kC = 50.0;        // inverse regularization strength
constexpr double kLearningRate = 0.02;
constexpr double kLrDecay = 0.99;  // per-epoch multiplicative decay
constexpr int kEpochs = 400;
constexpr uint64_t kSeed = 23;

}  // namespace

std::vector<double> RbfSvr::Featurize(
    std::span<const double> features) const {
  const int d = kNumRandomFeatures;
  std::vector<double> z(d);
  const double scale = std::sqrt(2.0 / d);
  for (int k = 0; k < d; ++k) {
    double dot = phase_[k];
    for (int j = 0; j < input_dim_; ++j) {
      const double x = (features[j] - mean_[j]) / stddev_[j];
      dot += omega_[k][j] * x;
    }
    z[k] = scale * std::cos(dot);
  }
  return z;
}

Status RbfSvr::Fit(const Dataset& data) {
  if (data.samples.empty()) {
    return Status::InvalidArgument("empty training set");
  }
  input_dim_ = data.feature_dim();
  const size_t n = data.size();

  mean_.assign(input_dim_, 0.0);
  stddev_.assign(input_dim_, 0.0);
  for (const Sample& s : data.samples) {
    for (int j = 0; j < input_dim_; ++j) mean_[j] += s.features[j];
  }
  for (double& m : mean_) m /= static_cast<double>(n);
  for (const Sample& s : data.samples) {
    for (int j = 0; j < input_dim_; ++j) {
      const double d = s.features[j] - mean_[j];
      stddev_[j] += d * d;
    }
  }
  for (double& sd : stddev_) {
    sd = std::sqrt(sd / static_cast<double>(n));
    if (sd < 1e-12) sd = 1.0;
  }

  Rng rng(kSeed);
  const int d = kNumRandomFeatures;
  omega_.assign(d, std::vector<double>(input_dim_));
  phase_.assign(d, 0.0);
  for (int k = 0; k < d; ++k) {
    for (int j = 0; j < input_dim_; ++j) {
      omega_[k][j] = rng.NextGaussian() / kSigma;
    }
    phase_[k] = rng.NextUniform(0.0, 2.0 * M_PI);
  }

  // Train on unit-mean targets so subgradient step sizes are independent of
  // the cost units; Predict() scales back.
  target_scale_ = 0.0;
  for (const Sample& s : data.samples) target_scale_ += std::abs(s.target);
  target_scale_ /= static_cast<double>(n);
  if (target_scale_ <= 0) target_scale_ = 1.0;
  const double eps = kEpsilon;

  // Precompute random features.
  std::vector<std::vector<double>> z(n);
  for (size_t i = 0; i < n; ++i) z[i] = Featurize(data.samples[i].features);

  weights_.assign(d, 0.0);
  bias_ = 1.0;
  const double lambda = 1.0 / (kC * static_cast<double>(n));

  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  double lr = kLearningRate;
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    for (size_t i = n; i > 1; --i) {
      std::swap(order[i - 1], order[rng.NextBounded(i)]);
    }
    for (size_t idx : order) {
      double pred = bias_;
      for (int k = 0; k < d; ++k) pred += weights_[k] * z[idx][k];
      const double err = pred - data.samples[idx].target / target_scale_;
      double g = 0.0;  // subgradient of the epsilon-insensitive loss
      if (err > eps) {
        g = 1.0;
      } else if (err < -eps) {
        g = -1.0;
      }
      for (int k = 0; k < d; ++k) {
        weights_[k] -= lr * (g * z[idx][k] + lambda * weights_[k]);
      }
      bias_ -= lr * g;
    }
    lr *= kLrDecay;
  }
  return Status::OK();
}

double RbfSvr::Predict(std::span<const double> features) const {
  const std::vector<double> z = Featurize(features);
  double pred = bias_;
  for (size_t k = 0; k < z.size(); ++k) pred += weights_[k] * z[k];
  pred *= target_scale_;
  return std::max(pred, 1e-3 * target_scale_);
}

}  // namespace gum::ml
