#include "ml/polynomial_regression.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/random.h"

namespace gum::ml {

namespace {

// Mini-batch SGD.
constexpr double kLearningRate = 0.01;
constexpr double kLrDecay = 0.997;  // per-epoch multiplicative decay
constexpr double kMomentum = 0.9;   // classic heavy-ball momentum
constexpr int kEpochs = 300;
constexpr size_t kBatchSize = 32;
constexpr double kL2 = 1e-6;
constexpr double kGradientClip = 1.0;
constexpr uint64_t kSeed = 17;

void EnumerateMonomials(int dim, int max_degree, std::vector<int>* current,
                        std::vector<std::vector<int>>* out) {
  if (static_cast<int>(current->size()) == dim) {
    out->push_back(*current);
    return;
  }
  const int used = std::accumulate(current->begin(), current->end(), 0);
  for (int e = 0; e <= max_degree - used; ++e) {
    current->push_back(e);
    EnumerateMonomials(dim, max_degree, current, out);
    current->pop_back();
  }
}

}  // namespace

PolynomialRegression::PolynomialRegression(int degree) : degree_(degree) {}

std::string PolynomialRegression::name() const {
  return "polynomial_regression(d=" + std::to_string(degree_) + ")";
}

std::vector<double> PolynomialRegression::Expand(
    std::span<const double> features) const {
  std::vector<double> z(input_dim_);
  for (int j = 0; j < input_dim_; ++j) {
    z[j] = (features[j] - raw_mean_[j]) / raw_std_[j];
  }
  std::vector<double> phi(monomials_.size());
  for (size_t k = 0; k < monomials_.size(); ++k) {
    double term = 1.0;
    for (int j = 0; j < input_dim_; ++j) {
      for (int e = 0; e < monomials_[k][j]; ++e) term *= z[j];
    }
    phi[k] = term;
  }
  return phi;
}

Status PolynomialRegression::Fit(const Dataset& data) {
  if (data.samples.empty()) {
    return Status::InvalidArgument("empty training set");
  }
  input_dim_ = data.feature_dim();
  monomials_.clear();
  std::vector<int> current;
  EnumerateMonomials(input_dim_, degree_, &current, &monomials_);

  // Raw standardization.
  raw_mean_.assign(input_dim_, 0.0);
  raw_std_.assign(input_dim_, 0.0);
  for (const Sample& s : data.samples) {
    for (int j = 0; j < input_dim_; ++j) raw_mean_[j] += s.features[j];
  }
  for (double& m : raw_mean_) m /= static_cast<double>(data.size());
  for (const Sample& s : data.samples) {
    for (int j = 0; j < input_dim_; ++j) {
      const double d = s.features[j] - raw_mean_[j];
      raw_std_[j] += d * d;
    }
  }
  for (double& sd : raw_std_) {
    sd = std::sqrt(sd / static_cast<double>(data.size()));
    if (sd < 1e-12) sd = 1.0;
  }

  // Expand all samples once.
  const size_t n = data.size();
  const size_t terms = monomials_.size();
  std::vector<std::vector<double>> phi(n);
  for (size_t i = 0; i < n; ++i) phi[i] = Expand(data.samples[i].features);

  // Standardize expanded terms (keep the constant term as-is).
  mean_.assign(terms, 0.0);
  stddev_.assign(terms, 1.0);
  for (size_t k = 0; k < terms; ++k) {
    const bool is_bias = std::all_of(monomials_[k].begin(),
                                     monomials_[k].end(),
                                     [](int e) { return e == 0; });
    if (is_bias) continue;
    double m = 0;
    for (size_t i = 0; i < n; ++i) m += phi[i][k];
    m /= static_cast<double>(n);
    double var = 0;
    for (size_t i = 0; i < n; ++i) {
      const double d = phi[i][k] - m;
      var += d * d;
    }
    const double sd = std::sqrt(var / static_cast<double>(n));
    mean_[k] = m;
    stddev_[k] = sd < 1e-12 ? 1.0 : sd;
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t k = 0; k < terms; ++k) {
      phi[i][k] = (phi[i][k] - mean_[k]) / stddev_[k];
    }
  }

  // Normalize targets so the SGD step sizes are independent of the cost
  // units (ns vs scaled-ns); the relative-error objective is invariant.
  target_scale_ = 0.0;
  for (const Sample& s : data.samples) target_scale_ += s.target;
  target_scale_ /= static_cast<double>(n);
  if (target_scale_ <= 0.0) target_scale_ = 1.0;

  // Mini-batch SGD on the squared relative error.
  weights_.assign(terms, 0.0);
  Rng rng(kSeed);
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  double lr = kLearningRate;
  std::vector<double> grad(terms);
  std::vector<double> velocity(terms, 0.0);
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    for (size_t i = n; i > 1; --i) {
      std::swap(order[i - 1], order[rng.NextBounded(i)]);
    }
    for (size_t start = 0; start < n; start += kBatchSize) {
      const size_t end = std::min(n, start + kBatchSize);
      std::fill(grad.begin(), grad.end(), 0.0);
      for (size_t b = start; b < end; ++b) {
        const size_t i = order[b];
        const double t = data.samples[i].target / target_scale_;
        if (t <= 0) continue;
        double pred = 0;
        for (size_t k = 0; k < terms; ++k) pred += weights_[k] * phi[i][k];
        const double err = 2.0 * (pred - t) / (t * t);
        for (size_t k = 0; k < terms; ++k) grad[k] += err * phi[i][k];
      }
      const double inv_batch = 1.0 / static_cast<double>(end - start);
      double norm_sq = 0;
      for (size_t k = 0; k < terms; ++k) {
        grad[k] = grad[k] * inv_batch + kL2 * weights_[k];
        norm_sq += grad[k] * grad[k];
      }
      const double norm = std::sqrt(norm_sq);
      const double scale = norm > kGradientClip ? kGradientClip / norm : 1.0;
      for (size_t k = 0; k < terms; ++k) {
        velocity[k] = kMomentum * velocity[k] - lr * scale * grad[k];
        weights_[k] += velocity[k];
      }
    }
    lr *= kLrDecay;
  }
  return Status::OK();
}

double PolynomialRegression::Predict(std::span<const double> features) const {
  const std::vector<double> phi = Expand(features);
  double pred = 0;
  for (size_t k = 0; k < phi.size(); ++k) {
    pred += weights_[k] * (phi[k] - mean_[k]) / stddev_[k];
  }
  pred *= target_scale_;
  return std::max(pred, 1e-3 * target_scale_);
}

}  // namespace gum::ml
