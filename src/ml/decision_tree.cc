#include "ml/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace gum::ml {

namespace {

double MeanTarget(const Dataset& data, const std::vector<int>& indices,
                  int begin, int end) {
  double sum = 0;
  for (int k = begin; k < end; ++k) sum += data.samples[indices[k]].target;
  return sum / std::max(1, end - begin);
}

}  // namespace

Status DecisionTreeRegressor::Fit(const Dataset& data) {
  if (data.samples.empty()) {
    return Status::InvalidArgument("empty training set");
  }
  nodes_.clear();
  std::vector<int> indices(data.size());
  std::iota(indices.begin(), indices.end(), 0);
  BuildNode(indices, 0, static_cast<int>(indices.size()), 0, data);
  return Status::OK();
}

int DecisionTreeRegressor::BuildNode(std::vector<int>& indices, int begin,
                                     int end, int depth, const Dataset& data) {
  const int node_id = static_cast<int>(nodes_.size());
  nodes_.push_back(Node{});
  const int count = end - begin;

  auto make_leaf = [&]() {
    nodes_[node_id].feature = -1;
    nodes_[node_id].value = MeanTarget(data, indices, begin, end);
    return node_id;
  };

  if (depth >= kMaxDepth || count < kMinSamplesSplit) {
    return make_leaf();
  }

  const int dim = data.feature_dim();
  // Best split: minimize sum of squared errors of the two children, found
  // with a sorted prefix sweep per feature.
  double best_sse = std::numeric_limits<double>::infinity();
  int best_feature = -1;
  double best_threshold = 0;

  std::vector<int> sorted(indices.begin() + begin, indices.begin() + end);
  for (int f = 0; f < dim; ++f) {
    std::sort(sorted.begin(), sorted.end(), [&](int a, int b) {
      return data.samples[a].features[f] < data.samples[b].features[f];
    });
    double left_sum = 0, left_sq = 0;
    double right_sum = 0, right_sq = 0;
    for (int k = 0; k < count; ++k) {
      const double t = data.samples[sorted[k]].target;
      right_sum += t;
      right_sq += t * t;
    }
    for (int k = 0; k < count - 1; ++k) {
      const double t = data.samples[sorted[k]].target;
      left_sum += t;
      left_sq += t * t;
      right_sum -= t;
      right_sq -= t * t;
      const int nl = k + 1, nr = count - nl;
      if (nl < kMinSamplesLeaf || nr < kMinSamplesLeaf) {
        continue;
      }
      const double xk = data.samples[sorted[k]].features[f];
      const double xk1 = data.samples[sorted[k + 1]].features[f];
      if (xk == xk1) continue;  // cannot split between equal values
      const double sse_l = left_sq - left_sum * left_sum / nl;
      const double sse_r = right_sq - right_sum * right_sum / nr;
      if (sse_l + sse_r < best_sse) {
        best_sse = sse_l + sse_r;
        best_feature = f;
        best_threshold = 0.5 * (xk + xk1);
      }
    }
  }

  if (best_feature == -1) return make_leaf();

  // Partition in place.
  const auto mid_it = std::partition(
      indices.begin() + begin, indices.begin() + end, [&](int idx) {
        return data.samples[idx].features[best_feature] <= best_threshold;
      });
  const int mid = static_cast<int>(mid_it - indices.begin());
  if (mid == begin || mid == end) return make_leaf();

  nodes_[node_id].feature = best_feature;
  nodes_[node_id].threshold = best_threshold;
  const int left = BuildNode(indices, begin, mid, depth + 1, data);
  const int right = BuildNode(indices, mid, end, depth + 1, data);
  nodes_[node_id].left = left;
  nodes_[node_id].right = right;
  return node_id;
}

double DecisionTreeRegressor::Predict(std::span<const double> features) const {
  if (nodes_.empty()) return 0.0;
  int node = 0;
  while (nodes_[node].feature != -1) {
    node = features[nodes_[node].feature] <= nodes_[node].threshold
               ? nodes_[node].left
               : nodes_[node].right;
  }
  return std::max(nodes_[node].value, 1e-3);
}

}  // namespace gum::ml
