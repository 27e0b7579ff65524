// CART regression tree (Table V row 4).
//
// Greedy binary splits minimizing weighted child variance, mean prediction
// at the leaves. Depth / leaf-size limited to avoid memorizing the noise in
// the running logs.

#ifndef GUM_ML_DECISION_TREE_H_
#define GUM_ML_DECISION_TREE_H_

#include <vector>

#include "ml/model.h"

namespace gum::ml {

class DecisionTreeRegressor : public RegressionModel {
 public:
  // Growth limits: a node at depth 12 or with fewer than 16 samples is a
  // leaf, and no split leaves a child with fewer than 8 samples.
  static constexpr int kMaxDepth = 12;
  static constexpr int kMinSamplesLeaf = 8;
  static constexpr int kMinSamplesSplit = 16;

  Status Fit(const Dataset& data) override;
  double Predict(std::span<const double> features) const override;
  std::string name() const override { return "decision_tree"; }

  int num_nodes() const { return static_cast<int>(nodes_.size()); }

 private:
  struct Node {
    int feature = -1;        // -1 => leaf
    double threshold = 0.0;  // go left if x[feature] <= threshold
    int left = -1, right = -1;
    double value = 0.0;      // leaf prediction
  };

  int BuildNode(std::vector<int>& indices, int begin, int end, int depth,
                const Dataset& data);

  std::vector<Node> nodes_;
};

}  // namespace gum::ml

#endif  // GUM_ML_DECISION_TREE_H_
