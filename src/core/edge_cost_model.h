// Engine-facing cost model handle.
//
// The stealing policies need g(W_i) — the per-edge compute cost of a
// frontier (paper §III-B). In production GUM this is always the learned
// model; the exact-oracle mode exists for paper Exp-7, which compares the
// end-to-end slowdown of the learned model against "the exact values of
// g(W_i)".

#ifndef GUM_CORE_EDGE_COST_MODEL_H_
#define GUM_CORE_EDGE_COST_MODEL_H_

#include "graph/frontier_features.h"
#include "ml/model.h"
#include "sim/device.h"
#include "sim/kernel_cost.h"

namespace gum::core {

class EdgeCostModel {
 public:
  // Uses the substrate's true cost function directly.
  static EdgeCostModel ExactOracle(const sim::DeviceParams& params) {
    EdgeCostModel m;
    m.params_ = params;
    return m;
  }

  // Uses a trained regression model; `model` must outlive this handle.
  static EdgeCostModel Learned(const ml::RegressionModel* model) {
    EdgeCostModel m;
    m.model_ = model;
    return m;
  }

  bool is_learned() const { return model_ != nullptr; }

  // Estimated compute cost (ns) of one edge of a frontier with
  // characteristics `w`.
  double EdgeCostNs(const graph::FrontierFeatures& w) const {
    if (model_ == nullptr) return sim::TrueEdgeCostNs(w, params_);
    const auto arr = w.ToArray();
    return model_->Predict(arr);
  }

 private:
  const ml::RegressionModel* model_ = nullptr;
  sim::DeviceParams params_;
};

}  // namespace gum::core

#endif  // GUM_CORE_EDGE_COST_MODEL_H_
