#include "core/expand/expand_backend.h"

#include <algorithm>

namespace gum::core {

const char* ExpandBackendKindName(ExpandBackendKind kind) {
  switch (kind) {
    case ExpandBackendKind::kScatter:
      return "scatter";
    case ExpandBackendKind::kSpmv:
      return "spmv";
    case ExpandBackendKind::kAuto:
      return "auto";
  }
  return "scatter";
}

const char* ExpandModeName(ExpandMode mode) {
  switch (mode) {
    case ExpandMode::kScatter:
      return "scatter";
    case ExpandMode::kSpmvPush:
      return "spmv_push";
    case ExpandMode::kSpmvPull:
      return "spmv_pull";
  }
  return "scatter";
}

bool ParseExpandBackendKind(std::string_view text, ExpandBackendKind* out) {
  if (text == "scatter") {
    *out = ExpandBackendKind::kScatter;
  } else if (text == "spmv") {
    *out = ExpandBackendKind::kSpmv;
  } else if (text == "auto") {
    *out = ExpandBackendKind::kAuto;
  } else {
    return false;
  }
  return true;
}

ExpandMode SelectExpandMode(ExpandBackendKind kind, double frontier_edges,
                            double total_edges) {
  if (kind == ExpandBackendKind::kScatter) return ExpandMode::kScatter;
  const bool dense = total_edges > 0.0 &&
                     frontier_edges >= kPullDensityThreshold * total_edges;
  if (kind == ExpandBackendKind::kSpmv) {
    return dense ? ExpandMode::kSpmvPull : ExpandMode::kSpmvPush;
  }
  return dense ? ExpandMode::kSpmvPull : ExpandMode::kScatter;
}

void ExpandCounters::Reset(int num_fragments) {
  const size_t n = static_cast<size_t>(num_fragments);
  const auto reset_matrix = [n](std::vector<std::vector<double>>& m) {
    if (m.size() != n) m.assign(n, std::vector<double>(n, 0.0));
    for (auto& row : m) {
      if (row.size() != n) row.assign(n, 0.0);
      std::fill(row.begin(), row.end(), 0.0);
    }
  };
  reset_matrix(edges_done);
  reset_matrix(hub_edges);
  reset_matrix(agg_msgs);
  reset_matrix(raw_msgs);
  stolen_edges = 0.0;
  edges_processed = 0;
}

}  // namespace gum::core
