// Step 4's direction (DESIGN.md §12).
//
// Step 4 — "process the frontiers" — runs on FrontierScatterBackend
// (expand/frontier_scatter.h) in one of two directions:
//
//   * scatter (push) — the paper's native model: per-executor work units
//     walk their frontier range and push one message per out-edge, merged
//     shard by shard (Gunrock-style advance). The SpMV push (SpMSpV on a
//     sparse frontier) is this scatter over the identity plan;
//   * gather (pull) — the GraphBLAST-style SpMV on a dense frontier: each
//     destination combines its frontier in-edges in one pass over a
//     per-destination in-edge structure (PullEdges).
//
// A per-iteration density rule (frontier out-edges vs. total edges,
// mirroring direction-optimized BFS's push/pull switch) selects the
// direction. Both produce byte-identical vertex values for every thread
// count — the determinism contract (DESIGN.md §7) does not
// depend on the direction. Only accounted time and message telemetry
// differ: the pull reads remote adjacency instead of forwarding messages,
// so its iterations charge remote-gather bytes and send zero messages.

#ifndef GUM_CORE_EXPAND_EXPAND_BACKEND_H_
#define GUM_CORE_EXPAND_EXPAND_BACKEND_H_

#include <cstdint>
#include <string_view>
#include <vector>

namespace gum::core {

// What the user asked for (EngineOptions / gum_cli --expand).
enum class ExpandBackendKind {
  kScatter,  // always frontier scatter (the pre-backend engine, bit for bit)
  kSpmv,     // always SpMV: pull when dense, push when sparse
  kAuto,     // density heuristic: pull when dense, scatter when sparse
};

// What one iteration actually runs.
enum class ExpandMode {
  kScatter,
  kSpmvPush,
  kSpmvPull,
};

// An iteration is "dense" when the frontier's out-edges are at least this
// fraction of all edges; dense iterations take the pull direction. It
// mirrors DOBFS-style switch points: pull pays a full edge scan, so it
// must be amortized over a busy frontier.
inline constexpr double kPullDensityThreshold = 0.05;

const char* ExpandBackendKindName(ExpandBackendKind kind);
const char* ExpandModeName(ExpandMode mode);

// Parses "scatter" | "spmv" | "auto"; returns false on anything else.
bool ParseExpandBackendKind(std::string_view text, ExpandBackendKind* out);

// The per-iteration direction decision. Depends only on the census loads
// and the (constant) edge count, so it is deterministic across thread
// counts.
ExpandMode SelectExpandMode(ExpandBackendKind kind, double frontier_edges,
                            double total_edges);

// One iteration's expansion telemetry, in the shapes the time-accounting
// layer consumes. All cells are sums of integer quantities (exact in any
// accumulation order); the backend reduces its per-unit / per-shard
// scratch into this in a deterministic order anyway.
struct ExpandCounters {
  // [fragment][executor] out-edges of `fragment` expanded by `executor`.
  std::vector<std::vector<double>> edges_done;
  // [fragment][executor] of those, hub-cached remote expansions.
  std::vector<std::vector<double>> hub_edges;
  // [executor][fragment] aggregated messages toward `fragment`.
  std::vector<std::vector<double>> agg_msgs;
  // [executor][fragment] raw (pre-aggregation) messages toward `fragment`.
  std::vector<std::vector<double>> raw_msgs;
  double stolen_edges = 0.0;   // expanded away from the fragment's owner
  uint64_t edges_processed = 0;

  void Reset(int num_fragments);
};

}  // namespace gum::core

#endif  // GUM_CORE_EXPAND_EXPAND_BACKEND_H_
