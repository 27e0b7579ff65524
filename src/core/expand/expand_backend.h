// Pluggable expand backends (DESIGN.md §12).
//
// Step 4 of a superstep — "process the frontiers" — is served by one of two
// interchangeable backends:
//
//   * frontier scatter (expand/frontier_scatter.h) — the paper's native
//     model: per-executor work units walk their frontier range and push one
//     message per out-edge, merged shard-by-shard (Gunrock-style advance);
//   * SpMV — the GraphBLAST-style linear-algebra formulation: a push
//     SpMSpV for sparse frontiers, which is the frontier-scatter pipeline
//     over the identity plan, or a pull gather (expand/spmv.h) over a
//     per-destination in-edge structure for dense frontiers, combining
//     each destination's messages in one pass.
//
// A per-iteration density heuristic (frontier out-edges vs. total edges,
// mirroring direction-optimized BFS's push/pull switch) selects the mode.
// Every backend produces byte-identical vertex values for every thread and
// shard count — the determinism contract (DESIGN.md §7) is backend-
// agnostic. Only accounted time and message telemetry differ: the pull
// gather reads remote adjacency instead of forwarding messages, so its
// iterations charge remote-gather bytes and send zero messages.

#ifndef GUM_CORE_EXPAND_EXPAND_BACKEND_H_
#define GUM_CORE_EXPAND_EXPAND_BACKEND_H_

#include <concepts>
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

struct SpmvConfig {
  // An iteration is "dense" when the frontier's out-edges are at least this
  // fraction of all edges; dense iterations take the pull direction. The
  // default mirrors DOBFS-style switch points: pull pays a full edge scan,
  // so it must be amortized over a busy frontier.
  double density_threshold = 0.05;
};

const char* ExpandBackendKindName(ExpandBackendKind kind);
const char* ExpandModeName(ExpandMode mode);

// Parses "scatter" | "spmv" | "auto"; returns false on anything else.
bool ParseExpandBackendKind(std::string_view text, ExpandBackendKind* out);

// The per-iteration direction decision. Depends only on the census loads
// and the (constant) edge count, so it is deterministic across thread and
// shard counts.
ExpandMode SelectExpandMode(ExpandBackendKind kind, double frontier_edges,
                            double total_edges, const SpmvConfig& config);

// One iteration's expansion telemetry, in the shapes the time-accounting
// layer consumes. All cells are sums of integer quantities (exact in any
// accumulation order); the backends reduce their per-unit / per-shard
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

// Optional App hook consumed by the SpMV pull gather: folds one source's
// payload straight into the accumulator, fusing Scatter and Combine:
//
//   Message CombineAll(const Message& acc, const Message& payload,
//                      float weight) const;
//
// Contract: CombineAll(acc, p, w) == Combine(acc, *Scatter(p, dst, w)) for
// every acc/p/w, Scatter never returns nullopt, and InitialAccumulator()
// is a true Combine identity (it seeds the chain). Apps whose Scatter can
// suppress edges (delta-PageRank) must not define it; the pull gather then
// falls back to the Scatter/Combine pair.
template <typename App>
concept HasCombineAll =
    requires(const App& app, const typename App::Message& m, float w) {
      { app.CombineAll(m, m, w) } ->
          std::convertible_to<typename App::Message>;
    };

}  // namespace gum::core

#endif  // GUM_CORE_EXPAND_EXPAND_BACKEND_H_
