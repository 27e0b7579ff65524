// Whole-graph degree statistics and a BFS pseudo-diameter estimate.
//
// The Gini coefficient and degree-distribution entropy follow the
// definitions of paper Table I (after Kunegis & Preusse, "Fairness on the
// Web"); they are also the whole-graph counterparts of the per-frontier
// features extracted in src/ml/features.*.

#ifndef GUM_GRAPH_STATS_H_
#define GUM_GRAPH_STATS_H_

#include <cstdint>
#include <span>

#include "graph/csr.h"

namespace gum::graph {

struct DegreeStats {
  double avg_out_degree = 0;
  double avg_in_degree = 0;
  uint32_t max_out_degree = 0;
  uint32_t max_in_degree = 0;
  uint32_t min_out_degree = 0;
  uint32_t min_in_degree = 0;
  double gini = 0;     // of the total (in+out) degree sequence, in [0, 1)
  double entropy = 0;  // normalized degree-distribution entropy, in [0, 1]
};

DegreeStats ComputeDegreeStats(const CsrGraph& g);

// Gini coefficient of a degree sequence (0 = equal, ->1 skewed):
// 2*sum((i+1)*d_(i)) / (n*sum(d)) - (n+1)/n over the ascending order
// d_(0) <= ... <= d_(n-1). Degrees below a small cap are counted, not
// sorted; only the tail at or above it is sorted, at the front of
// `degrees`, so the call may reorder `degrees`.
//
// The sum still runs per element, in double, over that ascending order,
// so the result is bit-identical to sorting the whole sequence for every
// input.
double GiniCoefficient(std::span<uint32_t> degrees);

// Normalized entropy of the distribution d(u)/sum(d): H / ln(n).
double DegreeEntropy(std::span<const uint32_t> degrees);

// Double-sweep BFS lower bound on the diameter, treating edges as
// undirected. Good enough to label graphs "long diameter" vs "short".
uint32_t PseudoDiameter(const CsrGraph& g, uint64_t seed = 1);

}  // namespace gum::graph

#endif  // GUM_GRAPH_STATS_H_
