// Edge-cut graph partitioning (paper §II, Fig. 11 "seg / random / metis").
//
// A Partition assigns every vertex (and therefore all its out-edges) to one
// of n parts. Three partitioners are provided:
//   * kSegment   — "seg": contiguous vertex ranges balanced by out-edges;
//                  preserves id-locality (the locality-aware partitioner of
//                  paper Exp-6).
//   * kRandom    — hash-based random assignment (the paper's default for the
//                  main comparison, Exp-1).
//   * kMetisLike — a from-scratch multilevel partitioner in the METIS
//                  tradition: heavy-edge-matching coarsening, greedy initial
//                  partition, boundary FM-style refinement minimizing the
//                  edge cut under a balance constraint.

#ifndef GUM_GRAPH_PARTITION_H_
#define GUM_GRAPH_PARTITION_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "graph/csr.h"

namespace gum::graph {

enum class PartitionerKind { kSegment, kRandom, kMetisLike };

const char* PartitionerName(PartitionerKind kind);

struct Partition {
  int num_parts = 0;
  std::vector<uint32_t> owner;  // per-vertex part id, size num_vertices

  // Derived views (filled by PartitionGraph):
  std::vector<std::vector<VertexId>> part_vertices;  // sorted vertex lists
  std::vector<EdgeId> part_out_edges;                // out-edge count per part

  // Edges whose endpoints live in different parts.
  EdgeId edge_cut = 0;

  // max(part_out_edges) / mean(part_out_edges); 1.0 is perfectly balanced.
  double EdgeImbalance() const;
};

struct PartitionOptions {
  PartitionerKind kind = PartitionerKind::kRandom;
  uint64_t seed = 1;
};

// The metis-like partitioner's largest allowed part weight, as a multiple
// of the average (a vertex weighs 1 + its out-degree).
inline constexpr double kMetisBalanceSlack = 1.05;

// Partitions g into num_parts parts. Fails with InvalidArgument for
// num_parts < 1 or an empty graph with num_parts > 0 requested vertices.
Result<Partition> PartitionGraph(const CsrGraph& g, int num_parts,
                                 const PartitionOptions& options = {});

// Recomputes the derived views (part_vertices, part_out_edges, edge_cut)
// of an existing owner assignment against g. Used when the graph mutates
// under pinned ownership (graph/mutation.h): the id space never changes,
// so owners stay valid while degrees and the cut drift per epoch.
// p->owner must cover g.num_vertices().
void RefreshDerivedViews(Partition* p, const CsrGraph& g);

}  // namespace gum::graph

#endif  // GUM_GRAPH_PARTITION_H_
