// Struct-of-arrays per-vertex engine state (DESIGN.md §12).
//
// The engines keep two dense per-vertex arrays: the value array and the
// frontier. FrontierSoA stores the per-fragment frontiers in one flat
// fragment-major arena (`verts_`) indexed by an offsets table, instead of
// n separate std::vectors:
//   * expand walks each fragment's frontier as a contiguous span — the
//     layout the scatter loop and the SpMV payload pre-pass stream over;
//   * rebuilding the frontier each iteration clears the arena in place, so
//     steady-state supersteps reuse the high-water capacity instead of
//     re-growing n vectors (the PR 3 staging pattern, generalized);
//   * a snapshot/restore (fault plane) copies two flat vectors.
// Within a fragment, vertices are kept ascending — the canonical order the
// determinism contract (DESIGN.md §7) is proved against.
//
// VertexState bundles the value array with the frontier; it is the unit
// the fault plane's Checkpoint snapshots.

#ifndef GUM_CORE_VERTEX_STATE_H_
#define GUM_CORE_VERTEX_STATE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/types.h"

namespace gum::core {

class FrontierSoA {
 public:
  // Empties the frontier and sets the fragment count; the vertex arena
  // keeps its capacity.
  void Reset(int num_fragments);

  int num_fragments() const {
    return static_cast<int>(offsets_.size()) - 1;
  }
  size_t TotalSize() const { return verts_.size(); }
  size_t FragmentSize(int i) const {
    return offsets_[static_cast<size_t>(i) + 1] - offsets_[i];
  }
  std::span<const graph::VertexId> Fragment(int i) const {
    return {verts_.data() + offsets_[i], FragmentSize(i)};
  }
  // The flat fragment-major arena (fragment 0's vertices, then 1's, ...).
  std::span<const graph::VertexId> Flat() const { return verts_; }

  // Replaces the contents with per-fragment vertex lists.
  void Assign(const std::vector<std::vector<graph::VertexId>>& per_fragment);

  // Replaces the contents with the per-range apply's output layout:
  // fragment i's frontier is segments[0][i] + segments[1][i] + ... —
  // ranges (the push's shards, the gather's blocks) are ascending
  // contiguous vertex ranges, so the concatenation comes out ascending
  // per fragment.
  void AssignFromShardSegments(
      const std::vector<std::vector<std::vector<graph::VertexId>>>& segments,
      int num_shards, int num_fragments);

  // Builds the initial frontier: vertex v joins fragment owner[v] iff
  // is_active(v). Two passes (count, then fill) keep the arena exact.
  template <typename Pred>
  void BuildByOwner(graph::VertexId num_vertices,
                    const std::vector<uint32_t>& owner, int num_fragments,
                    Pred&& is_active) {
    offsets_.assign(static_cast<size_t>(num_fragments) + 1, 0);
    for (graph::VertexId v = 0; v < num_vertices; ++v) {
      if (is_active(v)) ++offsets_[static_cast<size_t>(owner[v]) + 1];
    }
    for (size_t i = 1; i < offsets_.size(); ++i) offsets_[i] += offsets_[i - 1];
    verts_.resize(offsets_.back());
    std::vector<size_t> cursor(offsets_.begin(), offsets_.end() - 1);
    for (graph::VertexId v = 0; v < num_vertices; ++v) {
      if (is_active(v)) verts_[cursor[owner[v]]++] = v;
    }
  }

  // Resident bytes of the arena (capacity, not size): the high-water
  // memory a long-lived serving RunContext keeps across queries.
  size_t ArenaBytes() const {
    return verts_.capacity() * sizeof(graph::VertexId) +
           offsets_.capacity() * sizeof(size_t);
  }

  // Per-fragment vectors (the pre-SoA layout); test/debug helper.
  std::vector<std::vector<graph::VertexId>> ToVectors() const;

 private:
  std::vector<graph::VertexId> verts_;  // fragment-major arena
  std::vector<size_t> offsets_;         // num_fragments + 1
};

// The engine's dense per-vertex state: values plus the current frontier.
template <typename Value>
struct VertexState {
  std::vector<Value> values;
  FrontierSoA frontier;
};

}  // namespace gum::core

#endif  // GUM_CORE_VERTEX_STATE_H_
