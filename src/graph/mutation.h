// Dynamic-graph mutation plane (DESIGN.md §14).
//
// A MutationPlan is a schedule of batched edge/vertex insertions and
// deletions parsed from a spec string (grammar mirroring the fault plan's,
// fault/fault_plane.h) or generated deterministically from a seed. A
// MutationStream binds the plan to a base graph: it validates every event,
// expands seeded random plans, and buckets events by epoch — the update
// batch applied at the superstep/query barrier between two runs.
//
// DeltaCsr is the storage layer: per-vertex added-edge segments plus
// deletion marks layered over an immutable base CsrGraph, so an epoch's
// batch applies without rebuilding the flat CSR. Periodic compaction folds
// the overlay back into a flat CsrGraph. DynamicGraph owns the evolving
// pair (base snapshot + overlay) and reports, per batch, exactly which
// events took effect — the seed set incremental recompute restarts from
// (algos/incremental.h).
//
// Mutation semantics are set-like and history-independent:
//   * inserting an edge that already exists is a no-op;
//   * deleting an edge that does not exist is a no-op;
//   * self-loop inserts are dropped (the CSR builder strips self loops);
//   * a vertex delete (delv) expands to deleting every incident edge —
//     the id space never changes, the vertex just becomes isolated;
//   * under symmetric mode (WCC graphs) every insert/delete also applies
//     to the mirrored direction.
// So the logical edge set after epoch K is a pure function of
// (base graph, plan, seed, K) — a mutated run is exactly as reproducible
// as a static one.

#ifndef GUM_GRAPH_MUTATION_H_
#define GUM_GRAPH_MUTATION_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/csr.h"

namespace gum::graph {

enum class MutationKind {
  kInsertEdge,    // ins:u-v@K[xW]
  kDeleteEdge,    // del:u-v@K
  kDeleteVertex,  // delv:u@K (drop all incident edges of u)
};

const char* MutationKindName(MutationKind kind);

// One scheduled mutation. `epoch` is 1-based: epoch K's batch applies at
// the barrier after the K-th standing-query run (epoch 0 is the unmutated
// base graph).
struct MutationEvent {
  MutationKind kind = MutationKind::kInsertEdge;
  VertexId u = 0;
  VertexId v = 0;       // unused for kDeleteVertex
  int epoch = 1;
  float weight = 1.0f;  // insert weight

  // Canonical spec-grammar form of this event (re-parseable).
  std::string Describe() const;
};

// A parsed mutation plan. Spec grammar — events separated by ';':
//   ins:<u>-<v>@<epoch>           insert edge (u, v), weight 1
//   ins:<u>-<v>@<epoch>x<weight>  weighted insert
//   del:<u>-<v>@<epoch>           delete edge (u, v)
//   delv:<u>@<epoch>              delete vertex u's incident edges
// "none" (or an empty string) is the empty plan. Two seeded generator
// forms expand once bound to a graph:
//   rand:<epochs>x<per-epoch>      mixed stream (3:1 inserts to deletes)
//   rand-ins:<epochs>x<per-epoch>  insert-only stream
// Unknown event kinds and malformed numbers are InvalidArgument — never a
// silent fallback.
class MutationPlan {
 public:
  static Result<MutationPlan> Parse(const std::string& spec);

  bool empty() const { return !random_ && events_.empty(); }
  bool random() const { return random_; }
  const std::vector<MutationEvent>& events() const { return events_; }

 private:
  friend class MutationStream;
  bool random_ = false;
  bool random_inserts_only_ = false;
  int random_epochs_ = 0;
  int random_per_epoch_ = 0;
  std::vector<MutationEvent> events_;
};

// A mutation plan bound to a base graph (and, for random plans, a seed):
// every endpoint validated against the vertex count, every epoch >= 1,
// random plans expanded deterministically, events bucketed by epoch.
class MutationStream {
 public:
  MutationStream() = default;

  static Result<MutationStream> Create(const MutationPlan& plan,
                                       const CsrGraph& base,
                                       uint64_t seed = 1);

  // True when the plan schedules at least one event. An inactive stream is
  // contractually invisible: callers treat it exactly like no stream.
  bool active() const { return num_epochs_ > 0; }
  int num_epochs() const { return num_epochs_; }
  // Events applying at `epoch` (1..num_epochs), in plan order.
  std::span<const MutationEvent> BatchAt(int epoch) const;

  // Canonical ';'-joined event list (re-parseable spec), for reports/logs.
  std::string Describe() const;

 private:
  int num_epochs_ = 0;
  std::vector<MutationEvent> events_;       // sorted by (epoch, plan order)
  std::vector<size_t> epoch_offsets_;       // num_epochs_ + 1
};

// Per-vertex CSR delta segments over an immutable base graph: added
// out-edges (kept ascending by target) plus deletion marks on base
// targets. The logical out-adjacency of u is
//   (base out-edges of u minus deleted marks) merged with added segment,
// both ascending, so iteration order is canonical for the determinism
// contract. The overlay never touches the base arrays — engines keep
// reading the base CSR until the epoch materializes a new flat snapshot.
//
// The base must be built with the default CsrBuildOptions::deduplicate and
// remove_self_loops: then every merged row ascends strictly and holds no
// self loop, which is what Compact hands the CSR assembly unchecked.
class DeltaCsr {
 public:
  // `base` must outlive the overlay.
  explicit DeltaCsr(const CsrGraph* base, bool symmetric = false);

  enum class Effect { kNoop, kInserted, kDeleted };

  // Applies one edge operation (one direction; DynamicGraph mirrors under
  // symmetric mode). Returns what actually happened; `weight_out`, if
  // non-null, receives the weight of a deleted edge (for incremental
  // tightness checks). kDeleteVertex events must be expanded by the caller.
  Effect ApplyEdge(MutationKind kind, VertexId u, VertexId v, float weight,
                   float* weight_out = nullptr);

  bool HasEdge(VertexId u, VertexId v) const;
  // Weight of logical edge (u, v); only valid when HasEdge(u, v).
  float EdgeWeight(VertexId u, VertexId v) const;
  uint32_t OutDegree(VertexId u) const;
  // Merged logical out-adjacency of u, ascending by target:
  // fn(target, weight).
  template <typename Fn>
  void ForEachOut(VertexId u, Fn&& fn) const;

  // --- delta-segment geometry ---
  size_t added_edges() const { return added_count_; }
  size_t deleted_edges() const { return deleted_count_; }
  // Vertices carrying a non-empty segment or deletion mark.
  size_t touched_vertices() const;
  // Resident bytes of the overlay: segment entries, deletion marks, and a
  // directory slot per touched vertex — what an epoch's apply ships to the
  // owning devices.
  size_t delta_bytes() const;
  bool empty() const { return added_count_ == 0 && deleted_count_ == 0; }

  const CsrGraph& base() const { return *base_; }
  bool symmetric() const { return symmetric_; }

  // Folds base + overlay into a fresh flat CsrGraph: each vertex's merged
  // row goes straight into the CSR assembly, which keeps the weights iff
  // some logical edge weight differs from 1 and builds the in-CSR.
  CsrGraph Compact() const;

 private:
  // DynamicGraph::Apply walks the added segments to expand a delv.
  friend class DynamicGraph;

  struct AddedEdge {
    VertexId dst;
    float weight;
  };

  const CsrGraph* base_;
  bool symmetric_ = false;
  // Per-vertex segments, lazily grown; empty vectors for untouched ids.
  std::vector<std::vector<AddedEdge>> added_;    // ascending by dst
  std::vector<std::vector<VertexId>> deleted_;   // ascending base targets
  size_t added_count_ = 0;
  size_t deleted_count_ = 0;
};

// The evolving graph: an owned flat base snapshot plus the DeltaCsr
// overlay, advanced one epoch batch at a time. Compact() folds the overlay
// into a new base (the charged CSR rebuild); Materialize() produces the
// flat snapshot engines run on each epoch without disturbing the overlay.
class DynamicGraph {
 public:
  DynamicGraph(CsrGraph base, bool symmetric);

  struct ApplyStats {
    int inserted = 0;
    int deleted = 0;
    int noops = 0;
    // Events that took effect, delv expanded to per-edge deletes and
    // symmetric mirrors included; deletes carry the removed edge's weight.
    // This is the seed set for incremental recompute.
    std::vector<MutationEvent> effective;
    // Sorted unique endpoints of the effective events.
    std::vector<VertexId> affected;
    // Overlay bytes after this batch (what the barrier ships).
    size_t delta_bytes = 0;
  };

  ApplyStats Apply(std::span<const MutationEvent> batch);

  // Flat snapshot of the current logical graph (base ⊕ overlay).
  CsrGraph Materialize() const { return delta_->Compact(); }
  // Folds the overlay into the base and clears it.
  void Compact();

  const CsrGraph& base() const { return *base_; }
  const DeltaCsr& delta() const { return *delta_; }
  bool symmetric() const { return symmetric_; }
  int epochs_applied() const { return epochs_applied_; }

 private:
  std::unique_ptr<CsrGraph> base_;
  std::unique_ptr<DeltaCsr> delta_;
  bool symmetric_ = false;
  int epochs_applied_ = 0;
};

template <typename Fn>
void DeltaCsr::ForEachOut(VertexId u, Fn&& fn) const {
  const std::span<const VertexId> targets = base_->OutNeighbors(u);
  const std::span<const float> weights = base_->OutWeights(u);
  const std::vector<VertexId>* dels =
      u < deleted_.size() ? &deleted_[u] : nullptr;
  const std::vector<AddedEdge>* adds =
      u < added_.size() ? &added_[u] : nullptr;
  size_t b = 0;
  size_t a = 0;
  size_t d = 0;
  const size_t nb = targets.size();
  const size_t na = adds != nullptr ? adds->size() : 0;
  while (b < nb || a < na) {
    // Skip base edges marked deleted (both lists ascending).
    if (b < nb && dels != nullptr) {
      while (d < dels->size() && (*dels)[d] < targets[b]) ++d;
      if (d < dels->size() && (*dels)[d] == targets[b]) {
        ++b;
        continue;
      }
    }
    const bool take_base =
        b < nb && (a >= na || targets[b] < (*adds)[a].dst);
    if (take_base) {
      fn(targets[b], weights.empty() ? 1.0f : weights[b]);
      ++b;
    } else {
      fn((*adds)[a].dst, (*adds)[a].weight);
      ++a;
    }
  }
}

}  // namespace gum::graph

#endif  // GUM_GRAPH_MUTATION_H_
