// Deterministic per-superstep message store, sharded by destination.
//
// The BSP engines combine every message addressed to a vertex into one
// inbox slot ("early aggregation", paper Fig. 4b). The store and its
// ShardMap serve push supersteps only: a gather (a stationary superstep or
// the SpMV pull) applies each destination's combined message in place and
// never touches them (core/expand/frontier_scatter.h). The store pairs the
// typed inbox with a membership Bitmap and supports two write paths:
//
//   * Deposit — direct combine. With one host thread the scatter backend
//     runs its work units serially in canonical order (fragments
//     ascending, executors in plan order) and deposits every message as it
//     is emitted; that order is the canonical replay order below.
//   * MessageStaging + MergeShard — only for units that run concurrently
//     on a pool: each worker bins its outgoing messages by destination
//     shard at generation time (O(1) routing, see ShardMap); shard s then
//     replays every unit's shard-s bin in canonical work-unit order. A
//     vertex lives in exactly one shard, so each vertex's combine chain —
//     and therefore the "first writer pays the transfer" attribution of
//     agg_msgs — is bit-identical to the serial direct deposits for any
//     shard x thread count. Shard widths are multiples of 64, so concurrent
//     shard replays never touch the same Bitmap word.
//
// Either way the push then drains each shard's range through Apply
// (ForEachPendingInRange) right after that shard's replay, and clears the
// store (EndSuperstep). See DESIGN.md, "Determinism contract" and "Sharded
// message plane".

#ifndef GUM_CORE_MESSAGE_STORE_H_
#define GUM_CORE_MESSAGE_STORE_H_

#include <algorithm>
#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "common/bitmap.h"
#include "graph/types.h"

namespace gum::core {

// Partition of [0, num_vertices) into contiguous equal-width shards. The
// width is rounded up to a multiple of 64 (the Bitmap word size) so that
// two shards never share a membership word — the invariant that lets
// the push replay and apply shards on different threads.
// Routing is one integer division: ShardOf(v) = v / width().
class ShardMap {
 public:
  // One shard that routes every vertex to bin 0.
  ShardMap() = default;
  // Splits num_vertices into at most num_shards word-aligned shards (fewer
  // when the graph is too small to fill them).
  ShardMap(size_t num_vertices, int num_shards);

  int num_shards() const { return num_shards_; }
  size_t width() const { return width_; }
  int ShardOf(graph::VertexId v) const { return static_cast<int>(v / width_); }
  size_t ShardBegin(int s) const { return static_cast<size_t>(s) * width_; }
  size_t ShardEnd(int s) const {
    return std::min(num_vertices_, ShardBegin(s) + width_);
  }

 private:
  size_t num_vertices_ = 0;
  // The default width routes every representable vertex to shard 0.
  size_t width_ = std::numeric_limits<size_t>::max();
  int num_shards_ = 1;
};

// One worker's staged outgoing messages, binned by destination shard; each
// bin preserves generation order. Configure() must run before Emit; a
// default-constructed staging routes everything to one bin.
template <typename Message>
class MessageStaging {
 public:
  using Entry = std::pair<graph::VertexId, Message>;

  // Adopts the map's routing. Reshaping to a new shard count re-reserves
  // each bin's previous high-water size so steady-state supersteps stop
  // re-growing vectors.
  void Configure(const ShardMap& shards) {
    width_ = shards.width();
    const size_t n = static_cast<size_t>(shards.num_shards());
    if (bins_.size() != n) {
      bins_.assign(n, {});
      for (size_t s = 0; s < n && s < high_water_.size(); ++s) {
        bins_[s].reserve(high_water_[s]);
      }
    }
    if (high_water_.size() < n) high_water_.resize(n, 0);
  }

  void Emit(graph::VertexId v, const Message& m) {
    bins_[v / width_].emplace_back(v, m);
  }

  // Empties every bin in place, keeping capacity for the next iteration.
  void Clear() {
    for (size_t s = 0; s < bins_.size(); ++s) {
      high_water_[s] = std::max(high_water_[s], bins_[s].size());
      bins_[s].clear();
    }
  }

  size_t size() const {
    size_t total = 0;
    for (const auto& bin : bins_) total += bin.size();
    return total;
  }
  // Resident bytes of the bins (capacity, not size): the high-water memory
  // a long-lived staging buffer keeps across supersteps and queries.
  size_t CapacityBytes() const {
    size_t total = 0;
    for (const auto& bin : bins_) total += bin.capacity() * sizeof(Entry);
    return total;
  }
  int num_bins() const { return static_cast<int>(bins_.size()); }
  const std::vector<Entry>& bin(int s) const { return bins_[s]; }

 private:
  size_t width_ = std::numeric_limits<size_t>::max();
  std::vector<std::vector<Entry>> bins_ =
      std::vector<std::vector<Entry>>(1);
  std::vector<size_t> high_water_ = std::vector<size_t>(1, 0);
};

// Untyped membership state shared by every MessageStore<Message>
// instantiation (definitions in message_store.cc).
class MessageStoreBase {
 public:
  MessageStoreBase() = default;
  explicit MessageStoreBase(size_t num_vertices);

  size_t num_vertices() const { return set_.size(); }
  bool Has(graph::VertexId v) const { return set_.Test(v); }
  // Vertices with a pending combined message.
  size_t PendingCount() const;
  // Forgets every pending message; call once the push has drained the
  // store.
  void EndSuperstep();

 protected:
  // Re-arms the membership set for a new run over num_vertices vertices.
  void ResetMembership(size_t num_vertices);

 protected:
  Bitmap set_;
};

template <typename Message>
class MessageStore : public MessageStoreBase {
 public:
  MessageStore() = default;
  explicit MessageStore(size_t num_vertices)
      : MessageStoreBase(num_vertices), inbox_(num_vertices) {}

  // Reinitializes for a new run over num_vertices vertices, keeping the
  // inbox allocation when the size is unchanged (serving-mode reuse).
  // Stale inbox bytes are never observable: Get is only reached for
  // pending vertices, whose slots a Deposit wrote first.
  void Reset(size_t num_vertices) {
    ResetMembership(num_vertices);
    inbox_.resize(num_vertices);
  }

  // Deposits one message: the first writer stores it, later writers fold
  // theirs in with `combine(old, incoming)`. Returns true iff v had no
  // pending message — the event that pays the transfer under the early-
  // aggregation model.
  template <typename CombineFn>
  bool Deposit(graph::VertexId v, const Message& m, CombineFn&& combine) {
    if (set_.TestAndSet(v)) {
      inbox_[v] = m;
      return true;
    }
    inbox_[v] = combine(inbox_[v], m);
    return false;
  }

  // Replays shard `shard` of staged[0..num_units) in canonical unit order;
  // `first_writer(unit, v)` fires per fresh slot. Distinct shards touch
  // disjoint word-aligned vertex ranges, so calls with different `shard`
  // values may run concurrently.
  template <typename CombineFn, typename FirstWriterFn>
  void MergeShard(int shard,
                  const std::vector<MessageStaging<Message>>& staged,
                  size_t num_units, CombineFn&& combine,
                  FirstWriterFn&& first_writer) {
    for (size_t u = 0; u < num_units; ++u) {
      if (shard >= staged[u].num_bins()) continue;
      for (const auto& [v, m] : staged[u].bin(shard)) {
        if (Deposit(v, m, combine)) first_writer(u, v);
      }
    }
  }

  const Message& Get(graph::VertexId v) const { return inbox_[v]; }

  // Pending messages with begin <= vertex < end, ascending. Safe to call
  // concurrently for word-aligned disjoint ranges (i.e. shard ranges).
  template <typename Fn>
  void ForEachPendingInRange(size_t begin, size_t end, Fn&& fn) const {
    set_.ForEachSetInRange(begin, end, [&](size_t v) {
      fn(static_cast<graph::VertexId>(v), inbox_[v]);
    });
  }

 private:
  std::vector<Message> inbox_;
};

}  // namespace gum::core

#endif  // GUM_CORE_MESSAGE_STORE_H_
