// Per-device priority worklists for the async engine mode (DESIGN.md §15).
//
// One abstraction, three flavors:
//   kBuckets — classic delta-stepping: entries live in buckets of width
//       `delta` keyed by floor(priority / delta); Pop drains the lowest
//       buckets first, FIFO within a bucket. The buckets sit in a flat
//       store: a key-sorted list of slots whose entry buffers outlive the
//       buckets that drain from them. Near-far SSSP is the degenerate
//       two-bucket configuration of this structure (the near pile is
//       every bucket at or below the current band).
//   kSmq — stealing multi-queue (the MultiQueue/SMQ family): several
//       internal min-heaps; Pop samples two queues and serves the better
//       top, and with probability `steal_prob` first rebalances a batch of
//       `steal_batch_size` entries from the fuller sampled queue to the
//       emptier one. All sampling is driven by a seeded Rng, so a fixed
//       seed reproduces the exact pop order (seed-determinism, §7).
//   kSortedSet — no priorities: Pop drains every pending vertex as one
//       batch, whatever the cap, in ascending vertex order (Groute's sorted
//       active set), ordered by an LSD radix sort. The driver pushes a
//       vertex only while it is not already pending, so the batch holds
//       each vertex once. It has no priority tail, so ExtractTail never
//       takes anything.
//
// Entries are hints, not truth: the driver keeps a dirty bitmap and skips
// popped entries whose vertex is no longer dirty (lazy deletion), so a
// vertex may be pushed many times as its priority improves and only the
// first live pop processes it. Priorities may be negative (delta-PageRank
// pushes -residual); bucket keys are signed.

#ifndef GUM_CORE_ASYNC_WORKLIST_H_
#define GUM_CORE_ASYNC_WORKLIST_H_

#include <array>
#include <cstdint>
#include <vector>

#include "common/random.h"
#include "core/async/async_options.h"
#include "graph/types.h"

namespace gum::core {

struct WorklistEntry {
  graph::VertexId vertex = 0;
  double priority = 0.0;
};

struct WorklistStats {
  uint64_t pushes = 0;
  uint64_t pops = 0;
  uint64_t smq_rebalances = 0;       // intra-worklist queue-to-queue steals
  uint64_t smq_rebalanced_entries = 0;
  // Pushes per bucket index, relative to the first bucket ever pushed and
  // clamped into [0, kHistogramBuckets) — the run report's occupancy
  // histogram.
  static constexpr int kHistogramBuckets = 32;
  std::array<uint64_t, kHistogramBuckets> bucket_histogram{};
};

// Every operation reuses the worklist's own buffers, so once they have
// grown to a run's high-water mark, neither a run nor a Reset allocates.
class PriorityWorklist {
 public:
  static constexpr int64_t kNoBucket = INT64_MAX;

  // delta must be > 0 (resolve the auto default before constructing).
  PriorityWorklist(AsyncWorklistKind kind, double delta, int smq_queues,
                   double steal_prob, int steal_batch_size, uint64_t seed);

  // Restores the state the constructor builds from these arguments, the
  // Rng and the stats included, and keeps every buffer for reuse.
  void Reset(AsyncWorklistKind kind, double delta, int smq_queues,
             double steal_prob, int steal_batch_size, uint64_t seed);

  void Push(graph::VertexId v, double priority);

  // Lowest occupied bucket index, kNoBucket when empty. For SMQ this is
  // the bucket of the best sampled-free minimum (exact: scans queue tops).
  int64_t MinBucket() const;

  // Pops up to max_entries entries into *out (appended). Bucketed: drains
  // buckets with index <= max_bucket, lowest first, FIFO within. SMQ:
  // samples two queues per call, optionally rebalances, then serves from
  // the better queue — max_bucket is ignored (the SMQ family is only
  // approximately priority-ordered by construction). Sorted set: every
  // pending vertex, both bounds ignored. Returns the count.
  int Pop(int64_t max_bucket, int max_entries,
          std::vector<WorklistEntry>* out);

  // Removes ~`fraction` of the live entries from the high-priority tail
  // downward — whole buckets at a time, never touching the lowest occupied
  // bucket — and appends them to *out in deterministic order. This is the
  // priority-range steal payload: a contiguous span of the victim's
  // coldest buckets. Returns the number of entries extracted.
  int ExtractTail(double fraction, std::vector<WorklistEntry>* out);

  size_t size() const { return live_; }
  bool empty() const { return live_ == 0; }
  int64_t BucketOf(double priority) const;
  double delta() const { return delta_; }
  const WorklistStats& stats() const { return stats_; }

 private:
  // One kBuckets bucket. Its entry buffer stays with the slot when the
  // bucket drains, and the next bucket opened in the slot reuses it.
  struct Bucket {
    std::vector<WorklistEntry> entries;
    size_t head = 0;  // entries[0, head) already popped
    size_t Live() const { return entries.size() - head; }
  };
  // An occupied bucket: its key and the slot holding its entries.
  struct BucketRef {
    int64_t key = 0;
    uint32_t slot = 0;
  };
  // Heap entry for the SMQ flavor: ordered by (priority, seq) so ties
  // break on push order, never on container internals.
  struct HeapEntry {
    double priority = 0.0;
    uint64_t seq = 0;
    graph::VertexId vertex = 0;
    bool operator>(const HeapEntry& other) const {
      if (priority != other.priority) return priority > other.priority;
      return seq > other.seq;
    }
  };

  void RecordHistogram(int64_t bucket);
  Bucket& OpenBucket(int64_t key);
  void CloseBucket(uint32_t slot);
  int PopBuckets(int64_t max_bucket, int max_entries,
                 std::vector<WorklistEntry>* out);
  int PopSmq(int max_entries, std::vector<WorklistEntry>* out);
  int PopSorted(std::vector<WorklistEntry>* out);
  void RadixSortPending();
  int ExtractSmqTail(size_t target, std::vector<WorklistEntry>* out);

  AsyncWorklistKind kind_ = AsyncWorklistKind::kBuckets;
  double delta_ = 1.0;
  double steal_prob_ = 0.0;
  int steal_batch_size_ = 0;
  Rng rng_;

  // kBuckets: a flat bucket store. order_ lists the occupied buckets by
  // descending key, so the lowest (the one Pop drains) is at the back;
  // every slot not named in order_ is on free_slots_.
  std::vector<BucketRef> order_;
  std::vector<Bucket> slots_;
  std::vector<uint32_t> free_slots_;
  std::vector<std::vector<HeapEntry>> queues_;  // kSmq (std::*_heap order)
  std::vector<graph::VertexId> pending_;        // kSortedSet (push order)
  uint64_t next_seq_ = 0;

  // Scratch: the sorted set's radix buffer and digit counts, and the SMQ
  // tail's bucket keys and taken entries.
  std::vector<graph::VertexId> sort_buf_;
  std::vector<uint32_t> sort_counts_;
  std::vector<int64_t> tail_keys_;
  std::vector<HeapEntry> taken_;

  size_t live_ = 0;
  bool histogram_based_ = false;
  int64_t histogram_base_ = 0;
  WorklistStats stats_;
};

}  // namespace gum::core

#endif  // GUM_CORE_ASYNC_WORKLIST_H_
