#include "core/async/worklist.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>

#include "common/logging.h"

namespace gum::core {

namespace {

// The sorted set's radix digit width: about log2 of the set size, within
// these bounds.
constexpr int kMinDigitBits = 4;
constexpr int kMaxDigitBits = 11;

}  // namespace

PriorityWorklist::PriorityWorklist(AsyncWorklistKind kind, double delta,
                                   int smq_queues, double steal_prob,
                                   int steal_batch_size, uint64_t seed) {
  Reset(kind, delta, smq_queues, steal_prob, steal_batch_size, seed);
}

void PriorityWorklist::Reset(AsyncWorklistKind kind, double delta,
                             int smq_queues, double steal_prob,
                             int steal_batch_size, uint64_t seed) {
  GUM_CHECK(delta > 0.0) << "worklist delta must be positive";
  kind_ = kind;
  delta_ = delta;
  steal_prob_ = steal_prob;
  steal_batch_size_ = steal_batch_size;
  rng_ = Rng(seed);
  order_.clear();
  free_slots_.clear();
  for (size_t i = slots_.size(); i-- > 0;) {
    slots_[i].entries.clear();
    slots_[i].head = 0;
    free_slots_.push_back(static_cast<uint32_t>(i));
  }
  for (auto& q : queues_) q.clear();
  if (kind_ == AsyncWorklistKind::kSmq) {
    queues_.resize(static_cast<size_t>(std::max(1, smq_queues)));
  }
  pending_.clear();
  next_seq_ = 0;
  live_ = 0;
  histogram_based_ = false;
  histogram_base_ = 0;
  stats_ = WorklistStats{};
}

int64_t PriorityWorklist::BucketOf(double priority) const {
  return static_cast<int64_t>(std::floor(priority / delta_));
}

void PriorityWorklist::RecordHistogram(int64_t bucket) {
  if (!histogram_based_) {
    histogram_based_ = true;
    histogram_base_ = bucket;
  }
  const int64_t idx = std::clamp<int64_t>(
      bucket - histogram_base_, 0, WorklistStats::kHistogramBuckets - 1);
  ++stats_.bucket_histogram[static_cast<size_t>(idx)];
}

PriorityWorklist::Bucket& PriorityWorklist::OpenBucket(int64_t key) {
  // order_ descends, so this is the first bucket whose key is <= key.
  const auto it = std::lower_bound(
      order_.begin(), order_.end(), key,
      [](const BucketRef& ref, int64_t k) { return ref.key > k; });
  if (it != order_.end() && it->key == key) return slots_[it->slot];
  uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  order_.insert(it, BucketRef{key, slot});
  return slots_[slot];
}

void PriorityWorklist::CloseBucket(uint32_t slot) {
  slots_[slot].entries.clear();
  slots_[slot].head = 0;
  free_slots_.push_back(slot);
}

void PriorityWorklist::Push(graph::VertexId v, double priority) {
  ++stats_.pushes;
  ++live_;
  if (kind_ == AsyncWorklistKind::kSortedSet) {
    pending_.push_back(v);
    return;
  }
  const int64_t bucket = BucketOf(priority);
  RecordHistogram(bucket);
  if (kind_ == AsyncWorklistKind::kBuckets) {
    OpenBucket(bucket).entries.push_back(WorklistEntry{v, priority});
  } else {
    auto& q = queues_[rng_.NextBounded(queues_.size())];
    q.push_back(HeapEntry{priority, next_seq_++, v});
    std::push_heap(q.begin(), q.end(), std::greater<>());
  }
}

int64_t PriorityWorklist::MinBucket() const {
  if (live_ == 0) return kNoBucket;
  if (kind_ == AsyncWorklistKind::kSortedSet) return 0;  // one bucket
  if (kind_ == AsyncWorklistKind::kBuckets) {
    return order_.back().key;
  }
  int64_t best = kNoBucket;
  double best_priority = 0.0;
  for (const auto& q : queues_) {
    if (q.empty()) continue;
    if (best == kNoBucket || q.front().priority < best_priority) {
      best_priority = q.front().priority;
      best = BucketOf(best_priority);
    }
  }
  return best;
}

int PriorityWorklist::Pop(int64_t max_bucket, int max_entries,
                          std::vector<WorklistEntry>* out) {
  if (kind_ == AsyncWorklistKind::kBuckets) {
    return PopBuckets(max_bucket, max_entries, out);
  }
  if (kind_ == AsyncWorklistKind::kSortedSet) {
    return PopSorted(out);
  }
  return PopSmq(max_entries, out);
}

int PriorityWorklist::PopSorted(std::vector<WorklistEntry>* out) {
  RadixSortPending();
  for (const graph::VertexId v : pending_) {
    out->push_back(WorklistEntry{v, 0.0});
  }
  const int popped = static_cast<int>(pending_.size());
  stats_.pops += pending_.size();
  pending_.clear();
  live_ = 0;
  return popped;
}

// Sorts pending_ ascending: a stable LSD radix sort of v - min over as few
// equal-width digits of about log2(size) bits as cover the ids' range.
void PriorityWorklist::RadixSortPending() {
  if (pending_.size() < 2) return;
  const auto [lo_it, hi_it] =
      std::minmax_element(pending_.begin(), pending_.end());
  const graph::VertexId lo = *lo_it;
  const int key_bits = std::bit_width(static_cast<uint32_t>(*hi_it - lo));
  if (key_bits == 0) return;
  const int width =
      std::clamp(static_cast<int>(std::bit_width(pending_.size())),
                 kMinDigitBits, kMaxDigitBits);
  const int passes = (key_bits + width - 1) / width;
  const int digit_bits = (key_bits + passes - 1) / passes;
  const uint32_t mask = (uint32_t{1} << digit_bits) - 1;
  sort_buf_.resize(pending_.size());
  std::vector<graph::VertexId>* src = &pending_;
  std::vector<graph::VertexId>* dst = &sort_buf_;
  for (int pass = 0; pass < passes; ++pass) {
    const int shift = pass * digit_bits;
    sort_counts_.assign(size_t{1} << digit_bits, 0);
    for (const graph::VertexId v : *src) {
      ++sort_counts_[((v - lo) >> shift) & mask];
    }
    uint32_t start = 0;
    for (uint32_t& c : sort_counts_) {
      const uint32_t n = c;
      c = start;
      start += n;
    }
    for (const graph::VertexId v : *src) {
      (*dst)[sort_counts_[((v - lo) >> shift) & mask]++] = v;
    }
    std::swap(src, dst);
  }
  if (src != &pending_) pending_.swap(sort_buf_);
}

int PriorityWorklist::PopBuckets(int64_t max_bucket, int max_entries,
                                 std::vector<WorklistEntry>* out) {
  int popped = 0;
  while (popped < max_entries && !order_.empty()) {
    const BucketRef lowest = order_.back();
    if (lowest.key > max_bucket) break;
    Bucket& bucket = slots_[lowest.slot];
    while (popped < max_entries && bucket.head < bucket.entries.size()) {
      out->push_back(bucket.entries[bucket.head++]);
      ++popped;
    }
    if (bucket.head == bucket.entries.size()) {
      CloseBucket(lowest.slot);
      order_.pop_back();
    } else {
      break;  // max_entries hit mid-bucket
    }
  }
  live_ -= static_cast<size_t>(popped);
  stats_.pops += static_cast<uint64_t>(popped);
  return popped;
}

int PriorityWorklist::PopSmq(int max_entries,
                             std::vector<WorklistEntry>* out) {
  const size_t nq = queues_.size();
  const size_t a = rng_.NextBounded(nq);
  const size_t b = rng_.NextBounded(nq);
  // Rebalance first: move a batch of the fuller sampled queue's best
  // entries to the other one (the SMQ steal).
  if (a != b && steal_prob_ > 0.0 && rng_.NextBernoulli(steal_prob_)) {
    const size_t src = queues_[a].size() >= queues_[b].size() ? a : b;
    const size_t dst = src == a ? b : a;
    int moved = 0;
    while (moved < steal_batch_size_ && queues_[src].size() > 1) {
      std::pop_heap(queues_[src].begin(), queues_[src].end(),
                    std::greater<>());
      const HeapEntry e = queues_[src].back();
      queues_[src].pop_back();
      queues_[dst].push_back(e);
      std::push_heap(queues_[dst].begin(), queues_[dst].end(),
                     std::greater<>());
      ++moved;
    }
    if (moved > 0) {
      ++stats_.smq_rebalances;
      stats_.smq_rebalanced_entries += static_cast<uint64_t>(moved);
    }
  }
  // Serve from the sampled queue with the better top; an empty queue
  // loses, and with both sampled queues empty the first non-empty queue
  // serves (never a spurious empty pop while work remains).
  size_t pick;
  if (queues_[a].empty() && queues_[b].empty()) {
    pick = nq;
    for (size_t i = 0; i < nq; ++i) {
      if (!queues_[i].empty()) {
        pick = i;
        break;
      }
    }
    if (pick == nq) return 0;
  } else if (queues_[a].empty()) {
    pick = b;
  } else if (queues_[b].empty()) {
    pick = a;
  } else {
    pick = queues_[b].front() > queues_[a].front() ? a : b;
  }
  auto& q = queues_[pick];
  int popped = 0;
  while (popped < max_entries && !q.empty()) {
    std::pop_heap(q.begin(), q.end(), std::greater<>());
    const HeapEntry e = q.back();
    q.pop_back();
    out->push_back(WorklistEntry{e.vertex, e.priority});
    ++popped;
  }
  live_ -= static_cast<size_t>(popped);
  stats_.pops += static_cast<uint64_t>(popped);
  return popped;
}

int PriorityWorklist::ExtractTail(double fraction,
                                  std::vector<WorklistEntry>* out) {
  if (live_ == 0 || kind_ == AsyncWorklistKind::kSortedSet) return 0;
  const size_t target =
      static_cast<size_t>(fraction * static_cast<double>(live_));
  if (target == 0) return 0;
  if (kind_ == AsyncWorklistKind::kSmq) return ExtractSmqTail(target, out);
  // Whole buckets from the tail, never the lowest occupied bucket (the
  // victim keeps its hot work; the thief takes the cold span): the
  // shortest prefix of order_ that reaches the target, short of its back.
  size_t span = 0;
  size_t count = 0;
  while (span + 1 < order_.size() && count < target) {
    count += slots_[order_[span].slot].Live();
    ++span;
  }
  size_t extracted = 0;
  for (size_t i = span; i-- > 0;) {  // ascending bucket order
    const Bucket& bucket = slots_[order_[i].slot];
    out->insert(out->end(), bucket.entries.begin() + bucket.head,
                bucket.entries.end());
    extracted += bucket.Live();
    CloseBucket(order_[i].slot);
  }
  order_.erase(order_.begin(), order_.begin() + span);
  live_ -= extracted;
  return static_cast<int>(extracted);
}

int PriorityWorklist::ExtractSmqTail(size_t target,
                                     std::vector<WorklistEntry>* out) {
  // Pick the cut bucket over the union of all internal queues: walk their
  // bucket keys from the highest down, never into the lowest bucket.
  tail_keys_.clear();
  for (const auto& q : queues_) {
    for (const auto& e : q) tail_keys_.push_back(BucketOf(e.priority));
  }
  std::sort(tail_keys_.begin(), tail_keys_.end(), std::greater<>());
  const int64_t lowest = tail_keys_.back();
  if (tail_keys_.front() == lowest) return 0;
  size_t count = 0;
  int64_t cut = kNoBucket;
  for (size_t i = 0; tail_keys_[i] != lowest && count < target;) {
    cut = tail_keys_[i];
    for (; tail_keys_[i] == cut; ++i) ++count;
  }
  // Filter each queue in container order (deterministic for a fixed seed)
  // and emit the taken entries in canonical (priority, seq) order.
  taken_.clear();
  for (auto& q : queues_) {
    size_t kept = 0;
    for (size_t i = 0; i < q.size(); ++i) {
      const HeapEntry e = q[i];
      if (BucketOf(e.priority) >= cut) {
        taken_.push_back(e);
      } else {
        q[kept++] = e;
      }
    }
    q.resize(kept);
    std::make_heap(q.begin(), q.end(), std::greater<>());
  }
  std::sort(taken_.begin(), taken_.end(),
            [](const HeapEntry& x, const HeapEntry& y) {
              if (x.priority != y.priority) return x.priority < y.priority;
              return x.seq < y.seq;
            });
  for (const auto& e : taken_) {
    out->push_back(WorklistEntry{e.vertex, e.priority});
  }
  live_ -= taken_.size();
  return static_cast<int>(taken_.size());
}

}  // namespace gum::core
