#include "core/async/worklist.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/logging.h"

namespace gum::core {

PriorityWorklist::PriorityWorklist(AsyncWorklistKind kind, double delta,
                                   int smq_queues, double steal_prob,
                                   int steal_batch_size, uint64_t seed)
    : kind_(kind),
      delta_(delta),
      steal_prob_(steal_prob),
      steal_batch_size_(steal_batch_size),
      rng_(seed) {
  GUM_CHECK(delta_ > 0.0) << "worklist delta must be positive";
  if (kind_ == AsyncWorklistKind::kSmq) {
    queues_.resize(static_cast<size_t>(std::max(1, smq_queues)));
  }
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
    buckets_[bucket].entries.push_back(WorklistEntry{v, priority});
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
    return buckets_.begin()->first;
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
  std::sort(pending_.begin(), pending_.end());
  for (const graph::VertexId v : pending_) {
    out->push_back(WorklistEntry{v, 0.0});
  }
  const int popped = static_cast<int>(pending_.size());
  stats_.pops += pending_.size();
  pending_.clear();
  live_ = 0;
  return popped;
}

int PriorityWorklist::PopBuckets(int64_t max_bucket, int max_entries,
                                 std::vector<WorklistEntry>* out) {
  int popped = 0;
  while (popped < max_entries && !buckets_.empty()) {
    auto it = buckets_.begin();
    if (it->first > max_bucket) break;
    Bucket& bucket = it->second;
    while (popped < max_entries && bucket.head < bucket.entries.size()) {
      out->push_back(bucket.entries[bucket.head++]);
      ++popped;
    }
    if (bucket.head == bucket.entries.size()) {
      buckets_.erase(it);
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
  size_t extracted = 0;
  if (kind_ == AsyncWorklistKind::kBuckets) {
    // Whole buckets from the tail, never the lowest occupied bucket (the
    // victim keeps its hot work; the thief takes the cold span).
    std::vector<int64_t> span;
    size_t count = 0;
    const int64_t lowest = buckets_.begin()->first;
    for (auto it = buckets_.rbegin(); it != buckets_.rend(); ++it) {
      if (it->first == lowest) break;
      span.push_back(it->first);
      count += it->second.Live();
      if (count >= target) break;
    }
    std::reverse(span.begin(), span.end());
    for (const int64_t key : span) {
      auto it = buckets_.find(key);
      Bucket& bucket = it->second;
      for (size_t i = bucket.head; i < bucket.entries.size(); ++i) {
        out->push_back(bucket.entries[i]);
      }
      extracted += bucket.Live();
      buckets_.erase(it);
    }
  } else {
    // Pick the cut bucket over the union of all internal queues, then
    // filter each queue in container order (deterministic for a fixed
    // seed) and emit the taken entries in canonical (priority, seq) order.
    std::map<int64_t, size_t> counts;
    for (const auto& q : queues_) {
      for (const auto& e : q) ++counts[BucketOf(e.priority)];
    }
    if (counts.size() < 2) return 0;
    const int64_t lowest = counts.begin()->first;
    size_t count = 0;
    int64_t cut = kNoBucket;
    for (auto it = counts.rbegin(); it != counts.rend(); ++it) {
      if (it->first == lowest) break;
      count += it->second;
      cut = it->first;
      if (count >= target) break;
    }
    if (cut == kNoBucket) return 0;
    std::vector<HeapEntry> taken;
    for (auto& q : queues_) {
      std::vector<HeapEntry> keep;
      keep.reserve(q.size());
      for (const auto& e : q) {
        if (BucketOf(e.priority) >= cut) {
          taken.push_back(e);
        } else {
          keep.push_back(e);
        }
      }
      q.swap(keep);
      std::make_heap(q.begin(), q.end(), std::greater<>());
    }
    std::sort(taken.begin(), taken.end(),
              [](const HeapEntry& x, const HeapEntry& y) {
                if (x.priority != y.priority) return x.priority < y.priority;
                return x.seq < y.seq;
              });
    for (const auto& e : taken) {
      out->push_back(WorklistEntry{e.vertex, e.priority});
    }
    extracted = taken.size();
  }
  live_ -= extracted;
  return static_cast<int>(extracted);
}

}  // namespace gum::core
