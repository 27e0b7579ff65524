// Async engine mode (src/core/async/, DESIGN.md §15): worklist unit tests,
// convergence-to-reference for every async-capable app, the relaxed
// determinism contract — byte-reproducible for a fixed seed across host
// thread counts {1,2,3,4,8} (DESIGN.md §7) — and golden
// pins for the driver and its Groute preset.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "algos/apps.h"
#include "algos/astar.h"
#include "algos/reference.h"
#include "baselines/groute.h"
#include "common/random.h"
#include "core/async/worklist.h"
#include "core/engine.h"
#include "sim/comm_plane.h"
#include "tests/test_util.h"

namespace gum {
namespace {

using algos::AStarApp;
using algos::BfsApp;
using algos::DeltaPageRankApp;
using algos::SsspApp;
using algos::WccApp;
using core::AsyncWorklistKind;
using core::EngineMode;
using core::EngineOptions;
using core::GumEngine;
using core::PriorityWorklist;
using core::RunResult;
using core::WorklistEntry;
using graph::VertexId;
using test::MakePartition;
using test::MaxDegreeSource;
using test::RoadGraph;
using test::SocialGraph;
using test::SocialGraphSym;
using test::TestEngineOptions;
using test::Topo;

PriorityWorklist BucketWl(double delta) {
  return PriorityWorklist(AsyncWorklistKind::kBuckets, delta,
                          /*smq_queues=*/0, /*steal_prob=*/0.0,
                          /*steal_batch_size=*/0, /*seed=*/1);
}

TEST(PriorityWorklistTest, BucketsPopLowestFirstFifoWithin) {
  PriorityWorklist wl = BucketWl(1.0);
  wl.Push(10, 2.5);
  wl.Push(11, 0.5);
  wl.Push(12, 2.1);
  wl.Push(13, 0.9);
  ASSERT_EQ(wl.size(), 4u);
  EXPECT_EQ(wl.MinBucket(), 0);

  std::vector<WorklistEntry> out;
  EXPECT_EQ(wl.Pop(wl.MinBucket(), 100, &out), 2);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].vertex, 11u);  // FIFO within the bucket
  EXPECT_EQ(out[1].vertex, 13u);

  out.clear();
  EXPECT_EQ(wl.MinBucket(), 2);
  EXPECT_EQ(wl.Pop(wl.MinBucket(), 100, &out), 2);
  EXPECT_EQ(out[0].vertex, 10u);
  EXPECT_EQ(out[1].vertex, 12u);
  EXPECT_TRUE(wl.empty());
}

TEST(PriorityWorklistTest, PopRespectsBandBoundAndBatchCap) {
  PriorityWorklist wl = BucketWl(1.0);
  for (int i = 0; i < 6; ++i) {
    wl.Push(static_cast<VertexId>(i), static_cast<double>(i));
  }
  std::vector<WorklistEntry> out;
  // Band bound: only buckets <= 2.
  EXPECT_EQ(wl.Pop(/*max_bucket=*/2, 100, &out), 3);
  // Batch cap mid-bucket.
  out.clear();
  EXPECT_EQ(wl.Pop(/*max_bucket=*/100, 2, &out), 2);
  EXPECT_EQ(wl.size(), 1u);
}

TEST(PriorityWorklistTest, ExtractTailTakesColdBucketsKeepsHottest) {
  PriorityWorklist wl = BucketWl(1.0);
  // Bucket 0: 2 entries; bucket 5: 3; bucket 9: 3.
  wl.Push(1, 0.1);
  wl.Push(2, 0.2);
  for (int i = 0; i < 3; ++i) wl.Push(static_cast<VertexId>(10 + i), 5.5);
  for (int i = 0; i < 3; ++i) wl.Push(static_cast<VertexId>(20 + i), 9.5);

  std::vector<WorklistEntry> stolen;
  const int got = wl.ExtractTail(/*fraction=*/0.5, &stolen);
  EXPECT_EQ(got, 6);  // whole buckets from the tail: 9 then 5
  EXPECT_EQ(wl.size(), 2u);
  EXPECT_EQ(wl.MinBucket(), 0);  // the hottest bucket never leaves
  // Ascending bucket order in the payload.
  ASSERT_EQ(stolen.size(), 6u);
  EXPECT_EQ(stolen.front().vertex, 10u);
  EXPECT_EQ(stolen.back().vertex, 22u);
}

TEST(PriorityWorklistTest, ExtractTailNeverDrainsSingleBucket) {
  PriorityWorklist wl = BucketWl(1.0);
  for (int i = 0; i < 8; ++i) wl.Push(static_cast<VertexId>(i), 0.5);
  std::vector<WorklistEntry> stolen;
  EXPECT_EQ(wl.ExtractTail(0.9, &stolen), 0);
  EXPECT_EQ(wl.size(), 8u);
}

TEST(PriorityWorklistTest, SmqSameSeedSamePopSequence) {
  auto run = [](uint64_t seed) {
    PriorityWorklist wl(AsyncWorklistKind::kSmq, 1.0, /*smq_queues=*/4,
                        /*steal_prob=*/0.5, /*steal_batch_size=*/4, seed);
    for (int i = 0; i < 64; ++i) {
      wl.Push(static_cast<VertexId>(i), static_cast<double>((i * 7) % 16));
    }
    std::vector<VertexId> order;
    std::vector<WorklistEntry> out;
    while (!wl.empty()) {
      out.clear();
      wl.Pop(wl.MinBucket(), 8, &out);
      for (const auto& e : out) order.push_back(e.vertex);
    }
    return order;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));  // a different seed explores another order
}

TEST(PriorityWorklistTest, SmqRebalancesAreCountedAndLossless) {
  PriorityWorklist wl(AsyncWorklistKind::kSmq, 1.0, /*smq_queues=*/4,
                      /*steal_prob=*/1.0, /*steal_batch_size=*/4, /*seed=*/3);
  for (int i = 0; i < 128; ++i) {
    wl.Push(static_cast<VertexId>(i), static_cast<double>(i % 10));
  }
  std::vector<WorklistEntry> out;
  size_t popped = 0;
  while (!wl.empty()) {
    const size_t before = out.size();
    wl.Pop(wl.MinBucket(), 8, &out);
    popped += out.size() - before;
  }
  EXPECT_EQ(popped, 128u);  // rebalances never lose or duplicate entries
  EXPECT_GT(wl.stats().smq_rebalances, 0u);
  EXPECT_GT(wl.stats().smq_rebalanced_entries, 0u);
}

TEST(PriorityWorklistTest, SortedSetPopsEverythingAscending) {
  PriorityWorklist wl(AsyncWorklistKind::kSortedSet, 1.0, /*smq_queues=*/0,
                      /*steal_prob=*/0.0, /*steal_batch_size=*/0, /*seed=*/1);
  for (const VertexId v : {9u, 3u, 7u, 1u}) wl.Push(v, -1.0 * v);
  EXPECT_FALSE(wl.empty());
  std::vector<WorklistEntry> stolen;
  EXPECT_EQ(wl.ExtractTail(1.0, &stolen), 0) << "no priority tail";
  std::vector<WorklistEntry> out;
  EXPECT_EQ(wl.Pop(wl.MinBucket(), /*max_entries=*/2, &out), 4)
      << "one batch, whatever the cap";
  std::vector<VertexId> order;
  for (const auto& e : out) order.push_back(e.vertex);
  EXPECT_EQ(order, (std::vector<VertexId>{1, 3, 7, 9}));
  EXPECT_TRUE(wl.empty());
  EXPECT_EQ(wl.MinBucket(), PriorityWorklist::kNoBucket);
}

// A test-local copy of the worklist before its flat bucket store: buckets
// in a std::map, the SMQ tail counted in a std::map, the sorted set
// ordered by std::sort. PriorityWorklist must match it operation by
// operation.
class MapWorklist {
 public:
  MapWorklist(AsyncWorklistKind kind, double delta, int smq_queues,
              double steal_prob, int steal_batch_size, uint64_t seed)
      : kind_(kind),
        delta_(delta),
        steal_prob_(steal_prob),
        steal_batch_size_(steal_batch_size),
        rng_(seed) {
    if (kind_ == AsyncWorklistKind::kSmq) {
      queues_.resize(static_cast<size_t>(std::max(1, smq_queues)));
    }
  }

  void Push(VertexId v, double priority) {
    ++stats.pushes;
    ++live_;
    if (kind_ == AsyncWorklistKind::kSortedSet) {
      pending_.push_back(v);
      return;
    }
    const int64_t bucket = BucketOf(priority);
    if (!histogram_based_) {
      histogram_based_ = true;
      histogram_base_ = bucket;
    }
    ++histogram[static_cast<size_t>(std::clamp<int64_t>(
        bucket - histogram_base_, 0, kHistogramBuckets - 1))];
    if (kind_ == AsyncWorklistKind::kBuckets) {
      buckets_[bucket].entries.push_back(WorklistEntry{v, priority});
    } else {
      auto& q = queues_[rng_.NextBounded(queues_.size())];
      q.push_back(HeapEntry{priority, next_seq_++, v});
      std::push_heap(q.begin(), q.end(), std::greater<>());
    }
  }

  int64_t MinBucket() const {
    if (live_ == 0) return PriorityWorklist::kNoBucket;
    if (kind_ == AsyncWorklistKind::kSortedSet) return 0;
    if (kind_ == AsyncWorklistKind::kBuckets) return buckets_.begin()->first;
    int64_t best = PriorityWorklist::kNoBucket;
    double best_priority = 0.0;
    for (const auto& q : queues_) {
      if (q.empty()) continue;
      if (best == PriorityWorklist::kNoBucket ||
          q.front().priority < best_priority) {
        best_priority = q.front().priority;
        best = BucketOf(best_priority);
      }
    }
    return best;
  }

  int Pop(int64_t max_bucket, int max_entries,
          std::vector<WorklistEntry>* out) {
    int popped = 0;
    if (kind_ == AsyncWorklistKind::kSortedSet) {
      std::sort(pending_.begin(), pending_.end());
      for (const VertexId v : pending_) out->push_back(WorklistEntry{v, 0.0});
      popped = static_cast<int>(pending_.size());
      pending_.clear();
    } else if (kind_ == AsyncWorklistKind::kBuckets) {
      while (popped < max_entries && !buckets_.empty()) {
        auto it = buckets_.begin();
        if (it->first > max_bucket) break;
        Bucket& bucket = it->second;
        while (popped < max_entries && bucket.head < bucket.entries.size()) {
          out->push_back(bucket.entries[bucket.head++]);
          ++popped;
        }
        if (bucket.head != bucket.entries.size()) break;
        buckets_.erase(it);
      }
    } else {
      popped = PopSmq(max_entries, out);
    }
    live_ -= static_cast<size_t>(popped);
    stats.pops += static_cast<uint64_t>(popped);
    return popped;
  }

  int ExtractTail(double fraction, std::vector<WorklistEntry>* out) {
    if (live_ == 0 || kind_ == AsyncWorklistKind::kSortedSet) return 0;
    const size_t target =
        static_cast<size_t>(fraction * static_cast<double>(live_));
    if (target == 0) return 0;
    size_t extracted = 0;
    if (kind_ == AsyncWorklistKind::kBuckets) {
      std::vector<int64_t> span;
      size_t count = 0;
      const int64_t lowest = buckets_.begin()->first;
      for (auto it = buckets_.rbegin(); it != buckets_.rend(); ++it) {
        if (it->first == lowest) break;
        span.push_back(it->first);
        count += it->second.entries.size() - it->second.head;
        if (count >= target) break;
      }
      std::reverse(span.begin(), span.end());
      for (const int64_t key : span) {
        Bucket& bucket = buckets_.at(key);
        for (size_t i = bucket.head; i < bucket.entries.size(); ++i) {
          out->push_back(bucket.entries[i]);
        }
        extracted += bucket.entries.size() - bucket.head;
        buckets_.erase(key);
      }
    } else {
      std::map<int64_t, size_t> counts;
      for (const auto& q : queues_) {
        for (const auto& e : q) ++counts[BucketOf(e.priority)];
      }
      if (counts.size() < 2) return 0;
      const int64_t lowest = counts.begin()->first;
      size_t count = 0;
      int64_t cut = PriorityWorklist::kNoBucket;
      for (auto it = counts.rbegin(); it != counts.rend(); ++it) {
        if (it->first == lowest) break;
        count += it->second;
        cut = it->first;
        if (count >= target) break;
      }
      std::vector<HeapEntry> taken;
      for (auto& q : queues_) {
        std::vector<HeapEntry> keep;
        for (const auto& e : q) {
          (BucketOf(e.priority) >= cut ? taken : keep).push_back(e);
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

  size_t size() const { return live_; }

  static constexpr int kHistogramBuckets =
      core::WorklistStats::kHistogramBuckets;
  core::WorklistStats stats;  // pushes, pops and the SMQ counters
  std::vector<uint64_t> histogram = std::vector<uint64_t>(kHistogramBuckets);

 private:
  struct Bucket {
    std::vector<WorklistEntry> entries;
    size_t head = 0;
  };
  struct HeapEntry {
    double priority = 0.0;
    uint64_t seq = 0;
    VertexId vertex = 0;
    bool operator>(const HeapEntry& other) const {
      if (priority != other.priority) return priority > other.priority;
      return seq > other.seq;
    }
  };

  int64_t BucketOf(double priority) const {
    return static_cast<int64_t>(std::floor(priority / delta_));
  }

  int PopSmq(int max_entries, std::vector<WorklistEntry>* out) {
    const size_t nq = queues_.size();
    const size_t a = rng_.NextBounded(nq);
    const size_t b = rng_.NextBounded(nq);
    if (a != b && steal_prob_ > 0.0 && rng_.NextBernoulli(steal_prob_)) {
      const size_t src = queues_[a].size() >= queues_[b].size() ? a : b;
      const size_t dst = src == a ? b : a;
      int moved = 0;
      while (moved < steal_batch_size_ && queues_[src].size() > 1) {
        std::pop_heap(queues_[src].begin(), queues_[src].end(),
                      std::greater<>());
        queues_[dst].push_back(queues_[src].back());
        queues_[src].pop_back();
        std::push_heap(queues_[dst].begin(), queues_[dst].end(),
                       std::greater<>());
        ++moved;
      }
      if (moved > 0) {
        ++stats.smq_rebalances;
        stats.smq_rebalanced_entries += static_cast<uint64_t>(moved);
      }
    }
    size_t pick = nq;
    if (queues_[a].empty() && queues_[b].empty()) {
      for (size_t i = 0; i < nq && pick == nq; ++i) {
        if (!queues_[i].empty()) pick = i;
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
      out->push_back(WorklistEntry{q.back().vertex, q.back().priority});
      q.pop_back();
      ++popped;
    }
    return popped;
  }

  AsyncWorklistKind kind_;
  double delta_;
  double steal_prob_;
  int steal_batch_size_;
  Rng rng_;
  std::map<int64_t, Bucket> buckets_;
  std::vector<std::vector<HeapEntry>> queues_;
  std::vector<VertexId> pending_;
  uint64_t next_seq_ = 0;
  size_t live_ = 0;
  bool histogram_based_ = false;
  int64_t histogram_base_ = 0;
};

void ExpectSameEntries(const std::vector<WorklistEntry>& got,
                       const std::vector<WorklistEntry>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].vertex, want[i].vertex) << "entry " << i;
    ASSERT_EQ(std::bit_cast<uint64_t>(got[i].priority),
              std::bit_cast<uint64_t>(want[i].priority))
        << "entry " << i;
  }
}

void ExpectSameState(const PriorityWorklist& wl, const MapWorklist& ref) {
  ASSERT_EQ(wl.size(), ref.size());
  ASSERT_EQ(wl.MinBucket(), ref.MinBucket());
  const core::WorklistStats& stats = wl.stats();
  ASSERT_EQ(stats.pushes, ref.stats.pushes);
  ASSERT_EQ(stats.pops, ref.stats.pops);
  ASSERT_EQ(stats.smq_rebalances, ref.stats.smq_rebalances);
  ASSERT_EQ(stats.smq_rebalanced_entries, ref.stats.smq_rebalanced_entries);
  ASSERT_TRUE(std::equal(stats.bucket_histogram.begin(),
                         stats.bucket_histogram.end(),
                         ref.histogram.begin(), ref.histogram.end()));
}

// Seeded random Push / Pop / ExtractTail sequences: signed priorities over
// ~40 buckets, Pop under band bounds with caps from 1 to 4096 (most stop
// mid-bucket), ExtractTail at several fractions. One PriorityWorklist runs
// every sequence, Reset between them, against a fresh MapWorklist each.
TEST(PriorityWorklistTest, MatchesMapReference) {
  constexpr VertexId kVertices = 5000;
  constexpr double kFractions[] = {0.1, 0.25, 0.5, 0.9, 1.0};
  PriorityWorklist wl = BucketWl(1.0);
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    const auto kind = static_cast<AsyncWorklistKind>(seed % 3);
    const double delta = 0.25 + 0.5 * static_cast<double>(seed % 4);
    const double steal_prob = seed % 2 == 0 ? 0.5 : 1.0;
    const int steal_batch = 1 + static_cast<int>(seed % 8);
    SCOPED_TRACE(testing::Message()
                 << "seed " << seed << ", worklist "
                 << core::AsyncWorklistKindName(kind));
    wl.Reset(kind, delta, 4, steal_prob, steal_batch, seed);
    MapWorklist ref(kind, delta, 4, steal_prob, steal_batch, seed);
    ASSERT_NO_FATAL_FAILURE(ExpectSameState(wl, ref));
    Rng ops(seed * 7919);
    std::vector<char> pending(kVertices, 0);  // sorted set: distinct ids
    std::vector<WorklistEntry> got;
    std::vector<WorklistEntry> want;
    for (int step = 0; step < 3000; ++step) {
      const uint64_t op = ops.NextBounded(10);
      got.clear();
      want.clear();
      if (op < 6) {
        const auto v = static_cast<VertexId>(ops.NextBounded(kVertices));
        if (kind == AsyncWorklistKind::kSortedSet && pending[v]) continue;
        pending[v] = 1;
        const double priority = (ops.NextDouble() - 0.4) * 40.0 * delta;
        wl.Push(v, priority);
        ref.Push(v, priority);
      } else if (op < 9) {
        const int64_t min = wl.MinBucket();
        const int64_t band =
            min == PriorityWorklist::kNoBucket
                ? min
                : min + static_cast<int64_t>(ops.NextBounded(4));
        const int cap = 1 << ops.NextBounded(13);  // 1 .. 4096
        const int cap_jitter = static_cast<int>(ops.NextBounded(cap));
        const int max_entries = std::max(1, cap - cap_jitter);
        ASSERT_EQ(wl.Pop(band, max_entries, &got),
                  ref.Pop(band, max_entries, &want));
        for (const auto& e : got) pending[e.vertex] = 0;
      } else {
        const double fraction = kFractions[ops.NextBounded(5)];
        ASSERT_EQ(wl.ExtractTail(fraction, &got),
                  ref.ExtractTail(fraction, &want));
      }
      ASSERT_NO_FATAL_FAILURE(ExpectSameEntries(got, want)) << "step " << step;
      ASSERT_NO_FATAL_FAILURE(ExpectSameState(wl, ref)) << "step " << step;
    }
  }
}

// The sorted set's pop order is std::sort's on empty, single, sparse and
// dense sets (one to three radix passes of 4 to 11 bits), and on ids at
// both ends of the id range.
TEST(PriorityWorklistTest, PopSortedMatchesStdSort) {
  Rng rng(11);
  const auto draw = [&rng](size_t count, uint64_t span, VertexId base) {
    std::vector<VertexId> ids;
    std::set<VertexId> seen;
    while (ids.size() < count) {
      const auto v = static_cast<VertexId>(base + rng.NextBounded(span));
      if (seen.insert(v).second) ids.push_back(v);
    }
    return ids;
  };
  const std::vector<std::vector<VertexId>> sets = {
      {},
      {42},
      {0, 4294967295u},
      draw(3, 1u << 20, 0),
      draw(200, 1u << 24, 1000),
      draw(5000, 1u << 30, 7),
      draw(1000, 1000, 0),
      draw(900, 1000, 4294966000u),
      draw(3000, 60000, 123456),
      draw(64, 4096, 0),
      draw(65, 4096, 0),
  };
  PriorityWorklist wl(AsyncWorklistKind::kSortedSet, 1.0, 0, 0.0, 0, 1);
  for (const auto& ids : sets) {
    for (const VertexId v : ids) wl.Push(v, 0.0);
    std::vector<WorklistEntry> out;
    ASSERT_EQ(wl.Pop(wl.MinBucket(), 1, &out), static_cast<int>(ids.size()));
    std::vector<VertexId> want = ids;
    std::sort(want.begin(), want.end());
    std::vector<VertexId> got;
    for (const auto& e : out) got.push_back(e.vertex);
    EXPECT_EQ(got, want) << ids.size() << " ids";
    EXPECT_TRUE(wl.empty());
  }
}

EngineOptions AsyncOptions() {
  EngineOptions opt = TestEngineOptions();
  opt.mode = EngineMode::kAsync;
  return opt;
}

TEST(AsyncEngineTest, SsspMatchesDijkstraExactly) {
  const auto g = SocialGraph(10, 7, /*weighted=*/true);
  GumEngine<SsspApp> engine(&g, MakePartition(g, 4), Topo(4),
                            AsyncOptions());
  SsspApp app;
  app.source = MaxDegreeSource(g);
  std::vector<float> dist;
  const RunResult result = engine.Run(app, &dist);
  EXPECT_TRUE(result.async_active);
  EXPECT_GT(result.async_batches, 0);
  EXPECT_GE(result.quiescence_rounds, 1);
  const auto expected = algos::ref::Sssp(g, app.source);
  ASSERT_EQ(dist.size(), expected.size());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(dist[v], expected[v]) << "vertex " << v;
  }
}

TEST(AsyncEngineTest, BfsMatchesReference) {
  const auto g = SocialGraph();
  GumEngine<BfsApp> engine(&g, MakePartition(g, 4), Topo(4), AsyncOptions());
  BfsApp app;
  app.source = MaxDegreeSource(g);
  std::vector<uint32_t> depth;
  engine.Run(app, &depth);
  EXPECT_EQ(depth, algos::ref::Bfs(g, app.source));
}

TEST(AsyncEngineTest, WccMatchesReference) {
  const auto g = SocialGraphSym(9);
  GumEngine<WccApp> engine(&g, MakePartition(g, 4), Topo(4), AsyncOptions());
  WccApp app;
  std::vector<VertexId> labels;
  engine.Run(app, &labels);
  EXPECT_EQ(labels, algos::ref::Wcc(g));
}

TEST(AsyncEngineTest, AStarMatchesSsspReferenceExactly) {
  const uint32_t side = 28;
  const auto g = RoadGraph(side);
  GumEngine<AStarApp> engine(&g, MakePartition(g, 4), Topo(4),
                             AsyncOptions());
  AStarApp app;
  app.source = 0;
  app.target = g.num_vertices() - 1;
  app.heuristic = algos::GridManhattanHeuristic(g, side, side, app.target);
  std::vector<float> dist;
  const RunResult result = engine.Run(app, &dist);
  EXPECT_TRUE(result.async_active);
  // Any heuristic converges to the exact Dijkstra distances — the
  // heuristic shapes the visit order, never the fixpoint.
  const auto expected = algos::ref::Sssp(g, app.source);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(dist[v], expected[v]) << "vertex " << v;
  }
}

TEST(AsyncEngineTest, DeltaPageRankConvergesToPowerIteration) {
  const auto g = SocialGraph(9, 5);
  GumEngine<DeltaPageRankApp> engine(&g, MakePartition(g, 4), Topo(4),
                                     AsyncOptions());
  DeltaPageRankApp app;
  app.num_vertices = g.num_vertices();
  app.epsilon = 1e-12;
  std::vector<DeltaPageRankApp::State> state;
  const RunResult result = engine.Run(app, &state);
  EXPECT_TRUE(result.async_active);
  const auto expected = algos::ref::PageRank(g, 0.85, 100);
  double max_err = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    max_err = std::max(max_err, std::abs(state[v].rank - expected[v]));
  }
  EXPECT_LT(max_err, 1e-6);
}

TEST(AsyncEngineTest, SmqWorklistStillExact) {
  const auto g = SocialGraph(10, 7, /*weighted=*/true);
  EngineOptions opt = AsyncOptions();
  opt.async.worklist = AsyncWorklistKind::kSmq;
  opt.async.steal_prob = 0.7;
  opt.async.steal_batch_size = 16;
  GumEngine<SsspApp> engine(&g, MakePartition(g, 4), Topo(4), opt);
  SsspApp app;
  app.source = MaxDegreeSource(g);
  std::vector<float> dist;
  engine.Run(app, &dist);
  EXPECT_EQ(dist, algos::ref::Sssp(g, app.source));
}

// The relaxed determinism contract (DESIGN.md §7): for a fixed
// AsyncConfig::seed the whole run — values, simulated time, batch and
// steal counts — is byte-reproducible across every host-thread count, for
// both worklist flavors and all three acceptance apps.
// `run(options, &values)` runs one cell of the matrix.
template <typename Value, typename RunFn>
void ExpectThreadDeterminism(const EngineOptions& base, RunFn run) {
  std::vector<Value> ref_values;
  RunResult ref;
  bool have_ref = false;
  for (const int threads : {1, 2, 3, 4, 8}) {
    EngineOptions opt = base;
    opt.num_host_threads = threads;
    std::vector<Value> values;
    const RunResult result = run(opt, &values);
    if (!have_ref) {
      ref_values = values;
      ref = result;
      have_ref = true;
      continue;
    }
    ASSERT_EQ(values.size(), ref_values.size());
    for (size_t v = 0; v < values.size(); ++v) {
      ASSERT_EQ(std::memcmp(&values[v], &ref_values[v], sizeof(Value)), 0)
          << "vertex " << v << " differs at threads=" << threads;
    }
    EXPECT_EQ(result.total_ms, ref.total_ms) << "threads=" << threads;
    EXPECT_EQ(result.async_batches, ref.async_batches);
    EXPECT_EQ(result.messages_sent, ref.messages_sent);
    EXPECT_EQ(result.async_range_steals, ref.async_range_steals);
    EXPECT_EQ(result.quiescence_rounds, ref.quiescence_rounds);
  }
}

template <typename App, typename Value>
void ExpectSeedDeterminism(const graph::CsrGraph& g, App app,
                           const EngineOptions& base) {
  ExpectThreadDeterminism<Value>(
      base, [&](const EngineOptions& opt, std::vector<Value>* values) {
        App run_app = app;
        return GumEngine<App>(&g, MakePartition(g, 4), Topo(4), opt)
            .Run(run_app, values);
      });
}

// The Groute preset over the same matrix. Every vertex starts active in
// delta-PageRank, so each device's first batch on RMAT 12 (~1,024 vertices)
// spans four 256-vertex relax chunks and relaxes on the pool.
template <typename App, typename Value>
void ExpectGrouteDeterminism(const graph::CsrGraph& g, App app) {
  const graph::Partition part = MakePartition(g, 4);
  ExpectThreadDeterminism<Value>(
      baselines::GrouteEngineOptions(),
      [&](const EngineOptions& opt, std::vector<Value>* values) {
        return baselines::RunGroute(g, part, opt, app, values);
      });
}

TEST(AsyncEngineTest, GrouteDeltaPrSeedDeterministicAcrossThreadsAndShards) {
  const auto g = SocialGraph(12, 5);
  DeltaPageRankApp app;
  app.num_vertices = g.num_vertices();
  app.epsilon = 1e-6;
  ExpectGrouteDeterminism<DeltaPageRankApp, DeltaPageRankApp::State>(g, app);
}

TEST(AsyncEngineTest, GrouteSsspSeedDeterministicAcrossThreadsAndShards) {
  const auto g = SocialGraph(12, 7, /*weighted=*/true);
  SsspApp app;
  app.source = MaxDegreeSource(g);
  ExpectGrouteDeterminism<SsspApp, float>(g, app);
}

TEST(AsyncEngineTest, SsspSeedDeterministicAcrossThreadsAndShards) {
  const auto g = SocialGraph(10, 7, /*weighted=*/true);
  SsspApp app;
  app.source = MaxDegreeSource(g);
  EngineOptions opt = AsyncOptions();
  opt.async.worklist = AsyncWorklistKind::kSmq;  // the stochastic flavor
  opt.async.seed = 42;
  ExpectSeedDeterminism<SsspApp, float>(g, app, opt);
}

TEST(AsyncEngineTest, AStarSeedDeterministicAcrossThreadsAndShards) {
  const uint32_t side = 24;
  const auto g = RoadGraph(side);
  AStarApp app;
  app.source = 0;
  app.target = g.num_vertices() - 1;
  app.heuristic = algos::GridManhattanHeuristic(g, side, side, app.target);
  ExpectSeedDeterminism<AStarApp, float>(g, app, AsyncOptions());
}

TEST(AsyncEngineTest, DeltaPrSeedDeterministicAcrossThreadsAndShards) {
  const auto g = SocialGraph(8, 5);
  DeltaPageRankApp app;
  app.num_vertices = g.num_vertices();
  app.epsilon = 1e-10;
  ExpectSeedDeterminism<DeltaPageRankApp, DeltaPageRankApp::State>(
      g, app, AsyncOptions());
}

TEST(AsyncEngineTest, RangeStealEngagesOnImbalanceAndStaysExact) {
  // Segment partition on a road grid: the wavefront lives in one strip at
  // a time, so the other devices idle — exactly the LT regime the range
  // steal attacks.
  const uint32_t side = 48;
  const auto g = RoadGraph(side);
  EngineOptions opt = AsyncOptions();
  opt.async.range_steal_min_victim = 32;
  GumEngine<SsspApp> engine(
      &g, MakePartition(g, 4, graph::PartitionerKind::kSegment), Topo(4),
      opt);
  SsspApp app;
  app.source = 0;
  std::vector<float> dist;
  const RunResult result = engine.Run(app, &dist);
  EXPECT_GT(result.async_range_steals, 0);
  EXPECT_GT(result.async_range_steal_entries, 0);
  EXPECT_GT(result.async_range_steal_bytes, 0.0);
  EXPECT_EQ(dist, algos::ref::Sssp(g, app.source));
}

TEST(AsyncEngineTest, RangeStealOffStillConverges) {
  const uint32_t side = 32;
  const auto g = RoadGraph(side);
  EngineOptions opt = AsyncOptions();
  opt.async.enable_range_steal = false;
  GumEngine<SsspApp> engine(
      &g, MakePartition(g, 4, graph::PartitionerKind::kSegment), Topo(4),
      opt);
  SsspApp app;
  app.source = 0;
  std::vector<float> dist;
  const RunResult result = engine.Run(app, &dist);
  EXPECT_EQ(result.async_range_steals, 0);
  EXPECT_EQ(dist, algos::ref::Sssp(g, app.source));
}

TEST(AsyncEngineTest, BucketHistogramPopulated) {
  const auto g = RoadGraph(24);
  GumEngine<SsspApp> engine(&g, MakePartition(g, 2), Topo(2),
                            AsyncOptions());
  SsspApp app;
  app.source = 0;
  const RunResult result = engine.Run(app);
  uint64_t total = 0;
  int nonzero = 0;
  for (const uint64_t c : result.async_bucket_histogram) {
    total += c;
    if (c > 0) ++nonzero;
  }
  EXPECT_GT(total, 0u);
  EXPECT_GT(nonzero, 1) << "a road SSSP spans many delta buckets";
  EXPECT_GT(result.async_delta, 0.0);
}

TEST(AsyncEngineTest, BspModeIsUntouchedByDefault) {
  const auto g = SocialGraph(9, 5);
  GumEngine<SsspApp> engine(&g, MakePartition(g, 4), Topo(4),
                            TestEngineOptions());
  SsspApp app;
  app.source = MaxDegreeSource(g);
  const RunResult result = engine.Run(app);
  EXPECT_FALSE(result.async_active);
  EXPECT_EQ(result.async_batches, 0);
  EXPECT_EQ(result.quiescence_rounds, 0);
  EXPECT_TRUE(result.async_bucket_histogram.empty());
}

TEST(AsyncEngineTest, SingleDeviceWorks) {
  const auto g = SocialGraph(9, 5);
  GumEngine<SsspApp> engine(&g, MakePartition(g, 1), Topo(1),
                            AsyncOptions());
  SsspApp app;
  app.source = MaxDegreeSource(g);
  std::vector<float> dist;
  const RunResult result = engine.Run(app, &dist);
  EXPECT_EQ(result.async_range_steals, 0) << "nothing to steal on 1 GPU";
  EXPECT_EQ(dist, algos::ref::Sssp(g, app.source));
}

// Everything a run reports that a leak of state from one run into the next
// could move.
struct ReusePin {
  uint64_t total_ms_bits = 0;
  int iterations = 0;
  uint64_t messages = 0;
  uint64_t edges = 0;
  int64_t stale_skips = 0;
  std::vector<uint64_t> histogram;
  int64_t range_steals = 0;
  int64_t range_steal_entries = 0;
  uint64_t range_steal_bytes_bits = 0;
  uint64_t link_bytes_digest = 0;
  uint64_t values_digest = 0;
};

template <typename Value>
ReusePin PinReuse(const RunResult& r, const std::vector<Value>& values) {
  ReusePin pin;
  pin.total_ms_bits = std::bit_cast<uint64_t>(r.total_ms);
  pin.iterations = r.iterations;
  pin.messages = r.messages_sent;
  pin.edges = r.edges_processed;
  pin.stale_skips = r.async_stale_skips;
  pin.histogram = r.async_bucket_histogram;
  pin.range_steals = r.async_range_steals;
  pin.range_steal_entries = r.async_range_steal_entries;
  pin.range_steal_bytes_bits =
      std::bit_cast<uint64_t>(r.async_range_steal_bytes);
  pin.link_bytes_digest = test::LinkBytesDigest(r);
  pin.values_digest = test::ValuesDigest(values);
  return pin;
}

// One step of a reuse sequence: an app on a context under run options.
template <typename App>
struct ReuseStep {
  const core::GraphContext* ctx;
  EngineOptions options;
  App app;
};

// Runs the steps in order on one RunContext, and each on a fresh one; the
// two must agree on every pinned field. Returns the reused runs' pins.
template <typename App>
std::vector<ReusePin> ExpectReuseMatchesFresh(
    const std::vector<ReuseStep<App>>& steps) {
  std::vector<ReusePin> pins;
  core::RunContext<App> reused;
  for (size_t i = 0; i < steps.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "step " << i);
    const ReuseStep<App>& step = steps[i];
    GumEngine<App> engine(step.ctx);
    std::vector<typename App::Value> values;
    App app = step.app;
    const RunResult warm = engine.Run(app, reused, &values, &step.options);
    const ReusePin got = PinReuse(warm, values);
    core::RunContext<App> fresh;
    app = step.app;
    const RunResult cold = engine.Run(app, fresh, &values, &step.options);
    const ReusePin want = PinReuse(cold, values);
    EXPECT_EQ(got.total_ms_bits, want.total_ms_bits);
    EXPECT_EQ(got.iterations, want.iterations);
    EXPECT_EQ(got.messages, want.messages);
    EXPECT_EQ(got.edges, want.edges);
    EXPECT_EQ(got.stale_skips, want.stale_skips);
    EXPECT_EQ(got.histogram, want.histogram);
    EXPECT_EQ(got.range_steals, want.range_steals);
    EXPECT_EQ(got.range_steal_entries, want.range_steal_entries);
    EXPECT_EQ(got.range_steal_bytes_bits, want.range_steal_bytes_bits);
    EXPECT_EQ(got.link_bytes_digest, want.link_bytes_digest);
    EXPECT_EQ(got.values_digest, want.values_digest);
    pins.push_back(got);
  }
  return pins;
}

// A RunContext carries the async driver's buffers from run to run. Reused
// across worklist flavors, device counts and the BSP loop, it must leave
// every result as a fresh context gives it. The segment cut with a low
// steal threshold makes SSSP range-steal under both async worklists.
TEST(AsyncEngineTest, RunContextReuseIsByteIdentical) {
  const uint32_t side = 48;
  const auto g = RoadGraph(side);
  EngineOptions buckets = AsyncOptions();
  buckets.async.range_steal_min_victim = 32;
  EngineOptions smq = buckets;
  smq.async.worklist = AsyncWorklistKind::kSmq;
  smq.async.seed = 9;
  const EngineOptions bsp = TestEngineOptions();
  const core::GraphContext ctx8(
      &g, MakePartition(g, 8, graph::PartitionerKind::kSegment), Topo(8),
      buckets);
  const core::GraphContext ctx5(
      &g, MakePartition(g, 5, graph::PartitionerKind::kSegment), Topo(5),
      buckets);

  SsspApp corner;
  corner.source = 0;
  SsspApp middle;
  middle.source = side / 2 * side + side / 2;
  const auto sssp = ExpectReuseMatchesFresh<SsspApp>(
      {{&ctx8, buckets, corner},
       {&ctx5, smq, middle},
       {&ctx8, bsp, corner},
       {&ctx8, buckets, corner}});
  EXPECT_GT(sssp[0].range_steals, 0);
  EXPECT_GT(sssp[1].range_steals, 0);

  DeltaPageRankApp dpr;
  dpr.num_vertices = g.num_vertices();
  dpr.epsilon = 1e-6;
  ExpectReuseMatchesFresh<DeltaPageRankApp>({{&ctx8, smq, dpr},
                                             {&ctx5, buckets, dpr},
                                             {&ctx8, bsp, dpr},
                                             {&ctx8, smq, dpr}});
}

// Golden pins for the one discrete-event loop behind GUM's async mode and
// the Groute preset: the simulated clock, the counters, every link's
// traffic and every value stay bit-identical to the separate Groute loop
// they replaced. Doubles compare as bit patterns; link_bytes and the value
// array fold into FNV-1a digests.
struct GoldenRow {
  uint64_t total_ms_bits = 0;
  int iterations = 0;
  uint64_t messages = 0;
  uint64_t edges = 0;
  uint64_t link_bytes_digest = 0;
  uint64_t values_digest = 0;
};

template <typename Value>
GoldenRow Pin(const RunResult& r, const std::vector<Value>& values) {
  GoldenRow row;
  row.total_ms_bits = std::bit_cast<uint64_t>(r.total_ms);
  row.iterations = r.iterations;
  row.messages = r.messages_sent;
  row.edges = r.edges_processed;
  row.link_bytes_digest = test::LinkBytesDigest(r);
  row.values_digest = test::ValuesDigest(values);
  return row;
}

template <typename App>
GoldenRow GrouteRow(const graph::CsrGraph& g, int devices,
                    sim::ContentionModel contention, App app) {
  std::vector<typename App::Value> values;
  const RunResult r = baselines::RunGroute(
      g, MakePartition(g, devices),
      baselines::GrouteEngineOptions({}, contention), app, &values);
  return Pin(r, values);
}

template <typename App>
GoldenRow AsyncRow(const graph::CsrGraph& g, int devices,
                   AsyncWorklistKind worklist, sim::ContentionModel contention,
                   App app) {
  EngineOptions opt = AsyncOptions();
  opt.async.worklist = worklist;
  opt.contention = contention;
  std::vector<typename App::Value> values;
  const RunResult r =
      GumEngine<App>(&g, MakePartition(g, devices), Topo(devices), opt)
          .Run(app, &values);
  return Pin(r, values);
}

BfsApp BfsFrom(const graph::CsrGraph& g) {
  BfsApp app;
  app.source = MaxDegreeSource(g);
  return app;
}

SsspApp SsspFrom(const graph::CsrGraph& g) {
  SsspApp app;
  app.source = MaxDegreeSource(g);
  return app;
}

DeltaPageRankApp DeltaPr(const graph::CsrGraph& g) {
  DeltaPageRankApp app;
  app.num_vertices = g.num_vertices();
  app.epsilon = 1e-6;
  return app;
}

TEST(AsyncGoldenTest, GrouteAndAsyncBitIdentical) {
  constexpr GoldenRow kGolden[] = {
      {4638399238281109556ull, 2550, 5262, 5262,
       197642962949965861ull, 10885558025992347513ull},
      {4627055100425285090ull, 690, 14181, 14181,
       2940726562158086181ull, 6958107229267241064ull},
      {4642054137386468529ull, 6031, 62469, 62469,
       11629924239279982629ull, 15719651170260642214ull},
      {4630660375775528561ull, 1319, 34018, 34018,
       14911639343482079269ull, 11940344131088449570ull},
      {4638558227060447081ull, 25839, 150179, 150179,
       7824483434343761957ull, 13346994205906133797ull},
      {4627632715162681541ull, 1891, 54445, 54445,
       2696476651117414437ull, 13398839423619047053ull},
      {4641113493005615592ull, 77843, 1541118, 1541118,
       11869322022687148069ull, 4654313269454054245ull},
      {4641417013330801688ull, 102224, 7341945, 7341945,
       12553776177858021413ull, 14223350306429537894ull},
      {4638399238322392553ull, 2548, 5262, 5262,
       197642962949965861ull, 10885558025992347513ull},
      {4627055105551882666ull, 690, 14181, 14181,
       2940726562158086181ull, 6958107229267241064ull},
      {4642054137467627146ull, 6030, 62466, 62466,
       15343173743006255141ull, 15719651170260642214ull},
      {4630660376680001486ull, 1319, 34018, 34018,
       14911639343482079269ull, 11940344131088449570ull},
      {4638558227540831042ull, 25750, 150164, 150164,
       14477560261734369317ull, 13346994205906133797ull},
      {4627632719294734199ull, 1891, 54445, 54445,
       2696476651117414437ull, 13398839423619047053ull},
      {4641216182967519892ull, 78273, 1540841, 1540841,
       2668008327979272229ull, 9559873311899018020ull},
      {4641878184870972436ull, 102916, 7336921, 7336921,
       13873125577830762533ull, 6271303920714794985ull},
      {4635014757187507025ull, 1654, 5082, 5082,
       7597906090183852415ull, 10885558025992347513ull},
      {4637500945150699086ull, 35672, 1469061, 1469061,
       10293819334890324351ull, 7654735805015062310ull},
      {4635014757493376500ull, 1655, 5082, 5082,
       7597906090183852415ull, 10885558025992347513ull},
      {4638918561216162073ull, 35261, 1470688, 1470688,
       14107927280750657919ull, 6492745481163620228ull},
      {4621250647181688278ull, 1203, 8322, 8322,
       2477801380538812453ull, 15719651170260642214ull},
      {4617607524240184766ull, 2374, 129621, 129621,
       12303325358391625765ull, 4899226418933590038ull},
      {4621250647181688278ull, 1203, 8322, 8322,
       2477801380538812453ull, 15719651170260642214ull},
      {4617607524240184766ull, 2374, 129621, 129621,
       12303325358391625765ull, 4899226418933590038ull},
      {4622705741848454343ull, 1561, 21278, 21278,
       11301487746557478949ull, 15719651170260642214ull},
      {4616156387601550870ull, 906, 174421, 174421,
       1243888475040450597ull, 17875250694898860692ull},
      {4622705741848454343ull, 1561, 21278, 21278,
       11301487746557478949ull, 15719651170260642214ull},
      {4616156387601550870ull, 906, 174421, 174421,
       1243888475040450597ull, 17875250694898860692ull},
      {4617851013676968593ull, 1848, 122936, 122936,
       5801802169165250943ull, 7184972312581187116ull},
      {4617851013676968593ull, 1848, 122936, 122936,
       5801802169165250943ull, 7184972312581187116ull},
      {4612645526058041578ull, 547, 167022, 167022,
       3395515061902475647ull, 9205508152979130194ull},
      {4612645526058041578ull, 547, 167022, 167022,
       3395515061902475647ull, 9205508152979130194ull},
      {4615567112319249245ull, 1008, 55364, 55364,
       7267177274107824165ull, 13346994205906133797ull},
      {4615567112319249245ull, 1008, 55364, 55364,
       7267177274107824165ull, 13346994205906133797ull},
  };
  const auto kOff = sim::ContentionModel::kOff;
  const auto kFair = sim::ContentionModel::kFair;
  const graph::CsrGraph road = RoadGraph(32, 3);
  const graph::CsrGraph rmat = SocialGraph(10, 2, /*weighted=*/true);
  const graph::CsrGraph rmat_sym = SocialGraphSym(10, 2);
  std::vector<GoldenRow> got;
  // Groute: {bfs, sssp, wcc, dpr} x {road 32x32, RMAT 10} x {off, fair}
  // at 8 devices (an even ring, all NVLink).
  for (const auto c : {kOff, kFair}) {
    got.push_back(GrouteRow(road, 8, c, BfsFrom(road)));
    got.push_back(GrouteRow(rmat, 8, c, BfsFrom(rmat)));
    got.push_back(GrouteRow(road, 8, c, SsspFrom(road)));
    got.push_back(GrouteRow(rmat, 8, c, SsspFrom(rmat)));
    got.push_back(GrouteRow(road, 8, c, WccApp{}));
    got.push_back(GrouteRow(rmat_sym, 8, c, WccApp{}));
    got.push_back(GrouteRow(road, 8, c, DeltaPr(road)));
    got.push_back(GrouteRow(rmat, 8, c, DeltaPr(rmat)));
  }
  // Groute at 5 devices: the odd ring closes over PCIe (4 -> 0).
  for (const auto c : {kOff, kFair}) {
    got.push_back(GrouteRow(road, 5, c, BfsFrom(road)));
    got.push_back(GrouteRow(road, 5, c, DeltaPr(road)));
  }
  // GUM async: {buckets, smq} x {sssp, dpr} x {off, fair} on road 32x32
  // at 8 devices, and dpr at 5.
  for (const auto wl : {AsyncWorklistKind::kBuckets, AsyncWorklistKind::kSmq}) {
    for (const auto c : {kOff, kFair}) {
      got.push_back(AsyncRow(road, 8, wl, c, SsspFrom(road)));
      got.push_back(AsyncRow(road, 8, wl, c, DeltaPr(road)));
    }
  }
  for (const auto wl : {AsyncWorklistKind::kBuckets, AsyncWorklistKind::kSmq}) {
    for (const auto c : {kOff, kFair}) {
      got.push_back(AsyncRow(road, 5, wl, c, DeltaPr(road)));
    }
  }
  // GUM async buckets WCC at 8 devices: twice a device holds two bundles
  // that arrive at the same time, applied in the heap's order.
  for (const auto c : {kOff, kFair}) {
    got.push_back(
        AsyncRow(road, 8, AsyncWorklistKind::kBuckets, c, WccApp{}));
  }
  ASSERT_EQ(got.size(), std::size(kGolden));
  for (size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(testing::Message()
                 << "row " << i << ": {" << got[i].total_ms_bits << "ull, "
                 << got[i].iterations << ", " << got[i].messages << ", "
                 << got[i].edges << ", " << got[i].link_bytes_digest
                 << "ull, " << got[i].values_digest << "ull},");
    const GoldenRow& want = kGolden[i];
    EXPECT_EQ(got[i].total_ms_bits, want.total_ms_bits);
    EXPECT_EQ(got[i].iterations, want.iterations);
    EXPECT_EQ(got[i].messages, want.messages);
    EXPECT_EQ(got[i].edges, want.edges);
    EXPECT_EQ(got[i].link_bytes_digest, want.link_bytes_digest);
    EXPECT_EQ(got[i].values_digest, want.values_digest);
  }
}

}  // namespace
}  // namespace gum
