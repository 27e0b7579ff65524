// Unit tests for the destination-sharded message plane
// (core/message_store.h): ShardMap geometry, ranged pending iteration, and
// the contract that replaying every shard with MergeShard, shards claimed
// by a pool's threads, reproduces the serial Deposit replay bit for bit —
// combined inbox values AND first-writer attribution — for any shard x
// thread count.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/message_store.h"

namespace gum::core {
namespace {

using graph::VertexId;

TEST(ShardMapTest, SingleShardCoversEverything) {
  const ShardMap def;
  EXPECT_EQ(def.num_shards(), 1);
  EXPECT_EQ(def.ShardOf(0), 0);
  EXPECT_EQ(def.ShardOf(1u << 30), 0);

  const ShardMap one(1000, 1);
  EXPECT_EQ(one.num_shards(), 1);
  EXPECT_EQ(one.ShardBegin(0), 0u);
  EXPECT_EQ(one.ShardEnd(0), 1000u);
}

TEST(ShardMapTest, ShardsAreWordAlignedDisjointAndCovering) {
  for (const size_t num_v : {1u, 63u, 64u, 65u, 1000u, 4096u, 100003u}) {
    for (const int requested : {1, 2, 3, 4, 7, 8, 64}) {
      const ShardMap map(num_v, requested);
      SCOPED_TRACE(testing::Message()
                   << "num_v=" << num_v << " requested=" << requested);
      ASSERT_GE(map.num_shards(), 1);
      ASSERT_LE(map.num_shards(), requested);
      // Width is a multiple of the Bitmap word size, so concurrent shard
      // merges never share a membership word.
      EXPECT_EQ(map.width() % 64, 0u);
      size_t covered = 0;
      for (int s = 0; s < map.num_shards(); ++s) {
        EXPECT_EQ(map.ShardBegin(s), covered);
        EXPECT_GT(map.ShardEnd(s), map.ShardBegin(s));
        covered = map.ShardEnd(s);
      }
      EXPECT_EQ(covered, num_v);
      for (size_t v = 0; v < num_v; v += (num_v / 97) + 1) {
        const int s = map.ShardOf(static_cast<VertexId>(v));
        ASSERT_GE(s, 0);
        ASSERT_LT(s, map.num_shards());
        EXPECT_GE(v, map.ShardBegin(s));
        EXPECT_LT(v, map.ShardEnd(s));
      }
    }
  }
}

TEST(ShardMapTest, TinyGraphCollapsesToFewerShards) {
  // 64 vertices cannot be split below word granularity.
  const ShardMap map(64, 8);
  EXPECT_EQ(map.num_shards(), 1);
}

TEST(MessageStoreTest, ForEachPendingInRangeMatchesFullScan) {
  MessageStore<uint32_t> store(300);
  Rng rng(7);
  const auto combine = [](uint32_t a, uint32_t b) { return a + b; };
  for (int i = 0; i < 120; ++i) {
    store.Deposit(static_cast<VertexId>(rng.NextBounded(300)), 1, combine);
  }
  // Unaligned ranges, including empty and clamped-past-the-end ones.
  const std::pair<size_t, size_t> ranges[] = {
      {0, 300}, {0, 64}, {64, 128}, {1, 63}, {13, 259}, {250, 900}, {40, 40}};
  for (const auto& [begin, end] : ranges) {
    SCOPED_TRACE(testing::Message() << "range [" << begin << ", " << end
                                    << ")");
    std::vector<VertexId> expected;
    for (VertexId v = 0; v < store.num_vertices(); ++v) {
      if (v >= begin && v < end && store.Has(v)) expected.push_back(v);
    }
    std::vector<VertexId> got;
    store.ForEachPendingInRange(begin, end, [&](VertexId v, uint32_t) {
      got.push_back(v);
    });
    EXPECT_EQ(got, expected);
  }
}

TEST(MessageStagingTest, BinsByShardPreservingGenerationOrder) {
  const ShardMap map(256, 4);
  ASSERT_EQ(map.num_shards(), 4);
  MessageStaging<int> staging;
  staging.Configure(map);
  staging.Emit(0, 10);
  staging.Emit(200, 11);
  staging.Emit(1, 12);
  staging.Emit(64, 13);
  staging.Emit(0, 14);
  EXPECT_EQ(staging.size(), 5u);
  ASSERT_EQ(staging.num_bins(), 4);
  const auto expect_bin = [&](int s, std::vector<std::pair<VertexId, int>> e) {
    std::vector<std::pair<VertexId, int>> got(staging.bin(s).begin(),
                                              staging.bin(s).end());
    EXPECT_EQ(got, e) << "bin " << s;
  };
  expect_bin(0, {{0, 10}, {1, 12}, {0, 14}});
  expect_bin(1, {{64, 13}});
  expect_bin(2, {});
  expect_bin(3, {{200, 11}});
  staging.Clear();
  EXPECT_EQ(staging.size(), 0u);
  // Reusable after Clear; reconfiguring to the same map is a no-op.
  staging.Configure(map);
  staging.Emit(65, 1);
  EXPECT_EQ(staging.bin(1).size(), 1u);
}

// The push's contract: sharded parallel merge == serial Deposit replay.
// Random emissions across several "units" (staging buffers); the serial
// reference replays unit-major in generation order, the sharded path runs
// MergeShard per shard on a pool. Inbox values (non-associative combine
// included via double sums) and first-writer attribution must match
// exactly.
TEST(MessageStoreTest, ShardedMergeMatchesSerialDepositReplay) {
  constexpr size_t kNumV = 10000;
  constexpr int kUnits = 7;
  Rng rng(42);

  // Generation-order record per unit, for the serial reference.
  std::vector<std::vector<std::pair<VertexId, double>>> emitted(kUnits);
  for (int u = 0; u < kUnits; ++u) {
    const int count = 500 + static_cast<int>(rng.NextBounded(1500));
    for (int i = 0; i < count; ++i) {
      emitted[u].emplace_back(static_cast<VertexId>(rng.NextBounded(kNumV)),
                              rng.NextDouble());
    }
  }

  const auto combine = [](double a, double b) { return a + b; };

  // Serial reference: Deposit in unit-major generation order.
  MessageStore<double> serial(kNumV);
  std::vector<int> serial_first_writer(kNumV, -1);
  std::vector<size_t> serial_first_counts(kUnits, 0);
  for (int u = 0; u < kUnits; ++u) {
    for (const auto& [v, m] : emitted[u]) {
      if (serial.Deposit(v, m, combine)) {
        serial_first_writer[v] = u;
        ++serial_first_counts[u];
      }
    }
  }

  ThreadPool pool(4);
  for (const int shard_request : {1, 3, 8, 16}) {
    SCOPED_TRACE(testing::Message() << "shards=" << shard_request);
    const ShardMap map(kNumV, shard_request);
    std::vector<MessageStaging<double>> staged(kUnits);
    for (int u = 0; u < kUnits; ++u) {
      staged[u].Configure(map);
      for (const auto& [v, m] : emitted[u]) staged[u].Emit(v, m);
    }
    MessageStore<double> sharded(kNumV);
    std::vector<std::vector<size_t>> first_counts(
        map.num_shards(), std::vector<size_t>(kUnits, 0));
    std::vector<int> first_writer(kNumV, -1);
    ForEachShard(&pool, map.num_shards(), [&](size_t shard) {
      sharded.MergeShard(static_cast<int>(shard), staged, staged.size(),
                         combine, [&](size_t unit, VertexId v) {
                           // Shards own disjoint vertex ranges, so these
                           // writes are race-free across threads.
                           ++first_counts[shard][unit];
                           first_writer[v] = static_cast<int>(unit);
                         });
    });

    ASSERT_EQ(sharded.PendingCount(), serial.PendingCount());
    for (size_t v = 0; v < kNumV; ++v) {
      ASSERT_EQ(sharded.Has(v), serial.Has(v)) << "vertex " << v;
      if (serial.Has(v)) {
        // Bit-identical double sums: same combine chain, not just close.
        ASSERT_EQ(sharded.Get(v), serial.Get(v)) << "vertex " << v;
      }
    }
    EXPECT_EQ(first_writer, serial_first_writer);
    std::vector<size_t> merged_counts(kUnits, 0);
    for (const auto& per_shard : first_counts) {
      for (int u = 0; u < kUnits; ++u) merged_counts[u] += per_shard[u];
    }
    EXPECT_EQ(merged_counts, serial_first_counts);
  }
}

// The one-thread scatter backend deposits each message as it is emitted
// instead of staging it: replaying one staged buffer (a single unit, one
// shard) must behave exactly like those direct Deposits in generation
// order, first writers included.
TEST(MessageStoreTest, SingleBufferMergeMatchesDeposit) {
  constexpr size_t kNumV = 500;
  Rng rng(9);
  std::vector<MessageStaging<double>> staged(1);
  staged[0].Configure(ShardMap(kNumV, 1));
  MessageStore<double> direct(kNumV);
  const auto combine = [](double a, double b) { return a + b; };
  std::vector<VertexId> direct_first;
  for (int i = 0; i < 2000; ++i) {
    const auto v = static_cast<VertexId>(rng.NextBounded(kNumV));
    const double m = rng.NextDouble();
    staged[0].Emit(v, m);
    if (direct.Deposit(v, m, combine)) direct_first.push_back(v);
  }
  MessageStore<double> merged(kNumV);
  std::vector<VertexId> merge_first;
  merged.MergeShard(0, staged, staged.size(), combine,
                    [&](size_t, VertexId v) { merge_first.push_back(v); });
  EXPECT_EQ(merge_first, direct_first);
  for (size_t v = 0; v < kNumV; ++v) {
    ASSERT_EQ(merged.Has(v), direct.Has(v));
    if (direct.Has(v)) {
      ASSERT_EQ(merged.Get(v), direct.Get(v));
    }
  }
}

// The sharded merge of several units' random emissions lands
// byte-identical to unit-major serial Deposits for every thread x shard
// count.
TEST(MessageStoreTest, ShardedMergeMatchesSerialDepositsAcrossThreads) {
  constexpr size_t kNumV = 8192;
  constexpr int kUnits = 5;
  Rng rng(17);

  std::vector<std::vector<std::pair<VertexId, double>>> emitted(kUnits);
  for (int u = 0; u < kUnits; ++u) {
    const int count = 800 + static_cast<int>(rng.NextBounded(800));
    for (int i = 0; i < count; ++i) {
      const auto v = static_cast<VertexId>(rng.NextBounded(kNumV));
      emitted[u].emplace_back(v, rng.NextDouble());
    }
  }

  const auto combine = [](double a, double b) { return a + b; };
  const auto dump = [](const MessageStore<double>& store) {
    std::vector<std::pair<VertexId, double>> out;
    store.ForEachPendingInRange(
        0, kNumV, [&](VertexId v, double m) { out.emplace_back(v, m); });
    return out;
  };

  // Serial reference: unit-major Deposits.
  MessageStore<double> serial(kNumV);
  for (int u = 0; u < kUnits; ++u) {
    for (const auto& [v, m] : emitted[u]) serial.Deposit(v, m, combine);
  }
  const auto expected = dump(serial);
  ASSERT_FALSE(expected.empty());

  for (const int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    for (const int shard_request : {1, 4}) {
      SCOPED_TRACE(testing::Message()
                   << "threads=" << threads << " shards=" << shard_request);
      const ShardMap map(kNumV, shard_request);
      std::vector<MessageStaging<double>> staged(kUnits);
      for (int u = 0; u < kUnits; ++u) {
        staged[u].Configure(map);
        for (const auto& [v, m] : emitted[u]) staged[u].Emit(v, m);
      }
      MessageStore<double> merged(kNumV);
      ForEachShard(&pool, map.num_shards(), [&](size_t shard) {
        merged.MergeShard(static_cast<int>(shard), staged, staged.size(),
                          combine, [](size_t, VertexId) {});
      });
      EXPECT_EQ(dump(merged), expected);
    }
  }
}

}  // namespace
}  // namespace gum::core
