// Allocation gate for the async driver (DESIGN.md §15): a warm query on a
// reused RunContext allocates a fixed number of times, however many
// micro-batches it runs. Each cell warms one engine and context up on two
// sources, then runs each source once more; the two sources' batch counts
// differ at least twofold, and their allocation counts must be equal and
// under kMaxAllocationsPerQuery.
//
// The binary replaces the global operator new to count allocations, which
// is why it holds no other test.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algos/apps.h"
#include "baselines/groute.h"
#include "core/engine.h"
#include "core/graph_context.h"
#include "core/run_context.h"
#include "obs/trace.h"
#include "tests/test_util.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

// Out of line, so the compiler pairs no malloc() or free() in here with a
// new- or delete-expression (-Wmismatched-new-delete).
[[gnu::noinline]] void* CountedMalloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
[[gnu::noinline]] void Free(void* p) noexcept { std::free(p); }

}  // namespace

// Every form a caller can pair with another is replaced, so memory never
// crosses between these and the runtime's own (or a sanitizer's) forms.
void* operator new(std::size_t size) {
  if (void* p = CountedMalloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = CountedMalloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedMalloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedMalloc(size);
}
void operator delete(void* p) noexcept { Free(p); }
void operator delete[](void* p) noexcept { Free(p); }
void operator delete(void* p, std::size_t) noexcept { Free(p); }
void operator delete[](void* p, std::size_t) noexcept { Free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { Free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { Free(p); }

namespace gum {
namespace {

using algos::SsspApp;
using core::AsyncWorklistKind;
using core::EngineMode;
using core::EngineOptions;
using core::GraphContext;
using graph::VertexId;
using test::MakePartition;
using test::RoadGraph;
using test::TestEngineOptions;
using test::Topo;

// What one warm query allocates whatever its length: the RunResult (its
// timeline, link matrices and bucket histogram), the run's CommPlane and
// the value array handed to the caller. The cells below make 42 (4
// devices) and 66 (8 devices).
constexpr uint64_t kMaxAllocationsPerQuery = 80;
// Warm-up rounds over both sources before the counted queries.
constexpr int kWarmupRounds = 2;

struct Query {
  uint64_t allocations = 0;
  int64_t batches = 0;
};

// One engine and one RunContext, reused by every query, as a server keeps
// them.
class WarmSssp {
 public:
  explicit WarmSssp(const GraphContext* ctx) : engine_(ctx) {}

  Query Run(VertexId source) {
    SsspApp app;
    app.source = source;
    const uint64_t before = g_allocations.load();
    const core::RunResult r = engine_.Run(app, rc_, &values_);
    const uint64_t after = g_allocations.load();
    return {after - before, r.async_batches};
  }

 private:
  core::GumEngine<SsspApp> engine_;
  core::RunContext<SsspApp> rc_;
  std::vector<float> values_;
};

void ExpectFlatAllocations(const GraphContext& ctx, VertexId a, VertexId b) {
  WarmSssp warm(&ctx);
  for (int round = 0; round < kWarmupRounds; ++round) {
    warm.Run(a);
    warm.Run(b);
  }
  const Query qa = warm.Run(a);
  const Query qb = warm.Run(b);
  SCOPED_TRACE(testing::Message()
               << "source " << a << ": " << qa.batches << " batches, "
               << qa.allocations << " allocations; source " << b << ": "
               << qb.batches << " batches, " << qb.allocations
               << " allocations");
  ASSERT_GE(qa.batches, 2 * qb.batches) << "the sources must differ 2x";
  EXPECT_EQ(qa.allocations, qb.allocations);
  EXPECT_LE(qa.allocations, kMaxAllocationsPerQuery);
}

EngineOptions AsyncOptions(AsyncWorklistKind worklist, int threads) {
  EngineOptions opt = TestEngineOptions();
  opt.mode = EngineMode::kAsync;
  opt.async.worklist = worklist;
  opt.num_host_threads = threads;
  return opt;
}

// Road SSSP at 8 devices on the metis-like cut (the road workloads' shape),
// one host thread, from two sources about three times apart in batches.
class RoadAllocationTest : public testing::TestWithParam<AsyncWorklistKind> {
};

TEST_P(RoadAllocationTest, WarmQueryAllocationsDoNotGrowWithBatches) {
  const auto g = RoadGraph(48);
  const GraphContext ctx(
      &g, MakePartition(g, 8, graph::PartitionerKind::kMetisLike), Topo(8),
      AsyncOptions(GetParam(), 1));
  ExpectFlatAllocations(ctx, 196, 504);
}

INSTANTIATE_TEST_SUITE_P(Worklists, RoadAllocationTest,
                         testing::Values(AsyncWorklistKind::kBuckets,
                                         AsyncWorklistKind::kSmq));

// The Groute preset: the sorted set over the one-way ring, whose flush
// timer keeps about 1,900 bundles in flight at once on this grid.
TEST(GrouteAllocationTest, WarmQueryAllocationsDoNotGrowWithBatches) {
  const auto g = RoadGraph(48);
  const GraphContext ctx(
      &g, MakePartition(g, 8),
      sim::Topology::Ring(8, sim::Topology::kNvlinkLaneGBps,
                          /*pcie_odd_wrap=*/true),
      baselines::GrouteEngineOptions());
  ExpectFlatAllocations(ctx, 2016, 1316);
}

// Batches of more than 256 live entries relax in chunks on the pool, so
// this cell runs ThreadPool::ParallelFor at 2 host threads. A wide bucket
// on a weighted RMAT graph makes the batches that large.
TEST(PoolAllocationTest, WarmQueryAllocationsDoNotGrowWithBatches) {
  const auto g = test::SocialGraph(12, 7, /*weighted=*/true);
  EngineOptions opt = AsyncOptions(AsyncWorklistKind::kBuckets, 2);
  opt.async.delta = 64.0;
  const GraphContext ctx(&g, MakePartition(g, 4), Topo(4), opt);
  constexpr VertexId kSources[] = {3640, 3393};

  // A traced run (not counted) from each source shows the pool at work.
  for (const VertexId source : kSources) {
    obs::TraceSession session;
    session.Start();
    WarmSssp(&ctx).Run(source);
    session.Stop();
    std::ostringstream trace;
    session.WriteChromeTrace(trace);
    ASSERT_NE(trace.str().find("\"pool.busy\""), std::string::npos)
        << "source " << source;
  }

  ExpectFlatAllocations(ctx, kSources[0], kSources[1]);
}

}  // namespace
}  // namespace gum
