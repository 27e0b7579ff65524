// Step 4's directions (core/expand/, DESIGN.md §12): every --expand kind —
// frontier scatter, SpMV push/pull, and the auto density rule — must
// produce byte-identical vertex values for every host-thread count (one
// message shard per thread), on every bundled algorithm. Every entry point
// applies in place; each is checked against a test-local copy of the
// store-then-apply path it replaced (ReferencePush): the push and the
// stationary gather counter for counter, the one-thread direct deposit
// against the staged push, and the pull on values, next frontier and
// applied counts under its own charge rule. The suite lives in the
// parallel test binary so the TSan CI job watches the push's per-shard
// merge and apply, the gather's block parallelism and the payload passes
// for races.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algos/apps.h"
#include "algos/reference.h"
#include "common/bitmap.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "core/census.h"
#include "core/expand/expand_backend.h"
#include "core/expand/frontier_scatter.h"
#include "core/expand/pull_edges.h"
#include "core/graph_context.h"
#include "core/message_store.h"
#include "core/vertex_state.h"
#include "graph/generators.h"
#include "tests/test_util.h"

namespace gum::core {
namespace {

using algos::BfsApp;
using algos::DeltaPageRankApp;
using algos::PageRankApp;
using algos::SsspApp;
using algos::WccApp;
using graph::VertexId;
using test::MakePartition;
using test::MaxDegreeSource;
using test::RoadGraph;
using test::SocialGraph;
using test::SocialGraphSym;
using test::TestEngineOptions;
using test::Topo;

template <typename App>
std::vector<typename App::Value> RunValues(const graph::CsrGraph& g,
                                           const graph::Partition& part,
                                           App app, ExpandBackendKind backend,
                                           int threads,
                                           RunResult* result_out = nullptr) {
  EngineOptions opt = TestEngineOptions();
  opt.expand_backend = backend;
  opt.num_host_threads = threads;
  GumEngine<App> engine(&g, part, Topo(part.num_parts), opt);
  std::vector<typename App::Value> values;
  RunResult result = engine.Run(app, &values);
  if (result_out != nullptr) *result_out = result;
  return values;
}

// Scatter at one thread is the reference: every backend at every thread
// count of {1,2,3,4,8} (one shard per thread, 3 an odd count) must match it
// bit for bit.
template <typename App>
void ExpectBackendMatrixIdentical(const graph::CsrGraph& g,
                                  const graph::Partition& part, App app) {
  const auto reference =
      RunValues(g, part, app, ExpandBackendKind::kScatter, 1);
  for (const auto backend : {ExpandBackendKind::kScatter,
                             ExpandBackendKind::kSpmv,
                             ExpandBackendKind::kAuto}) {
    for (const int threads : {1, 2, 3, 4, 8}) {
      const auto values = RunValues(g, part, app, backend, threads);
      EXPECT_EQ(values, reference)
          << "backend=" << ExpandBackendKindName(backend)
          << " threads=" << threads;
    }
  }
}

TEST(ExpandBackendTest, BfsByteIdenticalAcrossBackends) {
  const auto g = SocialGraph();
  const auto part = MakePartition(g, 4);
  BfsApp app;
  app.source = MaxDegreeSource(g);
  ExpectBackendMatrixIdentical(g, part, app);
}

TEST(ExpandBackendTest, SsspByteIdenticalAcrossBackends) {
  const auto g = RoadGraph();
  const auto part = MakePartition(g, 4);
  SsspApp app;
  app.source = 0;
  ExpectBackendMatrixIdentical(g, part, app);
}

TEST(ExpandBackendTest, PageRankByteIdenticalAcrossBackends) {
  // Dense, every vertex active, non-associative double sums: the case the
  // canonical pull order (owner fragment asc, source vertex asc) exists
  // for. Bit-exact or nothing.
  const auto g = SocialGraph(9, 5);
  const auto part = MakePartition(g, 4);
  PageRankApp app;
  app.num_vertices = g.num_vertices();
  app.rounds = 10;
  ExpectBackendMatrixIdentical(g, part, app);
}

TEST(ExpandBackendTest, WccByteIdenticalAcrossBackends) {
  const auto g = SocialGraphSym();
  const auto part = MakePartition(g, 4);
  WccApp app;
  ExpectBackendMatrixIdentical(g, part, app);
}

TEST(ExpandBackendTest, DeltaPageRankUsesScatterFallbackPath) {
  // DeltaPageRank's Scatter suppresses zero payloads, so the pull gather
  // skips in-edges that emit nothing — still byte-identical.
  const auto g = SocialGraph(9, 5);
  const auto part = MakePartition(g, 4);
  DeltaPageRankApp app;
  app.num_vertices = g.num_vertices();
  const auto reference =
      RunValues(g, part, app, ExpandBackendKind::kScatter, 1);
  for (const int threads : {1, 4}) {
    const auto values =
        RunValues(g, part, app, ExpandBackendKind::kSpmv, threads);
    ASSERT_EQ(values.size(), reference.size());
    for (size_t v = 0; v < values.size(); ++v) {
      EXPECT_EQ(values[v].rank, reference[v].rank)
          << "threads=" << threads << " v=" << v;
      EXPECT_EQ(values[v].residual, reference[v].residual)
          << "threads=" << threads << " v=" << v;
    }
  }
}

TEST(ExpandBackendTest, EightDeviceMatrixWithStealingActive) {
  // 8 fragments on the full hybrid cube mesh: scatter iterations steal,
  // spmv iterations run the identity plan — values must agree anyway.
  const auto g = SocialGraph();
  const auto part = MakePartition(g, 8);
  BfsApp app;
  app.source = MaxDegreeSource(g);
  ExpectBackendMatrixIdentical(g, part, app);
}

// --- stationary supersteps (fixed-round apps, DESIGN.md §12) ---

// Message rules of the identity tests' apps: Scatter suppresses some edges
// (so raw messages differ from edges and a destination's first in-edge is
// not always its first writer), the payload carries the source id (so
// summing messages in another order changes the bits), and OnFrontier
// writes the vertex value.
struct SuppressingMessages {
  using Value = double;
  using Message = double;

  Value InitValue(VertexId v) const { return 1.0 / (v + 3); }
  Message OnFrontier(VertexId u, Value& val, uint32_t out_degree) {
    val += 0.25;
    return static_cast<double>(u) + val / (out_degree + 1);
  }
  std::optional<Message> Scatter(const Message& payload, VertexId v,
                                 float weight) const {
    if ((static_cast<uint64_t>(payload) + v) % 3 == 0) return std::nullopt;
    return payload * weight;
  }
  Message Combine(const Message& a, const Message& b) const { return a + b; }
  Message InitialAccumulator() const { return 0.0; }
  bool Apply(VertexId, Value& val, const Message& msg) const {
    val = 0.5 * val + 1e-4 * msg;
    return true;
  }
};

// The fixed-round (stationary) app: SuppressingMessages over a value that
// also records the message Apply received, bit for bit, and whether one
// arrived. InitialAccumulator() is a NaN that no chain of the finite
// messages yields, so it marks a vertex that received nothing.
struct SuppressingRoundsApp : SuppressingMessages {
  static constexpr uint64_t kNothingArrived = 0x7ff800000badf00dULL;
  struct Value {
    double x = 0.0;
    uint64_t applied_bits = 0;
    bool arrived = false;
  };

  std::string name() const { return "suppressing_rounds"; }
  int fixed_rounds() const { return 2; }
  bool IsInitiallyActive(VertexId) const { return true; }
  Value InitValue(VertexId v) const {
    return {.x = SuppressingMessages::InitValue(v)};
  }
  Message InitialAccumulator() const {
    return std::bit_cast<double>(kNothingArrived);
  }
  Message OnFrontier(VertexId u, Value& val, uint32_t out_degree) {
    return SuppressingMessages::OnFrontier(u, val.x, out_degree);
  }
  bool Apply(VertexId v, Value& val, const Message& msg) const {
    val.applied_bits = std::bit_cast<uint64_t>(msg);
    val.arrived = val.applied_bits != kNothingArrived;
    if (val.arrived) SuppressingMessages::Apply(v, val.x, msg);
    return true;
  }
};

// The data-driven app: supersteps expand the previous one's targets, a
// value also records the message Apply received, bit for bit, and an apply
// at every fifth vertex does not activate it.
struct SuppressingDataDrivenApp : SuppressingMessages {
  struct Value {
    double x = 0.0;
    uint64_t applied_bits = 0;
  };

  std::string name() const { return "suppressing_data_driven"; }
  bool IsInitiallyActive(VertexId v) const { return v % 7 == 0; }
  Value InitValue(VertexId v) const {
    return {.x = SuppressingMessages::InitValue(v)};
  }
  Message OnFrontier(VertexId u, Value& val, uint32_t out_degree) {
    return SuppressingMessages::OnFrontier(u, val.x, out_degree);
  }
  bool Apply(VertexId v, Value& val, const Message& msg) const {
    val.applied_bits = std::bit_cast<uint64_t>(msg);
    SuppressingMessages::Apply(v, val.x, msg);
    return v % 5 != 0;
  }
};

// A frontier-steal plan for the identity tests. Rotated owners (as after
// an ownership steal) separate each fragment from its owner, so hub and
// stolen edges count under different rules. With `fsteal` (and n > 1) the
// owner keeps half of each fragment's load and the other devices split
// the rest; otherwise the owner takes it all (the identity plan).
struct TestPlan {
  std::vector<int> owner;
  std::vector<int> active;
  FStealDecision fs;
};

TestPlan RotatedPlan(int n, const std::vector<double>& loads, bool fsteal) {
  TestPlan plan;
  plan.owner.resize(n);
  plan.active.resize(n);
  for (int i = 0; i < n; ++i) {
    plan.owner[i] = (i + 1) % n;
    plan.active[i] = i;
  }
  plan.fs.assignment.assign(n, std::vector<double>(n, 0.0));
  for (int i = 0; i < n; ++i) {
    if (!fsteal || n == 1) {
      plan.fs.assignment[i][plan.owner[i]] = loads[i];
      continue;
    }
    plan.fs.applied = true;
    for (int j = 0; j < n; ++j) {
      plan.fs.assignment[i][j] =
          loads[i] * (j == plan.owner[i] ? 0.5 : 0.5 / (n - 1));
    }
  }
  return plan;
}

// The stationary identity matrix's graphs: weighted RMAT, a web crawl, a
// road grid, and an RMAT built keeping duplicate edges and self-loops.
std::vector<graph::CsrGraph> StationaryGraphs() {
  std::vector<graph::CsrGraph> graphs;
  graphs.push_back(SocialGraph(9, 5, /*weighted=*/true));
  graph::WebCrawlOptions web;
  web.scale = 9;
  web.seed = 4;
  graphs.push_back(
      std::move(graph::CsrGraph::FromEdgeList(graph::WebCrawl(web))).value());
  graphs.push_back(RoadGraph(32, 3));
  graph::RmatOptions rmat;
  rmat.scale = 8;
  rmat.edge_factor = 8;
  rmat.seed = 6;
  rmat.weighted = true;
  graph::CsrBuildOptions keep_all;
  keep_all.deduplicate = false;
  keep_all.remove_self_loops = false;
  graphs.push_back(std::move(graph::CsrGraph::FromEdgeList(graph::Rmat(rmat),
                                                           keep_all))
                       .value());
  return graphs;
}

void ExpectBitsEqual(const std::vector<std::vector<double>>& got,
                     const std::vector<std::vector<double>>& want,
                     const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].size(), want[i].size()) << what;
    for (size_t j = 0; j < got[i].size(); ++j) {
      EXPECT_EQ(std::bit_cast<uint64_t>(got[i][j]),
                std::bit_cast<uint64_t>(want[i][j]))
          << what << "[" << i << "][" << j << "]: " << got[i][j] << " vs "
          << want[i][j];
    }
  }
}

// Every cell of two supersteps' expand counters, bit for bit.
void ExpectCountersEqual(const ExpandCounters& got, const ExpandCounters& want) {
  ExpectBitsEqual(got.edges_done, want.edges_done, "edges_done");
  ExpectBitsEqual(got.hub_edges, want.hub_edges, "hub_edges");
  ExpectBitsEqual(got.agg_msgs, want.agg_msgs, "agg_msgs");
  ExpectBitsEqual(got.raw_msgs, want.raw_msgs, "raw_msgs");
  EXPECT_EQ(std::bit_cast<uint64_t>(got.stolen_edges),
            std::bit_cast<uint64_t>(want.stolen_edges));
  EXPECT_EQ(got.edges_processed, want.edges_processed);
}

// A test-local copy of the push as it ran before it applied in place.
// Expand is FrontierScatterBackend::Expand as it was: a serial expand that
// deposits each message as it is emitted (no pool of two or more threads),
// or a staged expand merged shard by shard on the pool
// (MessageStore::MergeSharded), first writers charged per shard and
// reduced in shard order. It leaves the combined messages in the store.
// Apply is ApplySuperstep, the BSP loop's old apply phase: each shard
// drains its store range, and the next frontier is assembled in shard
// order. The in-place push is checked against the two back to back; the
// stationary and pull tests read Expand's store.
template <typename App>
class ReferencePush {
 public:
  using Value = typename App::Value;
  using Message = typename App::Message;

  void Expand(ThreadPool* pool, const graph::CsrGraph& g,
              const graph::Partition& partition, const HubCache* hub_cache,
              const std::vector<int>& owner_of_fragment,
              const std::vector<int>& active, const FStealDecision& fs,
              const FrontierCensus& census, App& app,
              std::vector<Value>& values, const FrontierSoA& frontier,
              const ShardMap& shards, MessageStore<Message>& store,
              ExpandCounters* out) {
    const int n = partition.num_parts;
    out->Reset(n);
    const std::vector<WorkUnit> units =
        BuildWorkUnits(frontier, fs, census, owner_of_fragment, active);
    const auto combine = [&app](const Message& a, const Message& b) {
      return app.Combine(a, b);
    };
    if (pool == nullptr || pool->num_threads() <= 1) {
      if (counters_.size() < units.size()) counters_.resize(units.size());
      for (size_t idx = 0; idx < units.size(); ++idx) {
        const WorkUnit& unit = units[idx];
        counters_[idx].Reset(n);
        ExpandUnit(g, partition, hub_cache, owner_of_fragment[unit.fragment],
                   app, values, frontier.Fragment(unit.fragment), unit,
                   &counters_[idx],
                   [&](VertexId v, uint32_t owner, const Message& m) {
                     if (store.Deposit(v, m, combine)) {
                       ChargeFirstWriter(out->agg_msgs, unit.executor, owner);
                     }
                   });
      }
      AddUnitCounters(units, n, out);
      return;
    }
    ExpandSuperstep(pool, g, partition, hub_cache, owner_of_fragment, app,
                    values, frontier, units, shards, &staged_, &counters_);
    AddUnitCounters(units, n, out);

    const int s_count = shards.num_shards();
    if (static_cast<int>(shard_agg_.size()) < s_count) {
      shard_agg_.resize(s_count);
    }
    for (auto& per_exec : shard_agg_) {
      if (static_cast<int>(per_exec.size()) != n) {
        per_exec.assign(n, std::vector<double>(n, 0.0));
      } else {
        for (auto& row : per_exec) std::fill(row.begin(), row.end(), 0.0);
      }
    }
    // MergeSharded: every shard replays its bins in canonical unit order.
    ForEachShard(pool, s_count, [&](size_t s) {
      store.MergeShard(static_cast<int>(s), staged_, units.size(), combine,
                       [&](size_t unit_idx, VertexId v) {
                         ChargeFirstWriter(shard_agg_[s],
                                           units[unit_idx].executor,
                                           partition.owner[v]);
                       });
    });
    for (const auto& per_exec : shard_agg_) {
      for (int e = 0; e < n; ++e) {
        for (int f = 0; f < n; ++f) out->agg_msgs[e][f] += per_exec[e][f];
      }
    }
  }

  void Apply(ThreadPool* pool, const ShardMap& shards,
             const graph::Partition& partition, App& app,
             MessageStore<Message>& store, std::vector<Value>& values,
             FrontierSoA* frontier, std::vector<double>* apply_counts) {
    const int s_count = shards.num_shards();
    const size_t n = static_cast<size_t>(partition.num_parts);
    if (segments_.size() < static_cast<size_t>(s_count)) {
      segments_.resize(s_count);
    }
    for (int s = 0; s < s_count; ++s) {
      segments_[s].resize(n);
      for (auto& seg : segments_[s]) seg.clear();
    }
    if (counts_.size() < static_cast<size_t>(s_count)) counts_.resize(s_count);
    ForEachShard(pool, s_count, [&](size_t s) {
      auto* const segs = segments_[s].data();
      auto& cnt = counts_[s];
      cnt.assign(n, 0.0);
      const size_t begin = shards.ShardBegin(static_cast<int>(s));
      const size_t end =
          std::min(values.size(), shards.ShardEnd(static_cast<int>(s)));
      store.ForEachPendingInRange(begin, end, [&](VertexId v,
                                                  const Message& msg) {
        if (app.Apply(v, values[v], msg)) segs[partition.owner[v]].push_back(v);
        cnt[partition.owner[v]] += 1.0;
      });
    });
    next_frontier_.AssignFromShardSegments(segments_, s_count,
                                           static_cast<int>(n));
    std::swap(*frontier, next_frontier_);
    apply_counts->assign(n, 0.0);
    for (int s = 0; s < s_count; ++s) {
      for (size_t i = 0; i < n; ++i) (*apply_counts)[i] += counts_[s][i];
    }
    store.EndSuperstep();
  }

 private:
  static void ChargeFirstWriter(std::vector<std::vector<double>>& agg,
                                int executor, uint32_t owner) {
    agg[executor][owner] += 1.0;
  }

  void AddUnitCounters(const std::vector<WorkUnit>& units, int n,
                       ExpandCounters* out) const {
    for (size_t idx = 0; idx < units.size(); ++idx) {
      const WorkUnit& unit = units[idx];
      const UnitCounters& c = counters_[idx];
      out->edges_done[unit.fragment][unit.executor] += c.edges;
      out->hub_edges[unit.fragment][unit.executor] += c.hub_edges;
      for (int f = 0; f < n; ++f) {
        out->raw_msgs[unit.executor][f] += c.raw_msgs[f];
      }
      out->stolen_edges += c.stolen_edges;
      out->edges_processed += c.edges_processed;
    }
  }

  std::vector<MessageStaging<Message>> staged_;
  std::vector<UnitCounters> counters_;
  // [shard][executor][owner] first writers.
  std::vector<std::vector<std::vector<double>>> shard_agg_;
  // [shard][fragment] activations and applied counts, and the spare
  // frontier arena.
  std::vector<std::vector<std::vector<VertexId>>> segments_;
  std::vector<std::vector<double>> counts_;
  FrontierSoA next_frontier_;
};

// The fixed-round apply that ended a staged stationary superstep: every
// vertex applies its stored message, or InitialAccumulator() when it has
// none, and each fragment counts one applied message per vertex.
template <typename App>
void ApplyEveryVertex(const graph::Partition& part, const App& app,
                      MessageStore<typename App::Message>& store,
                      std::vector<typename App::Value>& values,
                      std::vector<double>* applied) {
  for (VertexId v = 0; v < values.size(); ++v) {
    app.Apply(v, values[v],
              store.Has(v) ? store.Get(v) : app.InitialAccumulator());
    (*applied)[part.owner[v]] += 1.0;
  }
  store.EndSuperstep();
}

void ExpectValueBitsEqual(const SuppressingRoundsApp::Value& got,
                          const SuppressingRoundsApp::Value& want,
                          VertexId v) {
  ASSERT_EQ(std::bit_cast<uint64_t>(got.x), std::bit_cast<uint64_t>(want.x))
      << "v=" << v;
  ASSERT_EQ(got.applied_bits, want.applied_bits) << "v=" << v;
  ASSERT_EQ(got.arrived, want.arrived) << "v=" << v;
}

// The pull's charges for one superstep whose sources are `frontier`: each
// out-edge of a frontier vertex is one remote gather from the source's
// fragment to the executor of the destination's fragment, whether Scatter
// emits or not. Returns the [fragment][executor] matrix and adds the edge
// count to *edges_processed.
std::vector<std::vector<double>> PullCharges(
    const graph::CsrGraph& g, const graph::Partition& part,
    const std::vector<int>& owner, const FrontierSoA& frontier,
    uint64_t* edges_processed) {
  const int n = part.num_parts;
  std::vector<std::vector<double>> edges(n, std::vector<double>(n, 0.0));
  for (int i = 0; i < n; ++i) {
    for (const VertexId u : frontier.Fragment(i)) {
      for (const VertexId v : g.OutNeighbors(u)) {
        edges[i][owner[part.owner[v]]] += 1.0;
        ++*edges_processed;
      }
    }
  }
  return edges;
}

// Runs two stationary supersteps three ways side by side on one context
// (its pool, hub cache, census and PullEdges): the reference push's staged
// Expand plus the fixed-round apply, and the gather over every vertex under
// each charge rule. Compares every counter cell and apply_msgs of the messages-charged
// gather with the staged path's, the pull-charged gather's charges with a
// count over every out-edge, and every value of both gathers bit for bit;
// a value records the message its vertex applied and whether one arrived.
// Adds the vertices that applied InitialAccumulator() to arrivals[0] and
// the rest to arrivals[1].
void ExpectStationaryMatchesStaged(const GraphContext& ctx, bool fsteal,
                                   bool hub, size_t arrivals[2]) {
  using Value = SuppressingRoundsApp::Value;
  const graph::CsrGraph& g = ctx.graph();
  const graph::Partition& part = ctx.partition();
  const int n = part.num_parts;
  FrontierSoA frontier;
  frontier.Assign(part.part_vertices);
  const FrontierCensus& census = ctx.stationary_census();
  const TestPlan plan = RotatedPlan(n, census.loads, fsteal);
  const std::vector<int>& owner = plan.owner;
  const std::vector<int>& active = plan.active;
  const FStealDecision& fs = plan.fs;
  const HubCache* hub_cache = hub ? &ctx.hub_cache() : nullptr;
  SuppressingRoundsApp app;
  std::vector<Value> staged_values(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    staged_values[v] = app.InitValue(v);
  }
  std::vector<Value> gathered_values = staged_values;
  std::vector<Value> pulled_values = staged_values;
  ReferencePush<SuppressingRoundsApp> staged_push;
  FrontierScatterBackend<SuppressingRoundsApp> stationary_backend;
  FrontierScatterBackend<SuppressingRoundsApp> pull_backend;
  MessageStore<double> staged_store(g.num_vertices());
  const std::vector<std::vector<double>> zero(n, std::vector<double>(n, 0.0));
  uint64_t all_edges = 0;
  const std::vector<std::vector<double>> pull_edges =
      PullCharges(g, part, owner, frontier, &all_edges);
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(testing::Message() << "round " << round);
    ExpandCounters staged;
    ExpandCounters gathered;
    ExpandCounters pulled;
    std::vector<double> applied(n, 0.0);
    std::vector<double> gathered_applied;
    std::vector<double> pulled_applied;
    staged_push.Expand(ctx.pool(), g, part, hub_cache, owner, active, fs,
                       census, app, staged_values, frontier, ctx.shard_map(),
                       staged_store, &staged);
    ApplyEveryVertex(part, app, staged_store, staged_values, &applied);
    stationary_backend.Gather(
        ctx.pool(), g, part, hub_cache, owner, active, fs, census,
        ctx.pull_edges(), GatherCharge::kMessages,
        GatherSources::kEveryVertex, app, gathered_values, &frontier,
        &gathered_applied, &gathered);
    pull_backend.Gather(ctx.pool(), g, part, hub_cache, owner, active, fs,
                        census, ctx.pull_edges(),
                        GatherCharge::kRemoteGathers,
                        GatherSources::kEveryVertex, app, pulled_values,
                        &frontier, &pulled_applied, &pulled);
    ExpectCountersEqual(gathered, staged);
    // The pull charges a remote gather per in-edge of every source and
    // sends no message.
    ExpectBitsEqual(pulled.edges_done, pull_edges, "pull edges_done");
    ExpectBitsEqual(pulled.raw_msgs, zero, "pull raw_msgs");
    ExpectBitsEqual(pulled.agg_msgs, zero, "pull agg_msgs");
    EXPECT_EQ(pulled.edges_processed, all_edges);
    // What the engine records as a stationary superstep's applied
    // messages: one per vertex of the fragment.
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(applied[i],
                static_cast<double>(part.part_vertices[i].size()));
    }
    EXPECT_EQ(gathered_applied, applied);
    EXPECT_EQ(pulled_applied, applied);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      ExpectValueBitsEqual(gathered_values[v], staged_values[v], v);
      ExpectValueBitsEqual(pulled_values[v], staged_values[v], v);
      if (testing::Test::HasFatalFailure()) return;
      ++arrivals[staged_values[v].arrived ? 1 : 0];
    }
  }
}

TEST(StationaryExpandTest, CountersStoreAndValuesMatchStagedPath) {
  const std::vector<graph::CsrGraph> graphs = StationaryGraphs();
  size_t arrivals[2] = {0, 0};
  for (size_t gi = 0; gi < graphs.size(); ++gi) {
    // Some raw messages are suppressed, and some first in-edges are not
    // first writers: the cases the attribution rules exist for.
    for (const int devices : {1, 3, 8}) {
      const graph::Partition part = MakePartition(graphs[gi], devices);
      for (const int threads : {1, 2, 3, 4, 8}) {
        for (const bool hub : {true, false}) {
          EngineOptions opt = TestEngineOptions();
          opt.num_host_threads = threads;
          opt.enable_hub_cache = hub;
          const GraphContext ctx(&graphs[gi], part, Topo(devices), opt);
          for (const bool fsteal : {true, false}) {
            SCOPED_TRACE(testing::Message()
                         << "graph " << gi << " devices=" << devices
                         << " threads=" << threads << " hub=" << hub
                         << " fsteal=" << fsteal);
            ExpectStationaryMatchesStaged(ctx, fsteal, hub, arrivals);
            if (HasFatalFailure()) return;
          }
        }
      }
    }
  }
  // Both of the apply's inputs occur: InitialAccumulator() at a vertex no
  // message reached, and a combined message.
  EXPECT_GT(arrivals[0], 0u);
  EXPECT_GT(arrivals[1], 0u);
}

TEST(StationaryExpandTest, SuppressingAppExercisesEveryRule) {
  // The matrix above is only as strong as its app: on the weighted RMAT at
  // 3 devices some edges are suppressed, hubs exist, and some first
  // in-edges emit nothing.
  const graph::CsrGraph g = SocialGraph(9, 5, /*weighted=*/true);
  const GraphContext ctx(&g, MakePartition(g, 3), Topo(3),
                         TestEngineOptions());
  EXPECT_GT(ctx.hub_cache().num_hubs(), 0u);
  SuppressingRoundsApp app;
  const PullEdges& pull = ctx.pull_edges();
  size_t suppressed = 0;
  size_t suppressed_first = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (graph::EdgeId e = pull.offsets[v]; e < pull.offsets[v + 1]; ++e) {
      SuppressingRoundsApp::Value val = app.InitValue(pull.sources[e]);
      const double payload = app.OnFrontier(pull.sources[e], val,
                                            g.OutDegree(pull.sources[e]));
      if (!app.Scatter(payload, v, 1.0f).has_value()) {
        ++suppressed;
        if (e == pull.offsets[v]) ++suppressed_first;
      }
    }
  }
  EXPECT_GT(suppressed, 0u);
  EXPECT_LT(suppressed, static_cast<size_t>(g.num_edges()));
  EXPECT_GT(suppressed_first, 0u);
}

// --- the push (data-driven supersteps) ---

// The data-driven identity matrix's graphs: weighted RMAT, a road grid, and
// an RMAT built keeping duplicate edges and self-loops.
std::vector<graph::CsrGraph> DataDrivenGraphs() {
  std::vector<graph::CsrGraph> graphs;
  graphs.push_back(SocialGraph(9, 5, /*weighted=*/true));
  graphs.push_back(RoadGraph(32, 3));
  graph::RmatOptions rmat;
  rmat.scale = 8;
  rmat.edge_factor = 8;
  rmat.seed = 6;
  rmat.weighted = true;
  graph::CsrBuildOptions keep_all;
  keep_all.deduplicate = false;
  keep_all.remove_self_loops = false;
  graphs.push_back(std::move(graph::CsrGraph::FromEdgeList(graph::Rmat(rmat),
                                                           keep_all))
                       .value());
  return graphs;
}

void ExpectValueBitsEqual(const SuppressingDataDrivenApp::Value& got,
                          const SuppressingDataDrivenApp::Value& want,
                          VertexId v) {
  ASSERT_EQ(std::bit_cast<uint64_t>(got.x), std::bit_cast<uint64_t>(want.x))
      << "v=" << v;
  ASSERT_EQ(got.applied_bits, want.applied_bits) << "v=" << v;
}

// What a data-driven superstep leaves behind, compared bit for bit: the
// values, each fragment's next frontier (ascending) and the applied
// counts. Some applied destinations stay inactive.
void ExpectSuperstepEqual(
    const std::vector<SuppressingDataDrivenApp::Value>& got_values,
    const FrontierSoA& got_frontier, const std::vector<double>& got_applied,
    const std::vector<SuppressingDataDrivenApp::Value>& want_values,
    const FrontierSoA& want_frontier,
    const std::vector<double>& want_applied) {
  EXPECT_EQ(got_applied, want_applied);
  ASSERT_GT(want_frontier.TotalSize(), 0u);
  ASSERT_LT(static_cast<double>(want_frontier.TotalSize()),
            std::accumulate(want_applied.begin(), want_applied.end(), 0.0));
  ASSERT_EQ(got_frontier.ToVectors(), want_frontier.ToVectors());
  for (int i = 0; i < got_frontier.num_fragments(); ++i) {
    ASSERT_TRUE(std::ranges::is_sorted(got_frontier.Fragment(i)))
        << "fragment " << i;
  }
  for (VertexId v = 0; v < got_values.size(); ++v) {
    ExpectValueBitsEqual(got_values[v], want_values[v], v);
    if (testing::Test::HasFatalFailure()) return;
  }
}

// Runs three data-driven supersteps of the in-place push from the same
// state on `pool` (null: units serial in canonical order, depositing as
// they emit, and one apply range) and through ReferencePush's Expand and
// Apply on the same pool. Compares every counter cell, apply_msgs, the next
// frontier and every value bit for bit, and checks that the push leaves its
// store empty. Each superstep's frontier is the previous one's activated
// destinations.
void ExpectPushMatchesReference(const GraphContext& ctx, ThreadPool* pool,
                                bool fsteal, bool hub) {
  using App = SuppressingDataDrivenApp;
  const graph::CsrGraph& g = ctx.graph();
  const graph::Partition& part = ctx.partition();
  const int n = part.num_parts;
  const HubCache* hub_cache = hub ? &ctx.hub_cache() : nullptr;
  App app;
  std::vector<App::Value> push_values(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    push_values[v] = app.InitValue(v);
  }
  std::vector<App::Value> ref_values = push_values;
  FrontierScatterBackend<App> backend;
  ReferencePush<App> reference;
  MessageStore<double> push_store(g.num_vertices());
  MessageStore<double> ref_store(g.num_vertices());
  FrontierSoA push_frontier;
  push_frontier.BuildByOwner(
      g.num_vertices(), part.owner, n,
      [&](VertexId v) { return app.IsInitiallyActive(v); });
  FrontierSoA ref_frontier = push_frontier;
  FrontierCensus census;
  for (int step = 0; step < 3; ++step) {
    SCOPED_TRACE(testing::Message() << "superstep " << step);
    census.Take(g, ctx.hub_cache(), ref_frontier);
    const TestPlan plan = RotatedPlan(n, census.loads, fsteal);
    ExpandCounters pushed;
    ExpandCounters want;
    std::vector<double> push_applied;
    std::vector<double> ref_applied;
    backend.Expand(pool, g, part, hub_cache, plan.owner, plan.active,
                   plan.fs, census, app, push_values, &push_frontier,
                   ctx.shard_map(), push_store, &push_applied, &pushed);
    reference.Expand(pool, g, part, hub_cache, plan.owner, plan.active,
                     plan.fs, census, app, ref_values, ref_frontier,
                     ctx.shard_map(), ref_store, &want);
    reference.Apply(pool, ctx.shard_map(), part, app, ref_store, ref_values,
                    &ref_frontier, &ref_applied);
    ExpectCountersEqual(pushed, want);
    EXPECT_EQ(push_store.PendingCount(), 0u);
    ExpectSuperstepEqual(push_values, push_frontier, push_applied,
                         ref_values, ref_frontier, ref_applied);
    if (testing::Test::HasFatalFailure()) return;
  }
}

TEST(PushExpandTest, ValuesFrontierAndCountersMatchReference) {
  const std::vector<graph::CsrGraph> graphs = DataDrivenGraphs();
  for (size_t gi = 0; gi < graphs.size(); ++gi) {
    for (const int devices : {1, 3, 8}) {
      const graph::Partition part = MakePartition(graphs[gi], devices);
      for (const int threads : {1, 2, 3, 4, 8}) {
        for (const bool hub : {true, false}) {
          EngineOptions opt = TestEngineOptions();
          opt.num_host_threads = threads;
          opt.enable_hub_cache = hub;
          const GraphContext ctx(&graphs[gi], part, Topo(devices), opt);
          ThreadPool* const pools[] = {ctx.pool(), nullptr};
          for (ThreadPool* pool : pools) {
            for (const bool fsteal : {true, false}) {
              SCOPED_TRACE(testing::Message()
                           << "graph " << gi << " devices=" << devices
                           << " threads=" << threads << " hub=" << hub
                           << " pool=" << (pool != nullptr)
                           << " fsteal=" << fsteal);
              ExpectPushMatchesReference(ctx, pool, fsteal, hub);
              if (HasFatalFailure()) return;
            }
          }
        }
      }
    }
  }
}

// Runs three data-driven supersteps of the push from the same state twice:
// with no pool (units serial in canonical order, depositing as they emit)
// and on the context's pool (staged, merged and applied by shard).
// Compares every counter cell, apply_msgs, the next frontier and every
// value bit for bit, and checks that both leave their store empty.
void ExpectSerialMatchesStaged(const GraphContext& ctx, bool fsteal,
                               bool hub) {
  using App = SuppressingDataDrivenApp;
  ASSERT_NE(ctx.pool(), nullptr);
  const graph::CsrGraph& g = ctx.graph();
  const graph::Partition& part = ctx.partition();
  const int n = part.num_parts;
  const HubCache* hub_cache = hub ? &ctx.hub_cache() : nullptr;
  App app;
  std::vector<App::Value> serial_values(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    serial_values[v] = app.InitValue(v);
  }
  std::vector<App::Value> staged_values = serial_values;
  FrontierScatterBackend<App> serial_backend;
  FrontierScatterBackend<App> staged_backend;
  MessageStore<double> serial_store(g.num_vertices());
  MessageStore<double> staged_store(g.num_vertices());
  FrontierSoA serial_frontier;
  serial_frontier.BuildByOwner(
      g.num_vertices(), part.owner, n,
      [&](VertexId v) { return app.IsInitiallyActive(v); });
  FrontierSoA staged_frontier = serial_frontier;
  FrontierCensus census;
  for (int step = 0; step < 3; ++step) {
    SCOPED_TRACE(testing::Message() << "superstep " << step);
    census.Take(g, ctx.hub_cache(), serial_frontier);
    const TestPlan plan = RotatedPlan(n, census.loads, fsteal);
    ExpandCounters serial;
    ExpandCounters staged;
    std::vector<double> serial_applied;
    std::vector<double> staged_applied;
    serial_backend.Expand(nullptr, g, part, hub_cache, plan.owner,
                          plan.active, plan.fs, census, app, serial_values,
                          &serial_frontier, ctx.shard_map(), serial_store,
                          &serial_applied, &serial);
    staged_backend.Expand(ctx.pool(), g, part, hub_cache, plan.owner,
                          plan.active, plan.fs, census, app, staged_values,
                          &staged_frontier, ctx.shard_map(), staged_store,
                          &staged_applied, &staged);
    ExpectCountersEqual(serial, staged);
    EXPECT_EQ(serial_backend.StagingBytes(), 0u) << "the serial path stages";
    EXPECT_EQ(serial_store.PendingCount(), 0u);
    EXPECT_EQ(staged_store.PendingCount(), 0u);
    ExpectSuperstepEqual(serial_values, serial_frontier, serial_applied,
                         staged_values, staged_frontier, staged_applied);
    if (testing::Test::HasFatalFailure()) return;
  }
}

TEST(SerialExpandTest, DirectDepositMatchesStagedPath) {
  const std::vector<graph::CsrGraph> graphs = DataDrivenGraphs();
  for (size_t gi = 0; gi < graphs.size(); ++gi) {
    for (const int devices : {1, 3, 8}) {
      const graph::Partition part = MakePartition(graphs[gi], devices);
      for (const int threads : {2, 3, 4}) {
        for (const bool hub : {true, false}) {
          EngineOptions opt = TestEngineOptions();
          opt.num_host_threads = threads;
          opt.enable_hub_cache = hub;
          const GraphContext ctx(&graphs[gi], part, Topo(devices), opt);
          for (const bool fsteal : {true, false}) {
            SCOPED_TRACE(testing::Message()
                         << "graph " << gi << " devices=" << devices
                         << " threads=" << threads << " hub=" << hub
                         << " fsteal=" << fsteal);
            ExpectSerialMatchesStaged(ctx, fsteal, hub);
            if (HasFatalFailure()) return;
          }
        }
      }
    }
  }
}

// --- the pull gather (dense frontiers under --expand=spmv|auto) ---

// A test-local copy of the pull as it ran before it applied in place:
// OnFrontier once per frontier vertex, a frontier membership bitmap, then
// each destination's chain over its in-edges from frontier sources in
// PullEdges order, put into `store` once per destination that received a
// message. (A Deposit into an empty slot is what MessageStore::Put did.)
// ReferencePush::Apply then drains the store, as the engine's apply phase
// did.
template <typename App>
void PutReferencePull(const graph::CsrGraph& g, const PullEdges& pull,
                      App& app, std::vector<typename App::Value>& values,
                      const FrontierSoA& frontier,
                      MessageStore<typename App::Message>& store) {
  using Message = typename App::Message;
  std::vector<Message> payloads(g.num_vertices());
  Bitmap in_frontier(g.num_vertices());
  for (const VertexId u : frontier.Flat()) {
    payloads[u] = app.OnFrontier(u, values[u], g.OutDegree(u));
    in_frontier.Set(u);
  }
  const auto combine = [&app](const Message& a, const Message& b) {
    return app.Combine(a, b);
  };
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    std::optional<Message> acc;
    for (graph::EdgeId e = pull.offsets[v]; e < pull.offsets[v + 1]; ++e) {
      const VertexId u = pull.sources[e];
      if (!in_frontier.Test(u)) continue;
      const float weight = pull.weights.empty() ? 1.0f : pull.weights[e];
      const std::optional<Message> msg = app.Scatter(payloads[u], v, weight);
      if (!msg.has_value()) continue;
      acc = acc.has_value() ? app.Combine(*acc, *msg) : *msg;
    }
    if (acc.has_value()) store.Deposit(v, *acc, combine);
  }
}

// Runs three data-driven supersteps from the same state through the
// gather on `pull_pool` (the pull's charge rule over the frontier's
// sources) and through the reference above, and compares the values, the
// next frontier and apply_msgs bit for bit. Each superstep's frontier is
// the previous one's activated destinations. The reference's store is
// also checked against ReferencePush's staged Expand over the identity
// plan, so its chains are the push's. The rotated owner map keeps each
// fragment off its executor, and the pull's charges are checked against a
// count over the frontier's out-edges; the pull sends no message.
void ExpectPullMatchesReference(const GraphContext& ctx,
                                ThreadPool* pull_pool) {
  using App = SuppressingDataDrivenApp;
  const graph::CsrGraph& g = ctx.graph();
  const graph::Partition& part = ctx.partition();
  const int n = part.num_parts;
  App app;
  std::vector<App::Value> pull_values(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    pull_values[v] = app.InitValue(v);
  }
  std::vector<App::Value> ref_values = pull_values;
  std::vector<App::Value> scatter_values = pull_values;
  FrontierScatterBackend<App> pull_backend;
  ReferencePush<App> reference;
  MessageStore<double> ref_store(g.num_vertices());
  MessageStore<double> scatter_store(g.num_vertices());
  FrontierSoA pull_frontier;
  pull_frontier.BuildByOwner(
      g.num_vertices(), part.owner, n,
      [&](VertexId v) { return app.IsInitiallyActive(v); });
  FrontierSoA ref_frontier = pull_frontier;
  const std::vector<std::vector<double>> zero(n, std::vector<double>(n, 0.0));
  FrontierCensus census;
  for (int step = 0; step < 3; ++step) {
    SCOPED_TRACE(testing::Message() << "superstep " << step);
    census.Take(g, ctx.hub_cache(), ref_frontier);
    const TestPlan plan = RotatedPlan(n, census.loads, /*fsteal=*/false);
    uint64_t edges_processed = 0;
    const std::vector<std::vector<double>> edges =
        PullCharges(g, part, plan.owner, ref_frontier, &edges_processed);

    ExpandCounters scattered;
    reference.Expand(ctx.pool(), g, part, nullptr, plan.owner, plan.active,
                     plan.fs, census, app, scatter_values, ref_frontier,
                     ctx.shard_map(), scatter_store, &scattered);
    PutReferencePull(g, ctx.pull_edges(), app, ref_values, ref_frontier,
                     ref_store);
    ASSERT_EQ(ref_store.PendingCount(), scatter_store.PendingCount());
    ASSERT_GT(ref_store.PendingCount(), 0u);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(ref_store.Has(v), scatter_store.Has(v)) << "v=" << v;
      if (ref_store.Has(v)) {
        ASSERT_EQ(std::bit_cast<uint64_t>(ref_store.Get(v)),
                  std::bit_cast<uint64_t>(scatter_store.Get(v)))
            << "v=" << v;
      }
      ExpectValueBitsEqual(ref_values[v], scatter_values[v], v);
      if (testing::Test::HasFatalFailure()) return;
    }
    scatter_store.EndSuperstep();
    std::vector<double> ref_applied;
    reference.Apply(ctx.pool(), ctx.shard_map(), part, app, ref_store,
                    ref_values, &ref_frontier, &ref_applied);
    scatter_values = ref_values;

    ExpandCounters pulled;
    std::vector<double> pull_applied;
    pull_backend.Gather(pull_pool, g, part, nullptr, plan.owner, plan.active,
                        plan.fs, census, ctx.pull_edges(),
                        GatherCharge::kRemoteGathers, GatherSources::kFrontier,
                        app, pull_values, &pull_frontier, &pull_applied,
                        &pulled);
    ExpectBitsEqual(pulled.edges_done, edges, "edges_done");
    ExpectBitsEqual(pulled.raw_msgs, zero, "raw_msgs");
    ExpectBitsEqual(pulled.agg_msgs, zero, "agg_msgs");
    EXPECT_EQ(pulled.edges_processed, edges_processed);
    ExpectSuperstepEqual(pull_values, pull_frontier, pull_applied, ref_values,
                         ref_frontier, ref_applied);
    if (testing::Test::HasFatalFailure()) return;
  }
}

TEST(PullExpandTest, ValuesFrontierAndChargesMatchReference) {
  const std::vector<graph::CsrGraph> graphs = StationaryGraphs();
  for (size_t gi = 0; gi < graphs.size(); ++gi) {
    for (const int devices : {1, 3, 8}) {
      const graph::Partition part = MakePartition(graphs[gi], devices);
      for (const int threads : {1, 2, 3, 4, 8}) {
        EngineOptions opt = TestEngineOptions();
        opt.num_host_threads = threads;
        const GraphContext ctx(&graphs[gi], part, Topo(devices), opt);
        ThreadPool* const pools[] = {ctx.pool(), nullptr};
        for (ThreadPool* pool : pools) {
          SCOPED_TRACE(testing::Message()
                       << "graph " << gi << " devices=" << devices
                       << " threads=" << threads
                       << " pool=" << (pool != nullptr));
          ExpectPullMatchesReference(ctx, pool);
          if (HasFatalFailure()) return;
        }
      }
    }
  }
}

// The gather's destination blocks tile [0, V) in order, cut on 64-vertex
// boundaries at equal shares of in-edges plus destinations. On the
// unpermuted Social recipe (RMAT a/b/c = .62/.19/.12, bench/datasets.cc),
// where in-edges pile up on low ids, a block exceeds its share by at most
// the heaviest 64-vertex word, which equal-width halves do not come near.
TEST(GatherBlocksTest, TileWordAlignedAndBalanceSocialRmat) {
  graph::RmatOptions social;
  social.scale = 13;
  social.edge_factor = 16;
  social.a = 0.62;
  social.b = 0.19;
  social.c = 0.12;
  social.permute_vertices = false;
  social.weighted = true;
  social.seed = 101;
  const graph::CsrGraph g =
      std::move(graph::CsrGraph::FromEdgeList(graph::Rmat(social))).value();
  const graph::Partition part = MakePartition(g, 8);
  PullEdges pull;
  pull.Build(g, part);
  const size_t num_v = g.num_vertices();
  const auto cost_before = [&](size_t x) { return pull.offsets[x] + x; };
  const uint64_t total = cost_before(num_v);
  uint64_t heaviest_word = 0;
  for (size_t x = 0; x < num_v; x += 64) {
    const uint64_t word = cost_before(std::min(x + 64, num_v)) - cost_before(x);
    heaviest_word = std::max(heaviest_word, word);
  }
  // Equal-width halves, as the ShardMap cuts two shards.
  const size_t half = (num_v / 2 + 63) / 64 * 64;
  const uint64_t equal_width_max =
      std::max(cost_before(half), total - cost_before(half));
  EXPECT_GT(static_cast<double>(equal_width_max), 0.6 * total);
  for (const size_t num_blocks : {1, 2, 3, 8, 16, 24, 64}) {
    SCOPED_TRACE(testing::Message() << num_blocks << " blocks");
    std::vector<size_t> bounds;
    CutGatherBlocks(pull.offsets, num_blocks, &bounds);
    ASSERT_EQ(bounds.size(), num_blocks + 1);
    EXPECT_EQ(bounds.front(), 0u);
    EXPECT_EQ(bounds.back(), num_v);
    uint64_t largest = 0;
    for (size_t b = 0; b < num_blocks; ++b) {
      ASSERT_LE(bounds[b], bounds[b + 1]);
      EXPECT_EQ(bounds[b] % 64, 0u) << "block " << b;
      const uint64_t cost = cost_before(bounds[b + 1]) - cost_before(bounds[b]);
      EXPECT_LE(cost, total / num_blocks + heaviest_word) << "block " << b;
      largest = std::max(largest, cost);
    }
    if (num_blocks == 2) {
      EXPECT_LT(largest, equal_width_max);
    }
  }
  // Fewer destinations than blocks: the tail blocks are empty.
  PullEdges tiny;
  tiny.offsets = {0, 2, 3, 3};
  std::vector<size_t> bounds;
  CutGatherBlocks(tiny.offsets, 4, &bounds);
  EXPECT_EQ(bounds, (std::vector<size_t>{0, 3, 3, 3, 3}));
}

// A fixed-round app on a graph with no edges has a census load of 0, so
// --expand=spmv pushes: the only stationary superstep that does. Every
// vertex must still be applied, with InitialAccumulator(), as under
// scatter and in algos/reference.
TEST(ExpandBackendTest, EdgelessPageRankAppliesEveryVertexUnderSpmvPush) {
  graph::EdgeList edgeless;
  edgeless.num_vertices = 300;
  const graph::CsrGraph g =
      std::move(graph::CsrGraph::FromEdgeList(edgeless)).value();
  ASSERT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(SelectExpandMode(ExpandBackendKind::kSpmv, 0.0, 0.0),
            ExpandMode::kSpmvPush);
  const graph::Partition part = MakePartition(g, 4);
  PageRankApp app;
  app.num_vertices = g.num_vertices();
  app.rounds = 3;
  const std::vector<double> want =
      algos::ref::PageRank(g, app.damping, app.rounds);
  const auto scatter =
      RunValues(g, part, app, ExpandBackendKind::kScatter, 1);
  ASSERT_EQ(scatter.size(), want.size());
  for (size_t v = 0; v < want.size(); ++v) {
    EXPECT_DOUBLE_EQ(scatter[v], want[v]) << "v=" << v;
  }
  for (const int threads : {1, 3}) {
    RunResult result;
    const auto values = RunValues(g, part, app, ExpandBackendKind::kSpmv,
                                  threads, &result);
    EXPECT_EQ(values, scatter) << "threads=" << threads;
    EXPECT_EQ(result.iterations, app.rounds);
  }
}

// The context's stationary census must equal the census loop over
// part_vertices (the engine's pre-cache Step 1) bit for bit, hub-heavy
// graphs included.
TEST(GraphContextTest, StationaryCensusMatchesLoopCensus) {
  std::vector<graph::CsrGraph> graphs = StationaryGraphs();
  graph::EdgeList star;  // every vertex points at vertex 0 and back
  star.num_vertices = 300;
  for (VertexId v = 1; v < star.num_vertices; ++v) {
    star.edges.push_back({v, 0, 1.0f});
    star.edges.push_back({0, v, 1.0f});
  }
  graphs.push_back(std::move(graph::CsrGraph::FromEdgeList(star)).value());
  for (size_t gi = 0; gi < graphs.size(); ++gi) {
    const graph::CsrGraph& g = graphs[gi];
    for (const int devices : {1, 3, 8}) {
      for (const uint32_t t4 : {2u, 32u}) {
        SCOPED_TRACE(testing::Message() << "graph " << gi << " devices="
                                        << devices << " t4=" << t4);
        EngineOptions opt = TestEngineOptions();
        opt.t4_hub_in_degree = t4;
        const graph::Partition part = MakePartition(g, devices);
        const GraphContext ctx(&g, part, Topo(devices), opt);
        if (t4 == 2) {
          ASSERT_GT(ctx.hub_cache().num_hubs(), 0u);
        }
        const FrontierCensus& census = ctx.stationary_census();
        EXPECT_EQ(&census, &ctx.stationary_census()) << "taken once";
        ASSERT_EQ(census.loads.size(), static_cast<size_t>(devices));
        double total_load = 0.0;
        size_t total_frontier = 0;
        for (int i = 0; i < devices; ++i) {
          double load = 0.0;
          double hub_load = 0.0;
          std::vector<graph::EdgeId> prefix;
          for (const VertexId v : part.part_vertices[i]) {
            load += g.OutDegree(v);
            if (ctx.hub_cache().IsHub(v)) hub_load += g.OutDegree(v);
            prefix.push_back((prefix.empty() ? 0 : prefix.back()) +
                             g.OutDegree(v));
          }
          EXPECT_EQ(census.degree_prefix[i], prefix) << "fragment " << i;
          total_load += load;
          total_frontier += part.part_vertices[i].size();
          const double discount = load > 0 ? 1.0 - hub_load / load : 1.0;
          EXPECT_EQ(std::bit_cast<uint64_t>(census.loads[i]),
                    std::bit_cast<uint64_t>(load));
          EXPECT_EQ(std::bit_cast<uint64_t>(census.remote_discount[i]),
                    std::bit_cast<uint64_t>(discount));
          const auto want =
              graph::ExtractFrontierFeatures(g, part.part_vertices[i])
                  .ToArray();
          const auto got = census.features[i].ToArray();
          for (size_t k = 0; k < want.size(); ++k) {
            EXPECT_EQ(std::bit_cast<uint64_t>(got[k]),
                      std::bit_cast<uint64_t>(want[k]))
                << "fragment " << i << " feature " << k;
          }
        }
        EXPECT_EQ(std::bit_cast<uint64_t>(census.total_load),
                  std::bit_cast<uint64_t>(total_load));
        EXPECT_EQ(census.total_frontier, total_frontier);
      }
    }
  }
}

// --- mode selection (the auto heuristic) ---

TEST(ExpandBackendTest, SelectExpandModeThresholds) {
  // kPullDensityThreshold = 0.05. Scatter kind never switches.
  EXPECT_EQ(SelectExpandMode(ExpandBackendKind::kScatter, 1e9, 1e9),
            ExpandMode::kScatter);
  // Spmv kind: dense -> pull, sparse -> push.
  EXPECT_EQ(SelectExpandMode(ExpandBackendKind::kSpmv, 50.0, 1000.0),
            ExpandMode::kSpmvPull);
  EXPECT_EQ(SelectExpandMode(ExpandBackendKind::kSpmv, 49.0, 1000.0),
            ExpandMode::kSpmvPush);
  // Auto: dense -> pull, sparse -> scatter (keeps frontier stealing).
  EXPECT_EQ(SelectExpandMode(ExpandBackendKind::kAuto, 50.0, 1000.0),
            ExpandMode::kSpmvPull);
  EXPECT_EQ(SelectExpandMode(ExpandBackendKind::kAuto, 49.0, 1000.0),
            ExpandMode::kScatter);
}

TEST(ExpandBackendTest, AutoSwitchPointIsDeterministicAcrossThreads) {
  // The heuristic's inputs (census loads, total edges) are thread-
  // independent, so auto runs pick the same mode sequence — observable as
  // identical iteration counts, simulated time, and values.
  const auto g = SocialGraph();
  const auto part = MakePartition(g, 4);
  BfsApp app;
  app.source = MaxDegreeSource(g);
  RunResult reference_result;
  const auto reference = RunValues(g, part, app, ExpandBackendKind::kAuto, 1,
                                   &reference_result);
  for (const int threads : {2, 4, 8}) {
    RunResult result;
    const auto values = RunValues(g, part, app, ExpandBackendKind::kAuto,
                                  threads, &result);
    EXPECT_EQ(values, reference) << "threads=" << threads;
    EXPECT_EQ(result.iterations, reference_result.iterations);
    EXPECT_DOUBLE_EQ(result.total_ms, reference_result.total_ms);
    EXPECT_EQ(result.edges_processed, reference_result.edges_processed);
    EXPECT_EQ(result.messages_sent, reference_result.messages_sent);
  }
}

TEST(ExpandBackendTest, ParseExpandBackendKind) {
  ExpandBackendKind kind = ExpandBackendKind::kAuto;
  EXPECT_TRUE(ParseExpandBackendKind("scatter", &kind));
  EXPECT_EQ(kind, ExpandBackendKind::kScatter);
  EXPECT_TRUE(ParseExpandBackendKind("spmv", &kind));
  EXPECT_EQ(kind, ExpandBackendKind::kSpmv);
  EXPECT_TRUE(ParseExpandBackendKind("auto", &kind));
  EXPECT_EQ(kind, ExpandBackendKind::kAuto);
  EXPECT_FALSE(ParseExpandBackendKind("pull", &kind));
  EXPECT_EQ(kind, ExpandBackendKind::kAuto);  // untouched on failure
}

// --- SoA frontier storage ---

TEST(ExpandBackendTest, FrontierSoARoundTripsOldLayout) {
  const std::vector<std::vector<VertexId>> old_layout = {
      {0, 3, 7}, {}, {1, 2, 9}, {5}};
  FrontierSoA soa;
  soa.Assign(old_layout);
  EXPECT_EQ(soa.num_fragments(), 4);
  EXPECT_EQ(soa.TotalSize(), 7u);
  EXPECT_EQ(soa.FragmentSize(0), 3u);
  EXPECT_EQ(soa.FragmentSize(1), 0u);
  ASSERT_EQ(soa.Fragment(2).size(), 3u);
  EXPECT_EQ(soa.Fragment(2)[1], 2u);
  EXPECT_EQ(soa.ToVectors(), old_layout);
  // Flat() is the fragment-major concatenation.
  const std::vector<VertexId> flat(soa.Flat().begin(), soa.Flat().end());
  EXPECT_EQ(flat, (std::vector<VertexId>{0, 3, 7, 1, 2, 9, 5}));
}

TEST(ExpandBackendTest, FrontierSoAResetKeepsCapacityDropsContents) {
  FrontierSoA soa;
  soa.Assign({{1, 2, 3}, {4, 5}});
  soa.Reset(3);
  EXPECT_EQ(soa.num_fragments(), 3);
  EXPECT_EQ(soa.TotalSize(), 0u);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(soa.FragmentSize(i), 0u);
}

TEST(ExpandBackendTest, FrontierSoABuildByOwnerMatchesPredicate) {
  const auto g = SocialGraph(8);
  const auto part = MakePartition(g, 4);
  FrontierSoA soa;
  soa.BuildByOwner(g.num_vertices(), part.owner, 4,
                   [](VertexId v) { return v % 3 == 0; });
  std::vector<std::vector<VertexId>> expected(4);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (v % 3 == 0) expected[part.owner[v]].push_back(v);
  }
  EXPECT_EQ(soa.ToVectors(), expected);  // ascending per fragment
}

TEST(ExpandBackendTest, FrontierSoAAssignFromShardSegments) {
  // segments[shard][fragment]; shards are ascending vertex ranges, so
  // concatenating a fragment's segments in shard order stays ascending.
  const std::vector<std::vector<std::vector<VertexId>>> segments = {
      {{0, 2}, {1}},
      {{4}, {5, 7}},
      {{}, {9}},
  };
  FrontierSoA soa;
  soa.AssignFromShardSegments(segments, 3, 2);
  EXPECT_EQ(soa.ToVectors(), (std::vector<std::vector<VertexId>>{
                                 {0, 2, 4}, {1, 5, 7, 9}}));
}

}  // namespace
}  // namespace gum::core
