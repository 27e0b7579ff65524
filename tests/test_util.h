// Shared helpers for the engine test suites.

#ifndef GUM_TESTS_TEST_UTIL_H_
#define GUM_TESTS_TEST_UTIL_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine_options.h"
#include "core/run_result.h"
#include "graph/csr.h"
#include "graph/generators.h"
#include "graph/partition.h"
#include "sim/timeline.h"
#include "sim/topology.h"

namespace gum::test {

// Social-network analog, directed, unweighted.
inline graph::CsrGraph SocialGraph(int scale = 10, uint64_t seed = 2,
                                   bool weighted = false) {
  graph::RmatOptions opt;
  opt.scale = scale;
  opt.edge_factor = 8;
  opt.seed = seed;
  opt.weighted = weighted;
  auto g = graph::CsrGraph::FromEdgeList(graph::Rmat(opt));
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

// Symmetrized variant for WCC.
inline graph::CsrGraph SocialGraphSym(int scale = 10, uint64_t seed = 2) {
  graph::RmatOptions opt;
  opt.scale = scale;
  opt.edge_factor = 8;
  opt.seed = seed;
  graph::CsrBuildOptions build;
  build.symmetrize = true;
  auto g = graph::CsrGraph::FromEdgeList(graph::Rmat(opt), build);
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

// Long-diameter weighted road analog.
inline graph::CsrGraph RoadGraph(uint32_t side = 28, uint64_t seed = 3) {
  graph::RoadGridOptions opt;
  opt.rows = side;
  opt.cols = side;
  opt.seed = seed;
  auto g = graph::CsrGraph::FromEdgeList(graph::RoadGrid(opt));
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

inline graph::Partition MakePartition(
    const graph::CsrGraph& g, int parts,
    graph::PartitionerKind kind = graph::PartitionerKind::kRandom,
    uint64_t seed = 1) {
  graph::PartitionOptions opt;
  opt.kind = kind;
  opt.seed = seed;
  auto p = graph::PartitionGraph(g, parts, opt);
  EXPECT_TRUE(p.ok());
  return std::move(p).value();
}

// The highest-out-degree vertex: a well-connected traversal source.
inline graph::VertexId MaxDegreeSource(const graph::CsrGraph& g) {
  graph::VertexId best = 0;
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.OutDegree(v) > g.OutDegree(best)) best = v;
  }
  return best;
}

inline sim::Topology Topo(int n) {
  auto t = sim::Topology::HybridCubeMeshSubset(n);
  EXPECT_TRUE(t.ok());
  return std::move(t).value();
}

// Engine options with thresholds lowered so stealing activates on the small
// graphs used in tests.
inline core::EngineOptions TestEngineOptions() {
  core::EngineOptions opt;
  opt.fsteal.t1_min_max_load = 64;
  opt.fsteal.t2_min_imbalance = 32;
  opt.osteal.t3_trigger_ms = 3.0;
  opt.t4_hub_in_degree = 32;
  return opt;
}

// FNV-1a digests for golden pins: doubles fold in as their bit patterns,
// so a pinned digest moves on any change to a link's traffic or a value.
inline constexpr uint64_t kFnvBasis = 14695981039346656037ull;

inline uint64_t Fnv1a(uint64_t digest, uint64_t word) {
  return (digest ^ word) * 1099511628211ull;
}

inline uint64_t LinkBytesDigest(const core::RunResult& r) {
  uint64_t digest = kFnvBasis;
  for (const auto& lane_row : r.link_bytes) {
    for (const double b : lane_row) {
      digest = Fnv1a(digest, std::bit_cast<uint64_t>(b));
    }
  }
  return digest;
}

// Folds every timeline cell's bits, iteration-major, then device, then
// category.
inline uint64_t TimelineDigest(const core::RunResult& r) {
  uint64_t digest = kFnvBasis;
  for (int it = 0; it < r.timeline.num_iterations(); ++it) {
    for (int d = 0; d < r.timeline.num_devices(); ++d) {
      for (int c = 0; c < sim::kNumTimeCategories; ++c) {
        digest = Fnv1a(digest, std::bit_cast<uint64_t>(r.timeline.Get(
                                   it, d, static_cast<sim::TimeCategory>(c))));
      }
    }
  }
  return digest;
}

// Folds every byte of every value, so struct-valued apps digest too.
template <typename Value>
uint64_t ValuesDigest(const std::vector<Value>& values) {
  uint64_t digest = kFnvBasis;
  for (const Value& v : values) {
    unsigned char bytes[sizeof(Value)];
    std::memcpy(bytes, &v, sizeof(Value));
    for (const unsigned char b : bytes) digest = Fnv1a(digest, b);
  }
  return digest;
}

}  // namespace gum::test

#endif  // GUM_TESTS_TEST_UTIL_H_
