// Bit-parallel multi-source batching for BFS and SSSP (DESIGN.md §13).
//
// MS-BFS-style batched traversal: up to 64 sources run in one superstep
// wave, one bit lane per source, using a 64-bit word as the per-vertex
// source mask (the same word width as common/bitmap.h, so a batch never
// splits across shard boundaries — shard widths are multiples of 64).
// One batched run expands the *union* of the per-source frontiers, so
// shared structure (the social-graph core every search crosses) is paid
// once per wave instead of once per query.
//
// Determinism contract (tests/multi_source_test.cc): for every lane l,
// ExtractBfsLane/ExtractSsspLane of the batched result is byte-identical
// to a sequential BfsApp/SsspApp run from sources[l] — for every host
// thread count and expand backend.
//
//  * BFS: batched BFS is depth-lockstep — every message emitted in
//    iteration i carries depth i+1 (induction: sources start at depth 0;
//    OnFrontier at iteration i broadcasts only lanes freshly visited at
//    iteration i-1, all of which recorded depth i). The per-message depth
//    field is therefore uniform within an iteration and the mask-OR /
//    depth-min combiner is exact: a lane's recorded depth is the first
//    iteration any lane-l message arrived, which is the single-source
//    BFS depth.
//  * SSSP: messages carry one float per lane with kUnreached (the min
//    identity) in non-member lanes, so Combine is a branchless per-lane
//    min + mask OR. Lane l's frontier membership, message multiset, and
//    relaxation sequence match the single-source run iteration for
//    iteration; float min over identical operands is order-independent
//    bit for bit, so every lane distance lands byte-identical.
//
// Both combiners are commutative and associative, so scatter and gather
// agree bit for bit (see algos/apps.h).

#ifndef GUM_ALGOS_MULTI_SOURCE_H_
#define GUM_ALGOS_MULTI_SOURCE_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "graph/types.h"

namespace gum::algos {

// Widest batch one wave can carry: one bit lane per source.
inline constexpr int kMaxBatchLanes = 64;

namespace detail {

// Sorted (vertex, lane-mask) pairs; duplicate sources fold into one mask.
inline std::vector<std::pair<graph::VertexId, uint64_t>> BuildSourceMasks(
    const std::vector<graph::VertexId>& sources) {
  GUM_CHECK(!sources.empty() &&
            sources.size() <= static_cast<size_t>(kMaxBatchLanes))
      << "batch must carry 1.." << kMaxBatchLanes << " sources, got "
      << sources.size();
  std::vector<std::pair<graph::VertexId, uint64_t>> masks;
  masks.reserve(sources.size());
  for (size_t lane = 0; lane < sources.size(); ++lane) {
    masks.emplace_back(sources[lane], uint64_t{1} << lane);
  }
  std::sort(masks.begin(), masks.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  size_t out = 0;
  for (size_t i = 0; i < masks.size(); ++i) {
    if (out > 0 && masks[out - 1].first == masks[i].first) {
      masks[out - 1].second |= masks[i].second;
    } else {
      masks[out++] = masks[i];
    }
  }
  masks.resize(out);
  return masks;
}

inline uint64_t LookupSourceMask(
    const std::vector<std::pair<graph::VertexId, uint64_t>>& masks,
    graph::VertexId v) {
  const auto it = std::lower_bound(
      masks.begin(), masks.end(), v,
      [](const auto& p, graph::VertexId x) { return p.first < x; });
  return it != masks.end() && it->first == v ? it->second : 0;
}

}  // namespace detail

// Batched BFS: depth per (vertex, lane), mask-OR message combining.
struct MultiSourceBfsApp {
  static constexpr uint32_t kUnreached = std::numeric_limits<uint32_t>::max();

  struct State {
    std::array<uint32_t, kMaxBatchLanes> depth;
    uint64_t visited = 0;  // lanes that have reached this vertex
    uint64_t front = 0;    // lanes freshly visited last iteration
    uint32_t front_depth = 0;
  };
  struct Msg {
    uint64_t mask = 0;
    uint32_t depth = 0;  // uniform across lanes (lockstep invariant)
  };
  using Value = State;
  using Message = Msg;

  explicit MultiSourceBfsApp(std::vector<graph::VertexId> sources)
      : num_lanes(static_cast<int>(sources.size())),
        source_masks(detail::BuildSourceMasks(sources)) {}

  int num_lanes;
  std::vector<std::pair<graph::VertexId, uint64_t>> source_masks;

  std::string name() const { return "msbfs"; }
  int fixed_rounds() const { return -1; }
  Value InitValue(graph::VertexId v) const {
    Value val;
    val.depth.fill(kUnreached);
    const uint64_t mask = detail::LookupSourceMask(source_masks, v);
    for (uint64_t m = mask; m != 0; m &= m - 1) {
      val.depth[std::countr_zero(m)] = 0;
    }
    val.visited = mask;
    val.front = mask;
    val.front_depth = 0;
    return val;
  }
  bool IsInitiallyActive(graph::VertexId v) const {
    return detail::LookupSourceMask(source_masks, v) != 0;
  }
  Message InitialAccumulator() const { return Msg{0, kUnreached}; }
  // Broadcast the freshly-visited lanes; `front` is always consumed here
  // before Apply can set it again, so plain assignment below is safe.
  Message OnFrontier(graph::VertexId, Value& val, uint32_t) {
    const Msg m{val.front, val.front_depth};
    val.front = 0;
    return m;
  }
  std::optional<Message> Scatter(const Message& payload, graph::VertexId,
                                 float) const {
    return Msg{payload.mask, payload.depth + 1};
  }
  Message Combine(const Message& a, const Message& b) const {
    return Msg{a.mask | b.mask, std::min(a.depth, b.depth)};
  }
  bool Apply(graph::VertexId, Value& val, const Message& msg) const {
    const uint64_t fresh = msg.mask & ~val.visited;
    if (fresh == 0) return false;
    val.visited |= fresh;
    val.front = fresh;
    val.front_depth = msg.depth;
    for (uint64_t m = fresh; m != 0; m &= m - 1) {
      val.depth[std::countr_zero(m)] = msg.depth;
    }
    return true;
  }
};

// Batched SSSP: one float distance per lane, per-lane min combining with
// kUnreached as the identity in non-member lanes.
struct MultiSourceSsspApp {
  static constexpr float kUnreached = std::numeric_limits<float>::max();

  struct State {
    std::array<float, kMaxBatchLanes> dist;
    uint64_t front = 0;  // lanes improved last iteration
  };
  struct Msg {
    std::array<float, kMaxBatchLanes> dist;
    uint64_t mask = 0;  // invariant: dist[l] == kUnreached for l not in mask
  };
  using Value = State;
  using Message = Msg;

  explicit MultiSourceSsspApp(std::vector<graph::VertexId> sources)
      : num_lanes(static_cast<int>(sources.size())),
        source_masks(detail::BuildSourceMasks(sources)) {}

  int num_lanes;
  std::vector<std::pair<graph::VertexId, uint64_t>> source_masks;

  std::string name() const { return "mssssp"; }
  int fixed_rounds() const { return -1; }
  Value InitValue(graph::VertexId v) const {
    Value val;
    val.dist.fill(kUnreached);
    const uint64_t mask = detail::LookupSourceMask(source_masks, v);
    for (uint64_t m = mask; m != 0; m &= m - 1) {
      val.dist[std::countr_zero(m)] = 0.0f;
    }
    val.front = mask;
    return val;
  }
  bool IsInitiallyActive(graph::VertexId v) const {
    return detail::LookupSourceMask(source_masks, v) != 0;
  }
  Message InitialAccumulator() const {
    Msg m;
    m.dist.fill(kUnreached);
    return m;
  }
  Message OnFrontier(graph::VertexId, Value& val, uint32_t) {
    Msg m;
    m.dist.fill(kUnreached);
    m.mask = val.front;
    for (uint64_t b = val.front; b != 0; b &= b - 1) {
      const int l = std::countr_zero(b);
      m.dist[l] = val.dist[l];
    }
    val.front = 0;
    return m;
  }
  std::optional<Message> Scatter(const Message& payload, graph::VertexId,
                                 float weight) const {
    Msg m;
    m.dist.fill(kUnreached);
    m.mask = payload.mask;
    for (uint64_t b = payload.mask; b != 0; b &= b - 1) {
      const int l = std::countr_zero(b);
      m.dist[l] = payload.dist[l] + weight;
    }
    return m;
  }
  // Branchless per-lane min: non-member lanes hold the min identity.
  Message Combine(const Message& a, const Message& b) const {
    Msg c;
    c.mask = a.mask | b.mask;
    for (int l = 0; l < kMaxBatchLanes; ++l) {
      c.dist[l] = std::min(a.dist[l], b.dist[l]);
    }
    return c;
  }
  bool Apply(graph::VertexId, Value& val, const Message& msg) const {
    uint64_t improved = 0;
    for (uint64_t b = msg.mask; b != 0; b &= b - 1) {
      const int l = std::countr_zero(b);
      if (msg.dist[l] < val.dist[l]) {
        val.dist[l] = msg.dist[l];
        improved |= uint64_t{1} << l;
      }
    }
    val.front = improved;
    return improved != 0;
  }
};

// Lane extraction: byte-identical to the single-source apps' value arrays.
inline std::vector<uint32_t> ExtractBfsLane(
    const std::vector<MultiSourceBfsApp::Value>& vals, int lane) {
  std::vector<uint32_t> out(vals.size());
  for (size_t v = 0; v < vals.size(); ++v) out[v] = vals[v].depth[lane];
  return out;
}

inline std::vector<float> ExtractSsspLane(
    const std::vector<MultiSourceSsspApp::Value>& vals, int lane) {
  std::vector<float> out(vals.size());
  for (size_t v = 0; v < vals.size(); ++v) out[v] = vals[v].dist[lane];
  return out;
}

}  // namespace gum::algos

#endif  // GUM_ALGOS_MULTI_SOURCE_H_
