// Multilevel k-way partitioner in the METIS tradition (Karypis & Kumar).
//
// Phases:
//   1. Coarsening: repeated heavy-edge matching; matched pairs merge into a
//      super-vertex whose weight is the sum of member weights (weight =
//      1 + out-degree so that balancing super-vertices balances edges).
//   2. Initial partition: greedy growing — parts claim the heaviest
//      unassigned super-vertex and grow along the strongest adjacency until
//      their weight quota is met.
//   3. Uncoarsening + refinement: project the assignment down one level and
//      run boundary FM-style passes: move a boundary vertex to the adjacent
//      part with the best cut gain whenever balance slack allows.
//
// This is a faithful simplification, not a METIS clone: it minimizes the
// same objective (edge cut under a balance constraint) with the same
// multilevel structure, which is what paper Exp-6 (Fig. 11) needs from its
// "metis" configuration.
//
// Data path: every level is one flat symmetric adjacency, an offsets array
// and one (neighbor, weight) array whose rows ascend by neighbor. The finest
// level merges each vertex's ascending out- and in-lists. Each coarser level
// is the Galerkin product Pᵀ·A·P, formed one coarse row at a time in a dense
// accumulator indexed by coarse id plus a touched list (the
// sparse-accumulator idiom), so no level builds a hash map or a vector per
// vertex.

#include <algorithm>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "graph/partition.h"
#include "obs/trace.h"

namespace gum::graph {

namespace {

// Coarsening stops once a level has at most this many vertices per part
// (and at least 16 vertices in all).
constexpr int kCoarsenTargetPerPart = 8;
// FM passes per level; a level also stops at the first pass that moves
// nothing.
constexpr int kRefinementPasses = 4;

using Arc = std::pair<uint32_t, uint64_t>;  // (neighbor, edge_weight)

// Symmetric weighted adjacency for one coarsening level.
struct Level {
  // Row u is arcs[offsets[u], offsets[u + 1]): u's neighbors in ascending
  // order with their edge weights; symmetric, no self loops.
  std::vector<uint64_t> offsets{0};
  std::vector<Arc> arcs;
  std::vector<uint64_t> vertex_weight;
  // Map from this level's vertex to the coarser level's vertex.
  std::vector<uint32_t> coarse_of;

  uint32_t size() const { return static_cast<uint32_t>(offsets.size() - 1); }
  std::span<const Arc> Row(uint32_t u) const {
    return {arcs.data() + offsets[u], arcs.data() + offsets[u + 1]};
  }
};

// Row u lists u's out- and in-neighbors with their multiplicities summed and
// self loops dropped. Both lists ascend (csr.h's ordering rule), so one
// merge emits the row in order.
Level BuildFinestLevel(const CsrGraph& g) {
  const VertexId n = g.num_vertices();
  Level level;
  level.vertex_weight.resize(n);
  level.offsets.resize(n + 1);
  level.arcs.reserve(2 * g.num_edges());  // every out- and in-edge at most
  for (VertexId u = 0; u < n; ++u) {
    level.vertex_weight[u] = 1 + g.OutDegree(u);
    const std::span<const VertexId> out = g.OutNeighbors(u);
    const std::span<const VertexId> in = g.InNeighbors(u);
    size_t i = 0, j = 0;
    while (i < out.size() || j < in.size()) {
      const VertexId v =
          j == in.size() || (i < out.size() && out[i] <= in[j]) ? out[i]
                                                                 : in[j];
      uint64_t w = 0;
      for (; i < out.size() && out[i] == v; ++i) ++w;
      for (; j < in.size() && in[j] == v; ++j) ++w;
      if (v != u) level.arcs.emplace_back(v, w);
    }
    level.offsets[u + 1] = level.arcs.size();
  }
  return level;
}

// Heavy-edge matching; returns the coarser level. Sets level.coarse_of.
Level Coarsen(Level& level, Rng& rng) {
  const uint32_t n = level.size();
  std::vector<uint32_t> match(n, n);  // n = unmatched
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  for (uint32_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBounded(i)]);
  }
  for (uint32_t u : order) {
    if (match[u] != n) continue;
    uint32_t best = n;
    uint64_t best_weight = 0;
    for (const auto& [v, w] : level.Row(u)) {
      if (match[v] == n && w > best_weight) {
        best = v;
        best_weight = w;
      }
    }
    if (best != n) {
      match[u] = best;
      match[best] = u;
    } else {
      match[u] = u;  // matched with itself
    }
  }

  // The smaller member of each pair (or a solo vertex) represents it;
  // coarse ids follow the representatives in ascending order.
  level.coarse_of.assign(n, 0);
  uint32_t next_id = 0;
  for (uint32_t u = 0; u < n; ++u) {
    if (match[u] >= u) {
      level.coarse_of[u] = next_id;
      level.coarse_of[match[u]] = next_id;
      ++next_id;
    }
  }

  // Coarse row cu sums its members' rows mapped through coarse_of. The
  // accumulator is indexed by coarse id; acc[cv] == 0 marks cv untouched,
  // since every weight is at least 1. The arcs inside the pair land on cu
  // itself and are dropped when the row is emitted.
  Level coarse;
  coarse.vertex_weight.resize(next_id);
  coarse.offsets.resize(next_id + 1);
  coarse.arcs.reserve(level.arcs.size());
  std::vector<uint64_t> acc(next_id, 0);
  // One spare slot: an arc to a cv already touched writes past the last
  // kept id.
  std::vector<uint32_t> touched(next_id + 1);
  size_t num_touched = 0;
  const auto gather = [&](uint32_t u) {
    for (const auto& [v, w] : level.Row(u)) {
      const uint32_t cv = level.coarse_of[v];
      touched[num_touched] = cv;
      num_touched += acc[cv] == 0;  // a first touch keeps its slot
      acc[cv] += w;
    }
  };
  for (uint32_t u = 0; u < n; ++u) {
    const uint32_t partner = match[u];
    if (partner < u) continue;  // gathered with its representative
    const uint32_t cu = level.coarse_of[u];
    coarse.vertex_weight[cu] = level.vertex_weight[u];
    gather(u);
    if (partner != u) {
      coarse.vertex_weight[cu] += level.vertex_weight[partner];
      gather(partner);
    }
    std::sort(touched.begin(), touched.begin() + num_touched);
    for (size_t i = 0; i < num_touched; ++i) {
      const uint32_t cv = touched[i];
      if (cv != cu) coarse.arcs.emplace_back(cv, acc[cv]);
      acc[cv] = 0;
    }
    num_touched = 0;
    coarse.offsets[cu + 1] = coarse.arcs.size();
  }
  return coarse;
}

// Greedy growing initial partition on the coarsest level.
std::vector<uint32_t> InitialPartition(const Level& level, int num_parts) {
  const uint32_t n = level.size();
  const uint64_t total_weight =
      std::accumulate(level.vertex_weight.begin(), level.vertex_weight.end(),
                      uint64_t{0});
  const double quota =
      kMetisBalanceSlack * static_cast<double>(total_weight) / num_parts;

  std::vector<uint32_t> part(n, static_cast<uint32_t>(num_parts));
  std::vector<uint64_t> part_weight(num_parts, 0);

  // Seed order: heaviest vertices first (hubs anchor parts).
  std::vector<uint32_t> by_weight(n);
  std::iota(by_weight.begin(), by_weight.end(), 0);
  std::sort(by_weight.begin(), by_weight.end(), [&](uint32_t a, uint32_t b) {
    return level.vertex_weight[a] > level.vertex_weight[b];
  });

  uint32_t seed_cursor = 0;
  std::vector<Arc> nbrs;
  for (int p = 0; p < num_parts; ++p) {
    // Grow part p from the next unassigned seed.
    while (seed_cursor < n && part[by_weight[seed_cursor]] !=
                                  static_cast<uint32_t>(num_parts)) {
      ++seed_cursor;
    }
    if (seed_cursor >= n) break;
    std::vector<uint32_t> frontier{by_weight[seed_cursor]};
    part[by_weight[seed_cursor]] = static_cast<uint32_t>(p);
    part_weight[p] += level.vertex_weight[by_weight[seed_cursor]];
    while (!frontier.empty() &&
           static_cast<double>(part_weight[p]) < quota) {
      const uint32_t u = frontier.back();
      frontier.pop_back();
      // Strongest-first expansion.
      const std::span<const Arc> row = level.Row(u);
      nbrs.assign(row.begin(), row.end());
      std::sort(nbrs.begin(), nbrs.end(),
                [](const auto& a, const auto& b) {
                  return a.second > b.second;
                });
      for (const auto& [v, w] : nbrs) {
        (void)w;
        if (part[v] != static_cast<uint32_t>(num_parts)) continue;
        if (static_cast<double>(part_weight[p] + level.vertex_weight[v]) >
            quota) {
          continue;
        }
        part[v] = static_cast<uint32_t>(p);
        part_weight[p] += level.vertex_weight[v];
        frontier.push_back(v);
      }
    }
  }
  // Any leftovers go to the lightest part.
  for (uint32_t u = 0; u < n; ++u) {
    if (part[u] == static_cast<uint32_t>(num_parts)) {
      const int lightest = static_cast<int>(
          std::min_element(part_weight.begin(), part_weight.end()) -
          part_weight.begin());
      part[u] = static_cast<uint32_t>(lightest);
      part_weight[lightest] += level.vertex_weight[u];
    }
  }
  return part;
}

// Boundary FM-style refinement on one level; mutates `part` in place.
void Refine(const Level& level, std::vector<uint32_t>& part, int num_parts) {
  const uint32_t n = level.size();
  std::vector<uint64_t> part_weight(num_parts, 0);
  for (uint32_t u = 0; u < n; ++u) {
    part_weight[part[u]] += level.vertex_weight[u];
  }
  const uint64_t total_weight =
      std::accumulate(part_weight.begin(), part_weight.end(), uint64_t{0});
  const double quota =
      kMetisBalanceSlack * static_cast<double>(total_weight) / num_parts;

  std::vector<uint64_t> gain(num_parts);
  for (int pass = 0; pass < kRefinementPasses; ++pass) {
    bool moved = false;
    for (uint32_t u = 0; u < n; ++u) {
      const std::span<const Arc> row = level.Row(u);
      const uint32_t from = part[u];
      // With every neighbor in u's own part (or none at all), no other part
      // gains u.
      if (std::all_of(row.begin(), row.end(),
                      [&](const Arc& a) { return part[a.first] == from; })) {
        continue;
      }
      std::fill(gain.begin(), gain.end(), 0);
      for (const auto& [v, w] : row) gain[part[v]] += w;
      uint32_t best = from;
      for (int p = 0; p < num_parts; ++p) {
        if (p == static_cast<int>(from)) continue;
        if (gain[p] > gain[best] &&
            static_cast<double>(part_weight[p] + level.vertex_weight[u]) <=
                quota) {
          best = static_cast<uint32_t>(p);
        }
      }
      if (best != from && gain[best] > gain[from]) {
        part[u] = best;
        part_weight[from] -= level.vertex_weight[u];
        part_weight[best] += level.vertex_weight[u];
        moved = true;
      }
    }
    if (!moved) break;
  }
}

}  // namespace

std::vector<uint32_t> MetisLikeAssign(const CsrGraph& g, int num_parts,
                                      const PartitionOptions& options) {
  Rng rng(options.seed);
  std::vector<Level> levels;
  {
    GUM_TRACE_SCOPE("partition.coarsen");
    levels.push_back(BuildFinestLevel(g));
    const uint32_t target = static_cast<uint32_t>(
        std::max(16, kCoarsenTargetPerPart * num_parts));
    while (levels.back().size() > target && levels.size() < 40) {
      Level coarse = Coarsen(levels.back(), rng);
      if (coarse.size() >= levels.back().size() * 95 / 100) {
        break;  // matching stalled (e.g. star graph)
      }
      levels.push_back(std::move(coarse));
    }
  }

  GUM_TRACE_SCOPE("partition.refine");
  std::vector<uint32_t> part = InitialPartition(levels.back(), num_parts);
  Refine(levels.back(), part, num_parts);

  // Project back down through the levels, refining at each.
  for (size_t li = levels.size(); li-- > 1;) {
    const Level& fine = levels[li - 1];
    std::vector<uint32_t> fine_part(fine.size());
    for (uint32_t u = 0; u < fine.size(); ++u) {
      fine_part[u] = part[fine.coarse_of[u]];
    }
    part = std::move(fine_part);
    Refine(fine, part, num_parts);
  }
  GUM_CHECK(part.size() == g.num_vertices());
  return part;
}

}  // namespace gum::graph
