#include "graph/generators.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"
#include "common/random.h"

namespace gum::graph {

namespace {

// RoadGrid keeps each lattice edge off the spanning comb with this
// probability; the few it drops make detours.
constexpr double kRoadKeepProb = 0.97;

float RandomWeight(Rng& rng, uint32_t bound) {
  return static_cast<float>(1 + rng.NextBounded(bound - 1));
}

}  // namespace

EdgeList Rmat(const RmatOptions& options) {
  GUM_CHECK(options.scale >= 1 && options.scale <= 30)
      << "scale out of range: " << options.scale;
  const VertexId n = VertexId{1} << options.scale;
  const EdgeId m = static_cast<EdgeId>(options.edge_factor * n);
  const double d = 1.0 - options.a - options.b - options.c;
  GUM_CHECK(d >= 0.0) << "RMAT probabilities exceed 1";

  Rng rng(options.seed);
  EdgeList list;
  list.num_vertices = n;
  list.edges.reserve(m);

  for (EdgeId e = 0; e < m; ++e) {
    VertexId src = 0, dst = 0;
    for (int bit = options.scale - 1; bit >= 0; --bit) {
      // Slightly jitter the quadrant probabilities per level (standard
      // "noise" trick that avoids exactly self-similar artifacts).
      const double ab = options.a + options.b;
      const double abc = ab + options.c;
      const double r = rng.NextDouble();
      if (r < options.a) {
        // top-left: nothing set
      } else if (r < ab) {
        dst |= VertexId{1} << bit;
      } else if (r < abc) {
        src |= VertexId{1} << bit;
      } else {
        src |= VertexId{1} << bit;
        dst |= VertexId{1} << bit;
      }
    }
    Edge edge{src, dst, 1.0f};
    if (options.weighted) edge.weight = RandomWeight(rng, 64);
    list.edges.push_back(edge);
  }

  if (options.permute_vertices) {
    std::vector<VertexId> perm(n);
    std::iota(perm.begin(), perm.end(), 0);
    for (VertexId i = n - 1; i > 0; --i) {
      const VertexId j = static_cast<VertexId>(rng.NextBounded(i + 1));
      std::swap(perm[i], perm[j]);
    }
    for (Edge& e : list.edges) {
      e.src = perm[e.src];
      e.dst = perm[e.dst];
    }
  }
  return list;
}

EdgeList RoadGrid(const RoadGridOptions& options) {
  const uint64_t n64 =
      static_cast<uint64_t>(options.rows) * options.cols;
  GUM_CHECK(n64 > 0 && n64 < (uint64_t{1} << 31)) << "grid too large";
  const VertexId n = static_cast<VertexId>(n64);

  Rng rng(options.seed);
  EdgeList list;
  list.num_vertices = n;
  list.edges.reserve(static_cast<size_t>(4.2 * n));

  auto id = [&](uint32_t r, uint32_t c) -> VertexId {
    return static_cast<VertexId>(r * options.cols + c);
  };
  auto add_bidi = [&](VertexId u, VertexId v) {
    const float w =
        options.weighted ? RandomWeight(rng, 16) : 1.0f;
    list.edges.push_back(Edge{u, v, w});
    list.edges.push_back(Edge{v, u, w});
  };

  for (uint32_t r = 0; r < options.rows; ++r) {
    for (uint32_t c = 0; c < options.cols; ++c) {
      // Horizontal edges: always keep column 0 links and the full first row
      // so the graph stays connected (spanning comb).
      if (c + 1 < options.cols) {
        const bool keep = r == 0 || rng.NextBernoulli(kRoadKeepProb);
        if (keep) add_bidi(id(r, c), id(r, c + 1));
      }
      if (r + 1 < options.rows) {
        const bool keep = c == 0 || rng.NextBernoulli(kRoadKeepProb);
        if (keep) add_bidi(id(r, c), id(r + 1, c));
      }
    }
  }
  return list;
}

EdgeList WebCrawl(const WebCrawlOptions& options) {
  GUM_CHECK(options.tendril_fraction >= 0 && options.tendril_fraction < 1);
  GUM_CHECK(options.avg_chain_length >= 1u);
  const VertexId n = VertexId{1} << options.scale;
  const VertexId n_core = std::max<VertexId>(
      2, static_cast<VertexId>((1.0 - options.tendril_fraction) * n));

  // Core: locality-preserving RMAT over the first n_core ids.
  RmatOptions core;
  core.scale = options.scale;  // generated over n, then folded into core
  core.edge_factor =
      options.edge_factor * static_cast<double>(n_core) / n;
  core.a = options.a;
  core.b = options.b;
  core.c = options.c;
  core.permute_vertices = false;
  core.weighted = options.weighted;
  core.seed = options.seed;
  EdgeList list = Rmat(core);
  list.num_vertices = n;
  for (Edge& e : list.edges) {
    e.src %= n_core;
    e.dst %= n_core;
  }

  // Tendrils: chains of consecutive ids anchored at random core vertices.
  Rng rng(options.seed ^ 0xC4A1ULL);
  VertexId next = n_core;
  while (next < n) {
    const uint32_t len = static_cast<uint32_t>(
        options.avg_chain_length / 2 +
        rng.NextBounded(options.avg_chain_length));
    const VertexId anchor = static_cast<VertexId>(rng.NextBounded(n_core));
    VertexId prev = anchor;
    for (uint32_t k = 0; k < len && next < n; ++k, ++next) {
      const float w =
          options.weighted ? RandomWeight(rng, 64) : 1.0f;
      list.edges.push_back(Edge{prev, next, w});
      list.edges.push_back(Edge{next, prev, w});
      prev = next;
    }
  }
  return list;
}

EdgeList ErdosRenyi(VertexId num_vertices, EdgeId num_edges, bool weighted,
                    uint64_t seed) {
  GUM_CHECK(num_vertices >= 2);
  Rng rng(seed);
  EdgeList list;
  list.num_vertices = num_vertices;
  list.edges.reserve(num_edges);
  for (EdgeId e = 0; e < num_edges; ++e) {
    VertexId src = static_cast<VertexId>(rng.NextBounded(num_vertices));
    VertexId dst = static_cast<VertexId>(rng.NextBounded(num_vertices));
    while (dst == src) {
      dst = static_cast<VertexId>(rng.NextBounded(num_vertices));
    }
    Edge edge{src, dst, 1.0f};
    if (weighted) edge.weight = RandomWeight(rng, 64);
    list.edges.push_back(edge);
  }
  return list;
}

EdgeList SmallWorld(VertexId num_vertices, uint32_t k, double beta,
                    uint64_t seed) {
  GUM_CHECK(num_vertices > 2 * k) << "ring too small for k=" << k;
  Rng rng(seed);
  EdgeList list;
  list.num_vertices = num_vertices;
  list.edges.reserve(static_cast<size_t>(num_vertices) * k * 2);
  for (VertexId u = 0; u < num_vertices; ++u) {
    for (uint32_t j = 1; j <= k; ++j) {
      VertexId v = (u + j) % num_vertices;
      if (rng.NextBernoulli(beta)) {
        v = static_cast<VertexId>(rng.NextBounded(num_vertices));
        if (v == u) v = (u + j) % num_vertices;
      }
      list.edges.push_back(Edge{u, v, 1.0f});
      list.edges.push_back(Edge{v, u, 1.0f});
    }
  }
  return list;
}

}  // namespace gum::graph
