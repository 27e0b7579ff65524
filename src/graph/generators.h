// Synthetic graph generators.
//
// The paper's Table II spans three domains — social networks (skewed degree,
// small diameter), web graphs (skewed + locality, medium diameter) and road
// networks (near-constant degree, very long diameter). The generators below
// produce scaled analogs of each domain:
//   * Rmat           — Graph500-style recursive matrix, social/web skew
//   * ErdosRenyi     — uniform random, used for cost-model training variety
//   * RoadGrid       — 2-D lattice with perturbations, long diameter
//   * SmallWorld     — Watts-Strogatz ring, training variety
// All generators are deterministic in their seed.

#ifndef GUM_GRAPH_GENERATORS_H_
#define GUM_GRAPH_GENERATORS_H_

#include <cstdint>

#include "graph/types.h"

namespace gum::graph {

struct RmatOptions {
  int scale = 14;          // num_vertices = 2^scale
  double edge_factor = 16; // num_edges = edge_factor * num_vertices
  double a = 0.57, b = 0.19, c = 0.19;  // d = 1 - a - b - c
  bool permute_vertices = true;  // break the id-locality of RMAT
  bool weighted = false;         // uniform integer weights in [1, 64)
  uint64_t seed = 1;
};

// Recursive-matrix (RMAT) generator. With the Graph500 parameters above the
// result has a power-law-ish in-degree distribution (social network analog);
// with a=0.45,b=0.25,c=0.15 and permute_vertices=false the result keeps
// id-locality and deeper hubs (web graph analog).
EdgeList Rmat(const RmatOptions& options);

struct RoadGridOptions {
  uint32_t rows = 256;
  uint32_t cols = 256;
  bool weighted = true;  // road lengths: uniform in [1, 16)
  uint64_t seed = 1;
};

// 2-D lattice road-network analog: ~4 edges/vertex (bidirectional), diameter
// ~ rows + cols. Guaranteed connected via the baseline spanning grid rows;
// each other lattice edge is dropped with probability 0.03 (detours).
EdgeList RoadGrid(const RoadGridOptions& options);

struct WebCrawlOptions {
  int scale = 14;            // total vertices = 2^scale
  double edge_factor = 12;   // edges per CORE vertex
  double tendril_fraction = 0.4;  // fraction of vertices living in chains
  uint32_t avg_chain_length = 64;
  double a = 0.45, b = 0.25, c = 0.15;  // RMAT parameters of the core
  bool weighted = false;
  uint64_t seed = 1;
};

// Web-graph analog: a locality-preserving RMAT core (the big strongly
// connected component of a crawl) plus deep tendril chains of consecutive
// ids hanging off random core vertices (deep page hierarchies). The chains
// give the long diameter that distinguishes webbase-class graphs
// (Table II: diameter 379) from social networks and produce the paper's
// long-tail iterations.
EdgeList WebCrawl(const WebCrawlOptions& options);

// Uniform random directed graph with num_edges edges (no self loops).
EdgeList ErdosRenyi(VertexId num_vertices, EdgeId num_edges, bool weighted,
                    uint64_t seed);

// Watts-Strogatz small world: ring of degree 2k, rewired with prob beta.
EdgeList SmallWorld(VertexId num_vertices, uint32_t k, double beta,
                    uint64_t seed);

}  // namespace gum::graph

#endif  // GUM_GRAPH_GENERATORS_H_
