// Social-network influence ranking: classic and delta PageRank on a skewed
// RMAT social graph, with frontier stealing balancing the hub-heavy
// iterations. Shows how to plug a trained cost model into the engine
// instead of the exact oracle.
//
//   $ ./social_pagerank

#include <algorithm>
#include <iostream>
#include <numeric>

#include "algos/apps.h"
#include "core/engine.h"
#include "graph/generators.h"
#include "graph/partition.h"
#include "ml/dataset.h"
#include "ml/polynomial_regression.h"
#include "sim/topology.h"

using namespace gum;  // NOLINT(build/namespaces)

int main() {
  // A hub-heavy social graph.
  graph::RmatOptions gen;
  gen.scale = 13;
  gen.edge_factor = 16;
  gen.a = 0.6;
  gen.b = 0.19;
  gen.c = 0.13;
  gen.seed = 7;
  auto g = graph::CsrGraph::FromEdgeList(graph::Rmat(gen));
  if (!g.ok()) {
    std::cerr << g.status().ToString() << "\n";
    return 1;
  }
  std::cout << "social graph: " << g->num_vertices() << " users, "
            << g->num_edges() << " follows\n";

  // Train the cost model from running logs, exactly the production setup
  // (paper §III-B). The engine falls back to the exact oracle without one.
  ml::CostDatasetOptions log_opt;
  log_opt.frontiers_per_graph = 80;
  const ml::Dataset logs = ml::GenerateDefaultCostDataset(log_opt);
  ml::PolynomialRegression cost_model(4);
  if (Status s = cost_model.Fit(logs); !s.ok()) {
    std::cerr << "cost model training failed: " << s.ToString() << "\n";
    return 1;
  }
  std::cout << "cost model: " << cost_model.name() << ", RMSRE "
            << ml::Rmsre(cost_model, logs) << " on the training logs\n\n";

  auto partition = graph::PartitionGraph(
      *g, 8, {.kind = graph::PartitionerKind::kSegment});
  auto topology = sim::Topology::HybridCubeMeshSubset(8);
  core::EngineOptions options;
  options.fsteal.t1_min_max_load = 512;
  options.fsteal.t2_min_imbalance = 256;

  // Classic PageRank: 20 synchronous rounds, every vertex active.
  {
    core::GumEngine<algos::PageRankApp> engine(&*g, *partition, *topology,
                                               options, &cost_model);
    algos::PageRankApp pr;
    pr.num_vertices = g->num_vertices();
    pr.rounds = 20;
    std::vector<double> rank;
    const core::RunResult result = engine.Run(pr, &rank);

    std::vector<graph::VertexId> order(g->num_vertices());
    std::iota(order.begin(), order.end(), 0u);
    std::partial_sort(order.begin(), order.begin() + 5, order.end(),
                      [&](auto a, auto b) { return rank[a] > rank[b]; });
    std::cout << "classic PageRank, " << result.iterations << " rounds, "
              << result.total_ms << " ms simulated\n";
    std::cout << "top influencers:";
    for (int i = 0; i < 5; ++i) {
      std::cout << "  user " << order[i] << " (" << rank[order[i]] << ")";
    }
    std::cout << "\n";
  }

  // Delta PageRank: data-driven; compare iteration counts.
  {
    core::GumEngine<algos::DeltaPageRankApp> engine(
        &*g, *partition, *topology, options, &cost_model);
    algos::DeltaPageRankApp dpr;
    dpr.num_vertices = g->num_vertices();
    dpr.epsilon = 1e-10;
    std::vector<algos::DeltaPageRankApp::State> state;
    const core::RunResult result = engine.Run(dpr, &state);
    std::cout << "delta PageRank to epsilon=1e-10: " << result.iterations
              << " iterations, " << result.total_ms << " ms simulated, "
              << result.fsteal_applied_iterations
              << " iterations rebalanced by FSteal\n";
  }
  return 0;
}
