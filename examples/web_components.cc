// Web-graph connected components across all three engines. Builds a
// webbase-style crawl (RMAT core + deep tendrils), symmetrizes it, and runs
// WCC on GUM and on its Gunrock (BSP) and Groute (async) presets —
// verifying they agree and comparing their simulated runtimes.
//
//   $ ./web_components

#include <iostream>
#include <map>

#include "algos/apps.h"
#include "baselines/groute.h"
#include "baselines/gunrock.h"
#include "core/engine.h"
#include "graph/generators.h"
#include "graph/partition.h"
#include "sim/topology.h"

using namespace gum;  // NOLINT(build/namespaces)

int main() {
  graph::WebCrawlOptions gen;
  gen.scale = 13;
  gen.edge_factor = 10;
  gen.tendril_fraction = 0.35;
  gen.avg_chain_length = 48;
  gen.seed = 19;
  const graph::EdgeList edges = graph::WebCrawl(gen);

  graph::CsrBuildOptions build;
  build.symmetrize = true;  // WCC needs both directions
  auto g = graph::CsrGraph::FromEdgeList(edges, build);
  if (!g.ok()) {
    std::cerr << g.status().ToString() << "\n";
    return 1;
  }
  std::cout << "web crawl: " << g->num_vertices() << " pages, "
            << g->num_edges() << " links (symmetrized)\n\n";

  auto partition = graph::PartitionGraph(*g, 8, {});
  auto topology = sim::Topology::HybridCubeMeshSubset(8);

  std::vector<graph::VertexId> gum_labels, gunrock_labels, groute_labels;

  algos::WccApp wcc;
  const core::RunResult gum_run =
      core::GumEngine<algos::WccApp>(&*g, *partition, *topology, {})
          .Run(wcc, &gum_labels);
  const core::RunResult gunrock_run =
      core::GumEngine<algos::WccApp>(&*g, *partition, *topology,
                                     baselines::GunrockEngineOptions())
          .Run(wcc, &gunrock_labels);
  const core::RunResult groute_run = baselines::RunGroute(
      *g, *partition, baselines::GrouteEngineOptions(), wcc, &groute_labels);

  std::cout << "engines agree: "
            << ((gum_labels == gunrock_labels &&
                 gum_labels == groute_labels)
                    ? "yes"
                    : "NO (bug!)")
            << "\n";

  std::map<graph::VertexId, size_t> component_sizes;
  for (graph::VertexId label : gum_labels) component_sizes[label]++;
  size_t largest = 0;
  for (const auto& [label, size] : component_sizes) {
    largest = std::max(largest, size);
  }
  std::cout << "components: " << component_sizes.size()
            << ", largest covers "
            << 100.0 * largest / gum_labels.size() << "% of pages\n\n";

  std::cout << "simulated runtime (8 vGPUs):\n";
  std::cout << "  GUM          " << gum_run.total_ms << " ms  ("
            << gum_run.iterations << " iterations)\n";
  std::cout << "  Gunrock-like " << gunrock_run.total_ms << " ms  ("
            << gunrock_run.iterations << " iterations)\n";
  std::cout << "  Groute-like  " << groute_run.total_ms << " ms  ("
            << groute_run.iterations << " async batches)\n";
  return 0;
}
