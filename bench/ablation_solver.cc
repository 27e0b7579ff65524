// Ablation: the FSteal decision procedure (DESIGN.md "design choices").
//
// Compares four per-iteration policies on the same workload:
//   none    — no frontier stealing
//   greedy  — LPT heuristic (whole fragments, no splitting)
//   lp      — LP relaxation + rounding (GUM's default; the paper rounds too)
//   milp    — exact branch & bound (warm-started)
// Reports end-to-end simulated time and the total host-side decision cost.
// The paper's implicit claim: the LP is as good as exact while staying
// cheap, and both beat the classic peek-and-grab-style greedy.

#include <iostream>

#include "algos/apps.h"
#include "bench/datasets.h"
#include "bench/runner.h"
#include "common/table_printer.h"
#include "core/engine.h"
#include "graph/partition.h"

using namespace gum;        // NOLINT(build/namespaces)
using namespace gum::bench; // NOLINT(build/namespaces)

int main() {
  std::cout << "=== Ablation: FSteal decision policy — SSSP, 8 vGPUs, seg "
               "partition ===\n\n";
  TablePrinter tp({"Graph", "Policy", "total (ms)", "stolen edges",
                   "decisions", "host decision ms"});
  for (const std::string& abbr : {std::string("SW"), std::string("U5")}) {
    const DatasetGraphs data = BuildDataset(abbr);
    const graph::CsrGraph& g = data.directed;
    auto partition = graph::PartitionGraph(
        g, 8, {.kind = graph::PartitionerKind::kSegment});
    const auto topology = sim::Topology::HybridCubeMesh8();

    for (const std::string policy : {"none", "greedy", "lp", "milp"}) {
      core::EngineOptions opt;
      opt.device = BenchDeviceParams();
      opt.enable_osteal = false;
      opt.enable_fsteal = policy != "none";
      opt.fsteal.use_greedy = policy == "greedy";
      opt.fsteal.exact_milp = policy == "milp";
      core::GumEngine<algos::SsspApp> engine(&g, *partition, topology, opt);
      algos::SsspApp app;
      app.source = PickSource(g);
      const core::RunResult r = engine.Run(app);
      tp.AddRow({abbr, policy, TablePrinter::Num(r.total_ms, 1),
                 TablePrinter::Num(r.stolen_edges_total, 0),
                 std::to_string(r.fsteal_applied_iterations),
                 TablePrinter::Num(r.fsteal_decision_host_ms_total, 2)});
    }
    std::cerr << "done " << abbr << "\n";
  }
  tp.Print(std::cout);
  std::cout << "\nObserved shape: lp == milp in end-to-end time (the "
               "rounding loss is below vertex granularity) at a fraction of "
               "milp's host cost; whole-fragment greedy NEVER improves on "
               "the identity assignment when each device owns one fragment "
               "— splitting frontiers is what makes FSteal work.\n";
  return 0;
}
