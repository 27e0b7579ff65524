// Per-iteration device time accounting for the superstep runtime.
//
// Converts the iteration's counter matrices (edges expanded, hub-cached
// edges, aggregated/raw messages, applied messages) into simulated time on
// every active device's timeline, split into the four Fig.-6 buckets. This
// is the analytic substrate model of DESIGN.md §1; EngineOptions::
// time_model picks GUM's or the Gunrock comparator's per superstep.
//
// All transfer costs are charged through the CommPlane: the superstep's
// remote-edge gathers and message forwards are enqueued as one
// TransferBatch and settled together, so under contention=fair the
// iteration's transfers genuinely compete for lanes, while contention=off
// reproduces the legacy per-device accumulation bit for bit.

#ifndef GUM_CORE_TIME_ACCOUNTING_H_
#define GUM_CORE_TIME_ACCOUNTING_H_

#include <vector>

#include "core/census.h"
#include "core/expand/expand_backend.h"
#include "core/fsteal.h"
#include "core/run_result.h"
#include "sim/comm_plane.h"
#include "sim/device.h"

namespace gum::core {

// Accounts one superstep from its census (`census.features[i]` describes
// fragment i's frontier) and its expand counters: `edges_done[i][j]` /
// `hub_edges[i][j]` are fragment-i edges expanded by device j (hub-cached
// ones read locally); `agg_msgs[j][f]` / `raw_msgs[j][f]` are messages
// device j sends toward fragment f after / before per-vertex aggregation.
// `apply_msgs[f]` are messages applied to fragment f's vertices. Adds to
// result->timeline, messages_sent and the stealing-overhead totals;
// transfer bytes and lane busy time accumulate in `plane` (the engine
// exports them into RunResult after the run).
//
// Multipath (sim/transfer_plan.h): a non-null `census_tree` means the
// group runs multipath. The per-device sync charge then follows the tree's
// SyncFactor instead of the all-to-one group factor m, and the remote-edge
// gathers — the FSteal fragment payloads — are enqueued as bulk transfers
// so the plane may stripe them. Null leaves the legacy accounting
// bit-identical.
//
// Both models return the kernel-launch time they charged across active
// devices, in ns: the engine's online p estimate (Eq. 4) subtracts the
// *recorded* launch time instead of guessing a fixed kernel count.
double AccountSuperstepTime(
    int iter, sim::CommPlane& plane, const sim::DeviceParams& dev,
    bool aggregate_messages, const FrontierCensus& census,
    const ExpandCounters& counters, const std::vector<double>& apply_msgs,
    const std::vector<int>& owner_of_fragment,
    const std::vector<int>& active, const FStealDecision& fs,
    RunResult* result, const sim::ReductionTree* census_tree = nullptr);

// Gunrock's compute-rate multiplier on several GPUs, where its algorithm-
// specific kernels are only partly effective.
inline constexpr double kGunrockMultiGpuComputeFactor = 0.95;

// Accounts one superstep under the execution model the paper attributes to
// multi-GPU Gunrock (§VI; the baselines/gunrock.h preset):
//   * fragment i is expanded by device i (the identity plan), so only the
//     diagonal edges_done[i][i] and the rows raw_msgs[i] are read;
//   * edges cost the exact edge cost times the compute factor;
//   * messages are not aggregated; the "separate" kernel bins them into one
//     buffer per peer (3 us each, Fig. 4a), sent over the plane's route;
//   * every non-empty fragment pays 5 kernel launches plus the p * n
//     barrier, and idle devices still pay p * n (the long tail of Fig. 1).
// `census` is this superstep's, taken before apply.
double AccountGunrockSuperstepTime(
    int iter, sim::CommPlane& plane, const sim::DeviceParams& dev,
    double single_gpu_compute_factor, const FrontierCensus& census,
    const ExpandCounters& counters, RunResult* result);

}  // namespace gum::core

#endif  // GUM_CORE_TIME_ACCOUNTING_H_
