// The three session-benchmark workloads: seeded input generation and the
// timed set-up path (CSR build -> partition -> context).
//
//   social-pr   RMAT scale 16 (bench/datasets.cc Social recipe), random
//               partition, 10-round PageRank as BSP scatter jobs.
//   road-sssp   128x128 road grid, metis-like partition, BSP SSSP from
//               seeded sources; a road-closure epoch before every 4th query.
//   road-async  the road-sssp graph, partition and sources, run in
//               EngineMode::kAsync with no writes.
//
// Every input (edge list, sources, closure batches) is a pure function of
// the workload seed and is generated before anything is timed.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/engine_options.h"
#include "core/epoch_context.h"
#include "core/graph_context.h"
#include "graph/csr.h"
#include "graph/mutation.h"
#include "graph/types.h"

namespace perfbench {

enum class Workload { kSocialPr, kRoadSssp, kRoadAsync };

gum::Result<Workload> ParseWorkload(const std::string& name);
const char* WorkloadName(Workload w);

inline constexpr int kDevices = 8;  // hybrid cube mesh
inline constexpr int kPageRankRounds = 10;
inline constexpr int kEpochEvery = 4;          // queries per closure epoch
inline constexpr int kClosedSegments = 32;     // segments closed per epoch
// Every 8th barrier folds the overlay back into the base CSR (charged on
// the simulated clock). Without it each reopened segment keeps its base
// delete mark plus an overlay insert, so the overlay, and the merge every
// barrier runs over it, grow with the number of epochs a run reaches.
inline constexpr int kCompactEvery = 8;

// Everything a run consumes, generated from the seed before timing starts.
struct Inputs {
  gum::graph::EdgeList edges;
  // Query sources, used cyclically (SSSP workloads; empty for social-pr).
  // road-async repeats each source ~20 times in a 20 s run, so the driver
  // runs each reference SSSP once per source rather than once per query.
  std::vector<gum::graph::VertexId> sources;
  // Road-closure batches (road-sssp only). batches[0] closes the first
  // segment set; every later batch reopens the previous set at its
  // original weights and closes the next one. Barrier k (1-based) applies
  // BatchForBarrier(k), cycling over batches[1..] once exhausted.
  std::vector<std::vector<gum::graph::MutationEvent>> batches;

  std::span<const gum::graph::MutationEvent> BatchForBarrier(int k) const;
  // FNV-1a digest of every generated input; differs across seeds.
  uint64_t Fingerprint() const;
};

Inputs GenerateInputs(Workload w, uint64_t seed);

// 64-bit FNV-1a over raw bytes, chained through `h`.
inline constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
uint64_t Fnv1a(uint64_t h, const void* data, size_t bytes);

// Host threads per workload: 2 (half of the 4-core reference machine) for
// social-pr, whose supersteps carry ~1M edges each. The road workloads open
// ~4 ParallelFor regions per superstep over tiny frontiers; on the
// reference VM a second thread made each region wait on a worker wake-up,
// and on a 256x256 grid road-sssp's p50 spread 132-290 ms across five
// seeds at 2 threads against 116-131 ms at 1. road-async shares
// road-sssp's setting as its control.
int HostThreads(Workload w);

gum::core::EngineOptions MakeEngineOptions(Workload w);

// Host wall time of each set-up stage, milliseconds.
struct SetupTimes {
  double csr_ms = 0.0;
  double partition_ms = 0.0;
  double context_ms = 0.0;
  double TotalSeconds() const {
    return (csr_ms + partition_ms + context_ms) / 1e3;
  }
};

// A ready-to-query session: the static context, or for road-sssp the
// epoched context whose GraphContext is rebuilt at every closure barrier.
class Session {
 public:
  // Times CsrGraph::FromEdgeList, PartitionGraph and the context
  // constructor.
  Session(Workload w, const Inputs& inputs, uint64_t seed);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  const gum::core::GraphContext& context() const;
  const gum::graph::CsrGraph& graph() const;
  // Null unless the workload mutates (road-sssp).
  gum::core::EpochedGraphContext* epoched() { return epoched_.get(); }
  // Closure epochs applied so far (0 for the static workloads).
  int epoch() const { return epoched_ != nullptr ? epoched_->epoch() : 0; }
  const SetupTimes& times() const { return times_; }
  uint64_t num_edges() const { return num_edges_; }

 private:
  std::unique_ptr<gum::graph::CsrGraph> graph_;  // static workloads
  std::unique_ptr<gum::core::GraphContext> ctx_;
  std::unique_ptr<gum::core::EpochedGraphContext> epoched_;
  SetupTimes times_;
  uint64_t num_edges_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
