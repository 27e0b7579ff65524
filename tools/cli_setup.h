// Setup steps shared by gum_cli and gum_serve.
//
// Both tools build the same stack before they run anything: an edge list
// (loaded or generated) and its CSR, a partition over the hybrid cube-mesh
// topology, the EngineOptions, a bound fault plane, a mutation stream, and
// the obs artifacts. Each step lives here once. ParseSetupFlags reads every
// flag those steps use, strictly: a malformed or out-of-range value is an
// InvalidArgument naming the flag, never a silent default or a CHECK abort
// further down.

#ifndef GUM_TOOLS_CLI_SETUP_H_
#define GUM_TOOLS_CLI_SETUP_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/status.h"
#include "core/engine_options.h"
#include "core/run_result.h"
#include "fault/fault_plane.h"
#include "graph/csr.h"
#include "graph/mutation.h"
#include "graph/partition.h"
#include "obs/run_report.h"
#include "obs/trace.h"
#include "sim/timeline.h"
#include "sim/topology.h"

namespace gum::cli {

// Ranged integer flag narrowed to int (FlagParser::GetIntInRange).
Result<int> GetIntFlag(const FlagParser& flags, const std::string& name,
                       int default_value, int min_value,
                       int max_value = std::numeric_limits<int>::max());
// Seed flag: any non-negative 64-bit integer, default 1.
Result<uint64_t> GetSeedFlag(const FlagParser& flags, const std::string& name);

// The flags both tools share, parsed and range-checked once.
struct SetupFlags {
  // Graph source: --graph=PATH, or --gen=rmat|web|road|er with --scale,
  // --edge-factor, --weighted, --seed, --rows and --cols.
  std::string graph_path;
  std::string gen;
  int scale = 14;
  double edge_factor = 16;  // default 12 for --gen=web
  bool weighted = false;
  uint64_t seed = 1;
  uint32_t rows = 128;
  uint32_t cols = 128;
  // --devices and --partitioner.
  int devices = 8;
  graph::PartitionOptions partition;
  // --host-threads, --msg-shards, --contention, --multipath, --expand,
  // --no-fsteal, --no-osteal and --ckpt-every (checkpoint.every).
  // options.fault_plane stays null; the caller points it at fault_plane
  // once this struct is in place.
  core::EngineOptions options;
  // --fault-plan bound to `devices` with --fault-seed.
  fault::FaultPlane fault_plane;
  uint64_t fault_seed = 1;
  // --mutations (bound to the graph by BuildSetup), --mutation-seed and
  // --compact-every.
  graph::MutationPlan mutation_plan;
  uint64_t mutation_seed = 1;
  int compact_every = 0;
};

Result<SetupFlags> ParseSetupFlags(const FlagParser& flags);

// The built stack both tools run on.
struct Setup {
  graph::CsrGraph graph;
  graph::Partition partition;
  sim::Topology topology;
  graph::MutationStream mutations;  // inactive for an empty plan
};

// Loads or generates the graph and prints its "graph:" line, partitions it
// over s.devices of the hybrid cube mesh, and binds the mutation plan
// to it.
Result<Setup> BuildSetup(const SetupFlags& s, bool symmetrize);

// A comma-separated vertex list flag, every vertex checked against `g`.
Result<std::vector<graph::VertexId>> GetVertexList(const FlagParser& flags,
                                                   const std::string& name,
                                                   const graph::CsrGraph& g);

// Prints `status` to stderr (and the usage, when given) and returns exit
// code 1.
int Fail(const Status& status, void (*print_usage)() = nullptr);

// --trace, --metrics and --report. Recording starts at construction; the
// report embeds a metrics snapshot, so --report records metrics too.
class ObsArtifacts {
 public:
  explicit ObsArtifacts(const FlagParser& flags);

  // Stops recording and writes --trace and --metrics. A non-null
  // `timeline` adds the run's simulated vGPU lanes to the trace. A worker's
  // spans reach the trace once its thread pool is gone.
  void Finish(const sim::Timeline* timeline);

  bool want_report() const { return flags_.Has("report"); }
  // The report meta fields both tools fill alike: --algo, the dataset
  // (--graph or --gen) and the device count. Callers append the config.
  obs::RunReportMeta ReportMeta(std::string system, int num_devices) const;
  // Write --report; call after Finish.
  void WriteReport(const obs::RunReportMeta& meta,
                   const core::RunResult& result) const;
  void WriteServeReport(const obs::RunReportMeta& meta,
                        const obs::ServeReportStats& stats) const;

 private:
  const FlagParser& flags_;
  obs::TraceSession trace_;
};

}  // namespace gum::cli

#endif  // GUM_TOOLS_CLI_SETUP_H_
