// Per-query layer profile from the host spans of one obs::TraceSession.
//
// The traced run records each query in its own session: the driver's own
// bench.* spans around the public calls plus every span the library
// already emits (gum.*, merge.shard, comm.settle, solver.steal_problem,
// pool.busy, ...). This module turns one session into self times:
//
//   * on the host-main lane, each *layer* span's self time is its duration
//     minus the durations of the nearest layer spans nested inside it;
//     spans that are not layers (expand.scatter, pool.busy, apply.shard,
//     osteal.decide, solver.steal_problem, ...) are transparent, so their
//     time stays with the enclosing layer;
//   * bench.run's self time is the part of GumEngine::Run no phase span
//     covers (core.unspanned_ms);
//   * solver.steal_problem is counted and timed on every lane, pool.busy is
//     summed on every lane, and the union of pool.busy windows inside
//     bench.run gives the time spent in parallel regions.

#ifndef PERFBENCH_SPAN_PROFILE_H_
#define PERFBENCH_SPAN_PROFILE_H_

#include <map>
#include <string>

#include "common/status.h"
#include "obs/trace.h"

namespace perfbench {

// Host-main-lane layers, in report order. The bench.* spans are the
// driver's own; the rest are the engine's superstep phases.
inline constexpr const char* kPhaseLayers[] = {
    "gum.census", "gum.osteal",  "gum.fsteal",  "gum.expand",
    "merge.shard", "gum.apply",  "gum.account", "comm.settle"};

struct QueryProfile {
  int query = 0;
  std::map<std::string, double> self_ms;  // host-main lane, per layer
  double run_ms = 0.0;        // bench.run duration (GumEngine::Run)
  double unspanned_ms = 0.0;  // bench.run self time
  int solves = 0;             // solver.steal_problem spans, any lane
  double solve_ms = 0.0;      // their summed duration
  double pool_busy_ms = 0.0;  // pool.busy summed over lanes
  double parallel_ms = 0.0;   // union of pool.busy windows inside bench.run
  std::map<std::string, int> span_counts;  // every span name, any lane

  // Multiplies every time by `factor` (speed_probe.h); counts stay.
  void Scale(double factor);
};

// Exports the (stopped) session and computes its profile.
gum::Result<QueryProfile> ProfileSession(const gum::obs::TraceSession& session,
                                         int query);

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_PROFILE_H_
