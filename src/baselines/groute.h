// Groute comparator (paper §VI) as a preset of the async driver.
//
// Groute is a barrier-free event loop with one clock per device, which is
// core::AsyncDriver with five values set: its whole active set sorted by
// vertex id as one batch; a one-way NVLink ring walked hop by hop, whose
// odd-n wrap-around hop is PCIe (the odd/even artifact of Fig. 7); a 1 ms
// flush timer per under-filled 16 KiB router segment at every hop (thin
// wavefronts on long-diameter graphs pay it per hop — the Table III /
// Fig. 7 road pattern); no census; no stealing. Monotonic apps converge to
// the BSP engines' fixpoint; fixed-round PageRank runs as delta-PR, and
// Groute's connected components is baselines/groute_cc.h.

#ifndef GUM_BASELINES_GROUTE_H_
#define GUM_BASELINES_GROUTE_H_

#include <vector>

#include "core/async/async_engine.h"
#include "core/engine_options.h"
#include "core/graph_context.h"
#include "core/run_context.h"
#include "core/run_result.h"
#include "graph/csr.h"
#include "graph/partition.h"
#include "sim/comm_plane.h"
#include "sim/device.h"
#include "sim/topology.h"

namespace gum::baselines {

// The Groute preset over `device` and the interconnect contention model.
// Callers may still set the host thread count, which never changes a
// result.
inline core::EngineOptions GrouteEngineOptions(
    sim::DeviceParams device = {},
    sim::ContentionModel contention = sim::ContentionModel::kOff) {
  core::EngineOptions options;
  options.mode = core::EngineMode::kAsync;
  // Groute steals neither frontiers nor ownership (the async driver never
  // reads these switches; the preset states what runs).
  options.enable_fsteal = false;
  options.enable_osteal = false;
  device.sync_per_peer_us = 0.0;  // no barrier, no census
  options.device = device;
  options.contention = contention;
  options.enable_hub_cache = false;
  core::AsyncConfig& async = options.async;
  async.worklist = core::AsyncWorklistKind::kSortedSet;
  async.delta = 1.0;  // priorities are unused; skips the weight scan
  async.enable_range_steal = false;
  async.flush_timeout_us = 1000.0;
  options.route = sim::RoutePolicy::kRing;
  return options;
}

// Runs `app` under `options` (GrouteEngineOptions) on a one-way NVLink
// ring over partition.num_parts devices.
template <typename App>
core::RunResult RunGroute(const graph::CsrGraph& g,
                          const graph::Partition& partition,
                          const core::EngineOptions& options, App app,
                          std::vector<typename App::Value>* values_out =
                              nullptr) {
  const core::GraphContext ctx(
      &g, partition,
      sim::Topology::Ring(partition.num_parts, sim::Topology::kNvlinkLaneGBps,
                          /*pcie_odd_wrap=*/true),
      options);
  core::RunContext<App> rc;
  return core::AsyncDriver<App>(&ctx).Run(app, rc, values_out, options);
}

}  // namespace gum::baselines

#endif  // GUM_BASELINES_GROUTE_H_
