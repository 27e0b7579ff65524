// Gunrock comparator (paper §VI) as a preset of the BSP engine.
//
// Multi-GPU Gunrock is one frontier plus operators over a static edge-cut
// partition: core::GumEngine with every fragment processed by its owner
// (no frontier or ownership stealing, no hub cache), topology-oblivious
// sends (direct link or PCIe, never a transit GPU) and Gunrock's time
// model (core::AccountGunrockSuperstepTime: p * n barrier on every device
// however small the frontier, per-peer "separate" binning, and an
// algorithm-specific compute boost that is strongest on one GPU). Gunrock
// runs on the caller's topology, so callers construct GumEngine<App>
// directly with these options.

#ifndef GUM_BASELINES_GUNROCK_H_
#define GUM_BASELINES_GUNROCK_H_

#include "core/engine_options.h"
#include "sim/comm_plane.h"
#include "sim/device.h"

namespace gum::baselines {

// The Gunrock preset over `device`, the interconnect contention model and
// Gunrock's compute-rate multiplier on one GPU. Callers may still set the
// host thread count, which never changes a result.
inline core::EngineOptions GunrockEngineOptions(
    sim::DeviceParams device = {},
    sim::ContentionModel contention = sim::ContentionModel::kOff,
    double single_gpu_compute_factor = 0.70) {
  core::EngineOptions options;
  options.device = device;
  options.contention = contention;
  options.enable_fsteal = false;
  options.enable_osteal = false;
  options.enable_hub_cache = false;
  options.route = sim::RoutePolicy::kDirectOnly;
  options.time_model = core::TimeModel::kGunrock;
  options.gunrock_single_gpu_compute_factor = single_gpu_compute_factor;
  options.record_iteration_stats = false;
  return options;
}

}  // namespace gum::baselines

#endif  // GUM_BASELINES_GUNROCK_H_
