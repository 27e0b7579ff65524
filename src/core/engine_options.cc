#include "core/engine_options.h"

#include <string>
#include <utility>

namespace gum::core {

Status ValidateRunOptions(const EngineOptions& options, int num_devices,
                          bool fixed_round_app, bool async_capable_app) {
  const bool faulted =
      options.fault_plane != nullptr && options.fault_plane->active();
  if (faulted && options.fault_plane->num_devices() != num_devices) {
    return Status::InvalidArgument(
        "fault plane bound to " +
        std::to_string(options.fault_plane->num_devices()) +
        " devices, engine has " + std::to_string(num_devices));
  }
  const bool async = options.mode == EngineMode::kAsync;
  const bool ckpt = options.checkpoint.every > 0;
  // The Gunrock model prices the identity plan's counter-matrix diagonal
  // at a superstep barrier; anything that moves work off it, reprices it
  // or drops the barrier would be charged wrongly.
  const bool gunrock = options.time_model == TimeModel::kGunrock;
  const std::pair<bool, const char*> rejected[] = {
      {async && !async_capable_app,
       "async mode requires an app with AsyncPriority"},
      {async && fixed_round_app,
       "async mode runs data-driven apps only (use the delta variant)"},
      // The async driver has no barrier to detect failures or snapshot at.
      {async && faulted, "async mode does not compose with the fault plane"},
      {async && ckpt, "async mode does not take checkpoints"},
      // CommPlane::Route prices a ring only hop by hop, as bundles walk it.
      {!async && options.route == sim::RoutePolicy::kRing,
       "the ring route runs only in async mode"},
      {gunrock && async, "the Gunrock time model does not price async mode"},
      {gunrock && options.enable_fsteal,
       "the Gunrock time model does not price frontier stealing"},
      {gunrock && options.enable_osteal,
       "the Gunrock time model does not price ownership stealing"},
      {gunrock && faulted,
       "the Gunrock time model does not price the fault plane"},
      {gunrock && ckpt, "the Gunrock time model does not price checkpoints"},
      {gunrock && options.multipath == sim::MultipathMode::kOn,
       "the Gunrock time model does not price multipath"},
      {gunrock && options.expand_backend != ExpandBackendKind::kScatter,
       "the Gunrock time model does not price a non-scatter expand backend"},
  };
  for (const auto& [hit, message] : rejected) {
    if (hit) return Status::InvalidArgument(message);
  }
  return async ? ValidateAsyncConfig(options.async) : Status::OK();
}

}  // namespace gum::core
