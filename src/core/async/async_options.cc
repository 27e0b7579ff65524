#include "core/async/async_options.h"

#include <cmath>

namespace gum::core {

const char* EngineModeName(EngineMode mode) {
  switch (mode) {
    case EngineMode::kBsp:
      return "bsp";
    case EngineMode::kAsync:
      return "async";
  }
  return "unknown";
}

Result<EngineMode> ParseEngineMode(const std::string& name) {
  if (name == "bsp") return EngineMode::kBsp;
  if (name == "async") return EngineMode::kAsync;
  return Status::InvalidArgument("unknown engine mode '" + name +
                                 "' (expected bsp|async)");
}

const char* AsyncWorklistKindName(AsyncWorklistKind kind) {
  switch (kind) {
    case AsyncWorklistKind::kBuckets:
      return "buckets";
    case AsyncWorklistKind::kSmq:
      return "smq";
    case AsyncWorklistKind::kSortedSet:
      return "sorted-set";
  }
  return "unknown";
}

Result<AsyncWorklistKind> ParseAsyncWorklistKind(const std::string& name) {
  if (name == "buckets") return AsyncWorklistKind::kBuckets;
  if (name == "smq") return AsyncWorklistKind::kSmq;
  return Status::InvalidArgument("unknown worklist kind '" + name +
                                 "' (expected buckets|smq)");
}

// Every range check is written so that NaN fails it: each comparison with
// a NaN is false.
Status ValidateAsyncConfig(const AsyncConfig& config) {
  if (!(config.delta >= 0.0)) {
    return Status::InvalidArgument(
        "--delta must be > 0 (omit the flag for the app-aware default)");
  }
  if (!(config.steal_prob >= 0.0 && config.steal_prob <= 1.0)) {
    return Status::InvalidArgument("--steal-prob must be in [0, 1]");
  }
  if (config.steal_batch_size < 1) {
    return Status::InvalidArgument("--steal-batch must be >= 1");
  }
  if (config.range_steal_min_victim < 0) {
    return Status::InvalidArgument(
        "async range_steal_min_victim must be >= 0");
  }
  if (!(config.flush_timeout_us >= 0.0 &&
        std::isfinite(config.flush_timeout_us))) {
    return Status::InvalidArgument(
        "async flush_timeout_us must be finite and >= 0");
  }
  return Status::OK();
}

}  // namespace gum::core
