#include "core/run_result.h"

namespace gum::core {

double RunResult::TotalRemoteBytes() const {
  double total = 0;
  for (size_t i = 0; i < link_bytes.size(); ++i) {
    for (size_t j = 0; j < link_bytes[i].size(); ++j) {
      if (i != j) total += link_bytes[i][j];
    }
  }
  return total;
}

double RunResult::TotalPayloadBytes() const {
  // Engines that predate payload telemetry only fill link_bytes; under the
  // point-to-point model the two are the same thing.
  const auto& matrix = payload_bytes.empty() ? link_bytes : payload_bytes;
  double total = 0;
  for (size_t i = 0; i < matrix.size(); ++i) {
    for (size_t j = 0; j < matrix[i].size(); ++j) {
      if (i != j) total += matrix[i][j];
    }
  }
  return total;
}

double FaultStats::RecoveryChargedMs() const {
  return recovery_detect_ms + recovery_restore_ms + recovery_migrate_ms +
         lost_work_ms;
}

double RunResult::StarvationMs() const {
  double starvation = 0;
  for (int it = 0; it < timeline.num_iterations(); ++it) {
    const double wall = timeline.IterationWall(it);
    for (int d = 0; d < timeline.num_devices(); ++d) {
      const double busy = timeline.DeviceIterationTotal(it, d);
      if (busy > 0) starvation += wall - busy;
    }
  }
  return starvation;
}

}  // namespace gum::core
