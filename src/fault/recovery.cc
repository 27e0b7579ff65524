#include "fault/recovery.h"

#include <algorithm>

#include "common/logging.h"
#include "fault/checkpoint.h"

namespace gum::fault {

core::OStealDecision RebuildOwnership(
    const std::vector<std::vector<double>>& cost,
    const std::vector<double>& loads,
    const sim::ReductionSchedule& survivor_schedule, double sync_per_peer_ns,
    int num_survivors, bool enumerate) {
  GUM_CHECK(num_survivors >= 1 &&
            num_survivors <= survivor_schedule.num_devices());
  if (enumerate) {
    return core::DecideOSteal(cost, loads, survivor_schedule,
                              sync_per_peer_ns, num_survivors);
  }
  // OSteal disabled: no voluntary shrinking, the group is every survivor.
  core::OStealDecision dec;
  dec.evaluated = true;
  dec.group_size = num_survivors;
  dec.owner = survivor_schedule.OwnerVectorFor(num_survivors);
  dec.active = survivor_schedule.ActiveFor(num_survivors);
  return dec;
}

RecoveryCharge ComputeRecoveryCharge(
    const std::vector<int>& ckpt_owner, const std::vector<int>& new_owner,
    const std::vector<bool>& failed,
    const std::vector<double>& fragment_bytes,
    const sim::CommPlane* multipath_plane) {
  const size_t n = ckpt_owner.size();
  GUM_CHECK(new_owner.size() == n && failed.size() == n &&
            fragment_bytes.size() == n);
  RecoveryCharge charge;
  charge.detect_ms = kDetectTimeoutMs;
  charge.per_device_ms.assign(n, 0.0);
  // Per-device read/migration time. Legacy (null plane): every byte rides
  // the single PCIe host lane — bytes accumulate per device and convert
  // once, the exact pre-multipath arithmetic. Multipath: host read-backs
  // stripe over the PCIe lane + the fastest NVLink relay, and a migrated
  // fragment whose checkpoint owner survived skips the host entirely,
  // moving peer-to-peer over the striped transfer plan.
  std::vector<double> restore_ms(n, 0.0);
  std::vector<double> migrate_ms(n, 0.0);
  if (multipath_plane == nullptr) {
    std::vector<double> restore_bytes(n, 0.0);
    std::vector<double> migrate_bytes(n, 0.0);
    for (size_t i = 0; i < n; ++i) {
      const int owner = new_owner[i];
      GUM_CHECK(owner >= 0 && owner < static_cast<int>(n) && !failed[owner])
          << "recovery assigned fragment " << i << " to a dead device";
      if (owner == ckpt_owner[i]) {
        restore_bytes[owner] += fragment_bytes[i];
      } else {
        migrate_bytes[owner] += fragment_bytes[i];
        ++charge.fragments_migrated;
      }
    }
    for (size_t d = 0; d < n; ++d) {
      restore_ms[d] = CheckpointTransferMs(restore_bytes[d]);
      migrate_ms[d] = CheckpointTransferMs(migrate_bytes[d]);
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      const int owner = new_owner[i];
      GUM_CHECK(owner >= 0 && owner < static_cast<int>(n) && !failed[owner])
          << "recovery assigned fragment " << i << " to a dead device";
      const double bytes = fragment_bytes[i];
      if (owner == ckpt_owner[i]) {
        restore_ms[owner] +=
            bytes / multipath_plane->CheckpointWritebackGbps(owner) / 1e6;
        continue;
      }
      ++charge.fragments_migrated;
      const int src = ckpt_owner[i];
      migrate_ms[owner] +=
          !failed[src]
              ? multipath_plane->StripedTransferNs(src, owner, bytes) / 1e6
              : bytes / multipath_plane->CheckpointWritebackGbps(owner) / 1e6;
    }
  }
  for (size_t d = 0; d < n; ++d) {
    if (failed[d]) continue;
    charge.restore_ms = std::max(charge.restore_ms, restore_ms[d]);
    charge.migrate_ms = std::max(charge.migrate_ms, migrate_ms[d]);
    charge.per_device_ms[d] = charge.detect_ms + restore_ms[d] + migrate_ms[d];
  }
  return charge;
}

}  // namespace gum::fault
