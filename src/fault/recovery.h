// Fail-stop recovery via ownership migration (DESIGN.md §11).
//
// On fail-stop detection at a superstep barrier the engine (1) restores the
// last checkpoint, (2) rebuilds fragment ownership over the survivors by
// driving the existing OSteal enumeration with the dead devices' columns
// forbidden (the survivor ReductionSchedule evicts them first — see
// sim::ReductionSchedule::BuildWithForbidden), and (3) resumes. This header
// owns steps (2)'s decision and the honest cost accounting of the whole
// event: detection timeout, checkpoint read-back for kept fragments,
// migration of inherited fragments, and the rolled-back (lost) work.

#ifndef GUM_FAULT_RECOVERY_H_
#define GUM_FAULT_RECOVERY_H_

#include <vector>

#include "core/osteal.h"
#include "sim/comm_plane.h"
#include "sim/reduction_schedule.h"

namespace gum::fault {

// Simulated barrier timeout before the survivors declare a silent peer
// dead and start recovery (500 µs, charged to every survivor).
inline constexpr double kDetectTimeoutMs = 0.5;

// Per-event recovery charges (simulated ms). restore/migrate are the
// slowest device's share (the barrier waits for the last reader);
// per_device_ms carries each survivor's own detect + read-back time for the
// timeline.
struct RecoveryCharge {
  double detect_ms = 0.0;
  double restore_ms = 0.0;
  double migrate_ms = 0.0;
  int fragments_migrated = 0;  // fragments whose owner changed vs checkpoint
  std::vector<double> per_device_ms;
};

// Rebuilds ownership over the survivors. `survivor_schedule` must be built
// with the failed devices forbidden; `num_survivors` caps the enumeration
// (the dead can never rejoin). With `enumerate` false (OSteal disabled) the
// group stays at full survivor strength and ownership follows the
// schedule's receiver chains directly.
core::OStealDecision RebuildOwnership(
    const std::vector<std::vector<double>>& cost,
    const std::vector<double>& loads,
    const sim::ReductionSchedule& survivor_schedule, double sync_per_peer_ns,
    int num_survivors, bool enumerate);

// Charges for one recovery event. `ckpt_owner` / `new_owner` are the
// fragment ownership vectors before and after RebuildOwnership;
// `fragment_bytes[i]` is the checkpointed state of fragment i (see
// FragmentStateBytes). Every surviving owner reads its fragments back from
// host checkpoint storage; a fragment whose owner changed counts as
// migrated (same read-back path, tracked separately because it is the
// ownership-migration traffic a smarter protocol would optimize).
//
// With a `multipath_plane` (contention=fair, multipath=on) that smarter
// protocol is in effect: a migrated fragment whose checkpoint owner
// survived moves peer-to-peer over the plane's striped NVLink paths
// (sim/transfer_plan.h) instead of a host PCIe round-trip, and host
// read-backs stripe across the device's PCIe lane plus its fastest NVLink
// relay. Null reproduces the single-path PCIe charges bit for bit.
RecoveryCharge ComputeRecoveryCharge(
    const std::vector<int>& ckpt_owner, const std::vector<int>& new_owner,
    const std::vector<bool>& failed,
    const std::vector<double>& fragment_bytes,
    const sim::CommPlane* multipath_plane = nullptr);

}  // namespace gum::fault

#endif  // GUM_FAULT_RECOVERY_H_
