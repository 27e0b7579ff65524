// Periodic engine checkpoints (DESIGN.md §11).
//
// A Checkpoint is a full snapshot of the state the GUM engine needs to
// re-enter its superstep loop at an iteration barrier: vertex values, the
// per-fragment frontier, the group state (fragment ownership, the active
// group, the online p estimate, the last wall), and the whole RunResult
// (timeline + counters) plus CommPlane telemetry so a rolled-back run
// re-accumulates time exactly as if the lost iterations never ran. The
// determinism contract (DESIGN.md §7) makes values independent of
// ownership and steal plans, which is what lets a replay over a *shrunk*
// group converge to byte-identical output.
//
// Snapshots live in host memory (the coordinator); what the analytic model
// charges is the device -> host read-back of each owner's fragment state
// over PCIe, sized by FragmentStateBytes.

#ifndef GUM_FAULT_CHECKPOINT_H_
#define GUM_FAULT_CHECKPOINT_H_

#include <cstddef>

#include "core/osteal.h"
#include "core/run_result.h"
#include "core/vertex_state.h"
#include "graph/types.h"
#include "sim/comm_plane.h"

namespace gum::fault {

struct CheckpointConfig {
  // Take a snapshot after every `every`-th iteration; 0
  // disables periodic checkpoints. With a fault plan active, an implicit
  // free snapshot of the initial state always exists, so recovery falls
  // back to iteration 0 when no periodic checkpoint was taken yet.
  int every = 0;
};

// Bytes a device moves when snapshotting (or restoring) one fragment:
// the dense value array plus the fragment's current frontier.
double FragmentStateBytes(size_t fragment_vertices, size_t frontier_vertices,
                          size_t bytes_per_value);

// Simulated wall charge (ms) for moving `bytes` of checkpoint state between
// a device and host storage over the PCIe path.
double CheckpointTransferMs(double bytes);

// Engine snapshot at an iteration barrier. `iteration` is the resume point:
// the first iteration whose effects are NOT captured.
template <typename Value>
struct Checkpoint {
  int iteration = 0;
  // SoA vertex state (values + frontier arena) — two flat copies.
  core::VertexState<Value> state;
  core::GroupState group;
  core::RunResult result;
  sim::CommPlane::Telemetry comm;
};

}  // namespace gum::fault

#endif  // GUM_FAULT_CHECKPOINT_H_
