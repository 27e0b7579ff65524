// Virtual GPU device model.
//
// DeviceParams calibrates one vGPU against a V100-class part. The numbers
// are deliberately coarse — the experiments depend on the *ratios* between
// local work, remote work over each link class, and per-iteration
// synchronization, not on absolute V100 microarchitecture. Its two fields
// are the values the benches calibrate; the rest of the model is fixed.

#ifndef GUM_SIM_DEVICE_H_
#define GUM_SIM_DEVICE_H_

namespace gum::sim {

struct DeviceParams {
  // Baseline per-edge kernel time at ideal regularity (ns). A V100 sustains
  // roughly 1-3 GTEPS on regular frontiers => ~0.3-1 ns/edge.
  double base_edge_ns = 0.45;

  // Per-iteration per-peer synchronization cost (us): exchanging frontier
  // sizes, preparing message buffers. This is the `p` of paper Eq. (4);
  // EstimateP() in the engine fits it online from observed iterations.
  double sync_per_peer_us = 110.0;
};

// Per-kernel launch latency (us). A BSP iteration launches a handful of
// kernels (advance / filter / separate, paper Fig. 4a).
inline constexpr double kKernelLaunchUs = 8.0;

// Serialization throughput for packing scattered updates into contiguous
// send buffers (GB/s) — the "separate" step of Gunrock's pipeline.
inline constexpr double kSerializationGbps = 24.0;

// Payload moved per remotely-processed edge (neighbor id + weight +
// destination vertex data), bytes.
inline constexpr double kBytesPerRemoteEdge = 16.0;

// Payload per cross-fragment message after aggregation (vertex id +
// value), bytes.
inline constexpr double kBytesPerMessage = 8.0;

}  // namespace gum::sim

#endif  // GUM_SIM_DEVICE_H_
