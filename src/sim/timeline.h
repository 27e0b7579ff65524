// Per-iteration, per-device time accounting (paper Figures 1, 6, 8, 9).
//
// Every simulated millisecond an engine spends lands in one of four buckets,
// matching the paper's Fig. 6 runtime breakdown:
//   kCompute        — kernel time expanding frontiers / applying updates
//   kCommunication  — data movement over NVLink/PCIe plus starvation
//                     (waiting for stragglers)
//   kSerialization  — packing scattered updates into contiguous buffers
//   kOverhead       — id conversion and the FSteal/OSteal decision work
// The Timeline keeps one record per (iteration, device) so timeline-style
// figures (Fig. 1, Fig. 8) can be regenerated.

#ifndef GUM_SIM_TIMELINE_H_
#define GUM_SIM_TIMELINE_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace gum::sim {

enum class TimeCategory : int {
  kCompute = 0,
  kCommunication = 1,
  kSerialization = 2,
  kOverhead = 3,
};
inline constexpr int kNumTimeCategories = 4;

const char* TimeCategoryName(TimeCategory cat);

class Timeline {
 public:
  Timeline() = default;
  explicit Timeline(int num_devices) : num_devices_(num_devices) {}

  int num_devices() const { return num_devices_; }
  int num_iterations() const { return static_cast<int>(iterations_.size()); }

  // Adds `ms` of category `cat` time to device `device` in iteration `iter`.
  // Iterations may be appended in order; adding to iteration k grows the
  // timeline to k+1 iterations.
  void Add(int iter, int device, TimeCategory cat, double ms);

  // Busy time of one device in one iteration, one category. Reads at or
  // past num_iterations() return 0: an iteration no device was charged
  // has no busy time (Add grows the timeline lazily). A negative iteration
  // or an out-of-range device fails a GUM_CHECK, as in Add; so do the
  // per-iteration reads below.
  double Get(int iter, int device, TimeCategory cat) const;

  // Sum over categories for one device in one iteration.
  double DeviceIterationTotal(int iter, int device) const;

  // max over devices of DeviceIterationTotal — the BSP wall time of the
  // iteration.
  double IterationWall(int iter) const;

  // Whole-run totals.
  double TotalByCategory(TimeCategory cat) const;
  double TotalWall() const;  // sum of iteration walls

  // Fraction of device-cycles spent idle waiting for the iteration's
  // straggler, over the whole run (paper Fig. 8 "stall").
  double StallFraction() const;

  // Devices that did any work in the iteration.
  int ActiveDevices(int iter) const;

  // Renders an ASCII utilization timeline (one row per device, one column
  // per iteration bucket) for Fig. 1-style inspection.
  std::string RenderAscii(int max_columns = 100) const;

  // Writes "iteration,device,compute_ms,communication_ms,serialization_ms,
  // overhead_ms" rows (with header) for external plotting.
  void WriteCsv(std::ostream& os) const;

 private:
  struct DeviceCell {
    std::array<double, kNumTimeCategories> ms{};
  };
  // The cell of (iter, device), or null past the last charged iteration.
  const DeviceCell* Cell(int iter, int device) const;
  int num_devices_ = 0;
  std::vector<std::vector<DeviceCell>> iterations_;  // [iter][device]
};

}  // namespace gum::sim

#endif  // GUM_SIM_TIMELINE_H_
