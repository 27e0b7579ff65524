// Machine-speed probe for host-time metrics.
//
// On a shared VM the speed of memory-touching code swings by 1.3-1.7x
// within seconds as co-tenants load the shared caches and sibling
// hyperthreads, while the code under test does the same work. The driver
// therefore runs this fixed kernel, which calls nothing in the library,
// after every query and every set-up, and scales each host time by
// kReferenceProbeMs / (probe time measured next to it). A host-time metric
// thus reads as milliseconds at the speed where one probe takes
// kReferenceProbeMs; the unscaled times stay in the driver's detail line.
//
// The driver pins itself to one CPU per host thread (PinToCpus) and the
// probe runs one lane on each of those CPUs at once, so a slow CPU that
// the engine's pool worker sits on is seen too.

#ifndef PERFBENCH_SPEED_PROBE_H_
#define PERFBENCH_SPEED_PROBE_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace perfbench {

// The probe's time on the 4-vCPU reference VM when its neighbours are
// quiet (0.9-1.0 ms); under co-tenant load it reads up to ~1.6 ms.
inline constexpr double kReferenceProbeMs = 1.0;

// Restricts the calling thread, and every thread it starts later, to the
// last `n` CPUs it may run on (all of them if it may run on fewer).
// Returns the number of CPUs kept.
int PinToCpus(int n);

class SpeedProbe {
 public:
  // One lane runs on the calling thread, lanes - 1 on helper threads.
  explicit SpeedProbe(int lanes);
  ~SpeedProbe();

  SpeedProbe(const SpeedProbe&) = delete;
  SpeedProbe& operator=(const SpeedProbe&) = delete;

  // Every lane runs the kernel until at least `min_ms` of wall time has
  // passed (at least once); returns the slowest lane's mean time of one
  // run, in ms.
  double Measure(double min_ms);

 private:
  struct Lane {
    std::vector<uint32_t> table;  // 1 MiB of random read-modify-writes
    std::vector<uint32_t> keys;   // 8K keys sorted per run
    uint64_t state = 1;
    uint64_t sink = 0;
    double mean_ms = 0.0;  // result of the last Measure
  };

  static double RunOnce(Lane& lane);
  static void RunLane(Lane& lane, double min_ms);
  void HelperLoop(size_t lane);

  std::vector<Lane> lanes_;
  std::mutex mu_;  // guards generation_ through stop_
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  uint64_t generation_ = 0;
  int pending_ = 0;
  double min_ms_ = 0.0;
  bool stop_ = false;
  std::vector<std::thread> helpers_;  // last: uses every member above
};

// Scale factor for a host time measured next to `probe_ms`.
inline double SpeedFactor(double probe_ms) {
  return kReferenceProbeMs / probe_ms;
}

}  // namespace perfbench

#endif  // PERFBENCH_SPEED_PROBE_H_
