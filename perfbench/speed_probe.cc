#include "speed_probe.h"

#include <sched.h>

#include <algorithm>

#include "common/stopwatch.h"

namespace perfbench {

namespace {

constexpr uint32_t kTableSlots = uint32_t{1} << 18;
constexpr size_t kKeys = size_t{1} << 13;
constexpr int kUpdatesPerRun = 200000;

uint64_t Step(uint64_t x) {
  return x * 6364136223846793005ULL + 1442695040888963407ULL;
}

}  // namespace

int PinToCpus(int n) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return 0;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  const size_t keep = std::min(cpus.size(), static_cast<size_t>(n));
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  for (size_t i = cpus.size() - keep; i < cpus.size(); ++i) {
    CPU_SET(cpus[i], &pinned);
  }
  if (sched_setaffinity(0, sizeof(pinned), &pinned) != 0) {
    return static_cast<int>(cpus.size());
  }
  return static_cast<int>(keep);
}

SpeedProbe::SpeedProbe(int lanes) : lanes_(std::max(lanes, 1)) {
  for (size_t i = 0; i < lanes_.size(); ++i) {
    Lane& lane = lanes_[i];
    lane.table.resize(kTableSlots);
    lane.keys.resize(kKeys);
    lane.state = i + 1;
    RunOnce(lane);  // faults the table in
    if (i > 0) helpers_.emplace_back([this, i] { HelperLoop(i); });
  }
}

SpeedProbe::~SpeedProbe() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& t : helpers_) t.join();
}

double SpeedProbe::RunOnce(Lane& lane) {
  gum::Stopwatch sw;
  for (int i = 0; i < kUpdatesPerRun; ++i) {
    lane.state = Step(lane.state);
    ++lane.table[(lane.state >> 40) & (kTableSlots - 1)];
  }
  for (uint32_t& k : lane.keys) {
    lane.state = Step(lane.state);
    k = static_cast<uint32_t>(lane.state >> 33);
  }
  std::sort(lane.keys.begin(), lane.keys.end());
  lane.sink += lane.keys[kKeys / 2];
  return sw.ElapsedMillis();
}

void SpeedProbe::RunLane(Lane& lane, double min_ms) {
  double total = 0.0;
  int runs = 0;
  do {
    total += RunOnce(lane);
    ++runs;
  } while (total < min_ms);
  lane.mean_ms = total / runs;
}

void SpeedProbe::HelperLoop(size_t lane) {
  uint64_t seen = 0;
  for (;;) {
    double min_ms = 0.0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      start_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      min_ms = min_ms_;
    }
    RunLane(lanes_[lane], min_ms);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --pending_;
    }
    done_cv_.notify_one();
  }
}

double SpeedProbe::Measure(double min_ms) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    min_ms_ = min_ms;
    pending_ = static_cast<int>(helpers_.size());
    ++generation_;
  }
  start_cv_.notify_all();
  RunLane(lanes_[0], min_ms);
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return pending_ == 0; });
  double slowest = 0.0;
  for (const Lane& lane : lanes_) slowest = std::max(slowest, lane.mean_ms);
  return slowest;
}

}  // namespace perfbench
