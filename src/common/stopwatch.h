// Wall-clock stopwatch for host-side measurements.
//
// Only the *decision procedures* (MILP solve, model inference, model
// training) are measured in wall-clock time — matching the paper's Table IV
// overhead and Table V training-time columns. Simulated device time never
// touches the wall clock.

#ifndef GUM_COMMON_STOPWATCH_H_
#define GUM_COMMON_STOPWATCH_H_

#include <chrono>

namespace gum {

class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace gum

#endif  // GUM_COMMON_STOPWATCH_H_
