// Deterministic fault injection (DESIGN.md §11).
//
// A FaultPlan is a schedule of fault events — device fail-stop, straggler
// slowdown windows, link degradation / outage / flapping — parsed from a
// spec string or generated from a seed ("chaos"). A FaultPlane binds the
// plan to a device count, validates it, and answers the engine's
// per-superstep queries: which devices die at this barrier, how slow a
// straggler runs, and what scale every link operates at. Everything is a
// pure function of (plan, seed, device count, iteration), so a faulted run
// is exactly as reproducible as a fault-free one.
//
// The plane only *describes* faults. The CommPlane reroutes around link
// faults (sim/comm_plane.h, SetLinkScale), and fault/recovery.h rebuilds
// ownership after a fail-stop; the engine wires the three together.

#ifndef GUM_FAULT_FAULT_PLANE_H_
#define GUM_FAULT_FAULT_PLANE_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/status.h"

namespace gum::fault {

enum class FaultKind {
  kFailStop,     // device permanently dead from iteration `begin` on
  kStraggler,    // device compute runs `factor`x slower in [begin, end]
  kLinkDegrade,  // link (a, b) at `factor` of nominal bandwidth in [begin, end]
  kLinkDown,     // link (a, b) removed in [begin, end]
  kLinkFlap,     // link (a, b) alternates down/up every `period` iterations
};

// One scheduled fault. Iteration ranges are inclusive on both ends; a
// fail-stop only uses `begin`. Link faults are symmetric (both directions
// of the (a, b) pair).
struct FaultEvent {
  static constexpr int kNoEnd = std::numeric_limits<int>::max();

  FaultKind kind = FaultKind::kFailStop;
  int device = -1;      // kFailStop / kStraggler
  int link_a = -1;      // link kinds
  int link_b = -1;
  int begin = 0;        // first affected iteration
  int end = kNoEnd;     // last affected iteration (inclusive)
  double factor = 1.0;  // straggler slowdown (> 1) or link scale [0, 1)
  int period = 1;       // kLinkFlap half-period in iterations

  // Canonical spec-grammar form of this event (re-parseable).
  std::string Describe() const;
};

// A parsed fault plan. Spec grammar — events separated by ';':
//   failstop:<dev>@<iter>
//   straggler:<dev>@<first>-<last>x<factor>
//   degrade:<a>-<b>@<first>-<last>x<scale>
//   linkdown:<a>-<b>@<first>-<last>
//   flap:<a>-<b>@<first>-<last>/<period>
// "none" (or an empty string) is the empty plan; "chaos" expands into a
// seeded random mix of the above once bound to a device count. Unknown
// event kinds and malformed numbers are InvalidArgument — never a silent
// fallback.
class FaultPlan {
 public:
  static Result<FaultPlan> Parse(const std::string& spec);

  bool empty() const { return !chaos_ && events_.empty(); }
  bool chaos() const { return chaos_; }
  const std::vector<FaultEvent>& events() const { return events_; }

 private:
  friend class FaultPlane;
  bool chaos_ = false;
  std::vector<FaultEvent> events_;
};

// A fault plan bound to a device count (and, for chaos plans, a seed).
class FaultPlane {
 public:
  FaultPlane() = default;

  // Validates every event against `num_devices` (device / link endpoints in
  // range, link endpoints distinct, at least one device never fail-stopped)
  // and expands a chaos plan deterministically from `seed`.
  static Result<FaultPlane> Create(const FaultPlan& plan, int num_devices,
                                   uint64_t seed = 1);

  // True when the plan schedules at least one event. An inactive plane is
  // contractually invisible: the engine treats it exactly like no plane.
  bool active() const { return !events_.empty(); }
  int num_devices() const { return num_devices_; }
  const std::vector<FaultEvent>& events() const { return events_; }

  // Devices whose fail-stop fires exactly at `iter`, ascending. The engine
  // visits iterations in order, so every scheduled failure before
  // convergence is observed exactly once.
  std::vector<int> FailuresAt(int iter) const;
  bool AnyFailStop() const;

  // Compound slowdown factor (>= 1) of `device`'s compute at `iter`.
  double ComputeSlowdown(int device, int iter) const;

  // Bandwidth scale of the symmetric link (a, b) at `iter`: 1 when healthy,
  // 0 when down. Overlapping events compound multiplicatively.
  double LinkScale(int a, int b, int iter) const;

  struct LinkFault {
    int a = 0;
    int b = 0;
    double scale = 1.0;
  };
  // Every link running below nominal at `iter` (a < b), ascending by pair.
  std::vector<LinkFault> LinkFaultsAt(int iter) const;

  // Canonical ';'-joined event list (re-parseable spec), for reports/logs.
  std::string Describe() const;

 private:
  int num_devices_ = 0;
  std::vector<FaultEvent> events_;
};

}  // namespace gum::fault

#endif  // GUM_FAULT_FAULT_PLANE_H_
