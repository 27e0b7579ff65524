// Dual-clock tracing (observability plane, DESIGN.md §10).
//
// A TraceSession records spans on two clocks that never mix:
//
//   * SIMULATED time — the per-iteration, per-device bucket matrix the
//     engines already produce (sim::Timeline, charged through the
//     CommPlane). AddSimulatedTimeline lays every (iteration, device,
//     category) bucket out as one lane per vGPU, iterations offset by the
//     BSP wall clock, so an 8-device run renders exactly like paper Fig. 1.
//
//   * HOST wall-clock — RAII spans (GUM_TRACE_SCOPE) measured with
//     steady_clock around the runtime's real work: superstep phases, steal
//     decisions, solver calls, CommPlane settling, and the thread pool's
//     per-thread busy windows. Spans land in lock-free per-thread buffers;
//     lanes are the pool's deterministic thread indices (0 = the calling
//     thread, 1..k-1 = workers), never OS thread ids.
//
// Export is Chrome trace-event JSON ("traceEvents"): open the file in
// chrome://tracing or Perfetto and you get one process group of vGPU lanes
// (simulated µs) and one of host-thread lanes (wall µs).
//
// Zero-perturbation contract: tracing only *observes*. When no session is
// active, GUM_TRACE_SCOPE is one relaxed atomic load and no clock read;
// when active, it reads the clock and appends to a thread-local buffer —
// it never touches algorithm state, simulated time, or any engine output.
// Enabling tracing therefore cannot change results (pinned by
// tests/obs_test.cc).

#ifndef GUM_OBS_TRACE_H_
#define GUM_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace gum::sim {
class Timeline;
}  // namespace gum::sim

namespace gum::obs {

namespace internal {
extern std::atomic<bool> g_tracing_enabled;
}  // namespace internal

// True while a TraceSession is recording host spans. One relaxed load —
// the entire cost of a disabled GUM_TRACE_SCOPE.
inline bool TracingEnabled() {
  return internal::g_tracing_enabled.load(std::memory_order_relaxed);
}

// Registers the calling thread's lane and display name. Called by the
// ThreadPool for its workers; the main thread defaults to lane 0
// ("host-main"). Lanes become the "tid" of exported host spans, so traces
// from identical runs line up regardless of OS thread ids.
void SetThreadLane(int lane, const std::string& name);

// One finished host-clock span (µs relative to the session epoch).
struct HostSpan {
  const char* name;  // static-storage string (macro literal)
  int lane;
  double ts_us;
  double dur_us;
};

// Records spans and renders them as Chrome trace-event JSON. Start()
// installs the session as the global recipient of GUM_TRACE_SCOPE spans
// and stamps the wall-clock epoch; Stop() uninstalls it and drains every
// thread buffer (including buffers of threads that have already exited).
// At most one session records at a time (checked).
class TraceSession {
 public:
  TraceSession() = default;
  ~TraceSession();

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  void Start();
  void Stop();
  bool recording() const { return recording_; }

  // Converts the engines' simulated bucket matrix into per-vGPU lanes:
  // iteration k starts at sum of the previous iterations' BSP walls; a
  // device's buckets within an iteration are laid out back to back in
  // category order. Zero buckets emit nothing.
  void AddSimulatedTimeline(const sim::Timeline& timeline);

  // Adds one host span explicitly (tests and non-RAII call sites).
  // Timestamps are µs since the session epoch.
  void AddHostSpan(int lane, const char* static_name, double ts_us,
                   double dur_us);

  // Chrome trace-event JSON: {"displayTimeUnit": "ms", "traceEvents": [...]}.
  // Host spans sort by (lane, ts); simulated spans by (device, ts). The
  // output for a fixed set of spans is byte-deterministic.
  void WriteChromeTrace(std::ostream& os) const;

  size_t host_span_count() const { return host_spans_.size(); }

 private:
  struct SimSpan {
    int device;
    int iteration;
    int category;
    double ts_us;
    double dur_us;
  };

  bool recording_ = false;
  std::vector<HostSpan> host_spans_;
  std::vector<SimSpan> sim_spans_;
  // (lane, display name) pairs gathered from thread buffers at Stop.
  std::vector<std::pair<int, std::string>> retired_lane_names_;
  int sim_devices_ = 0;
};

// Records a zero-duration point event on the calling thread's lane — fault
// plane markers (fail-stop detection, checkpoint, recovery) and similar
// instants. `name` must have static storage duration. No-op (one relaxed
// load) unless a session is recording.
void TraceInstant(const char* name);

// RAII host-clock span recorder. `name` must have static storage duration
// (pass a string literal).
class ScopedTrace {
 public:
  explicit ScopedTrace(const char* name) {
    if (TracingEnabled()) Begin(name);
  }
  ~ScopedTrace() {
    if (name_ != nullptr) End();
  }

  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

 private:
  void Begin(const char* name);
  void End();

  const char* name_ = nullptr;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace gum::obs

// Same token-paste helpers as common/status.h (identical redefinition is
// well-formed), so this header stays self-contained.
#ifndef GUM_CONCAT
#define GUM_CONCAT_IMPL(a, b) a##b
#define GUM_CONCAT(a, b) GUM_CONCAT_IMPL(a, b)
#endif

#define GUM_TRACE_SCOPE(name) \
  ::gum::obs::ScopedTrace GUM_CONCAT(_gum_trace_scope_, __LINE__)(name)

#endif  // GUM_OBS_TRACE_H_
