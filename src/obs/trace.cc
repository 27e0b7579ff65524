#include "obs/trace.h"

#include <algorithm>
#include <mutex>

#include "common/json.h"
#include "common/logging.h"
#include "sim/timeline.h"

namespace gum::obs {

namespace internal {
std::atomic<bool> g_tracing_enabled{false};
}  // namespace internal

namespace {

// Per-thread span buffer. Appends are lock-free (only the owning thread
// writes); the global registry below is touched only on first use, at
// thread exit, and at session start/stop.
struct ThreadBuffer {
  int lane = 0;
  std::string name = "host-main";
  std::vector<HostSpan> spans;

  ThreadBuffer();
  ~ThreadBuffer();
};

struct Registry {
  std::mutex mu;
  std::vector<ThreadBuffer*> live;
  // Spans of threads that exited mid-session (pool teardown happens before
  // the CLI exports), plus their lane names.
  std::vector<HostSpan> retired_spans;
  std::vector<std::pair<int, std::string>> lane_names;  // lane -> name
  TraceSession* active = nullptr;
  std::chrono::steady_clock::time_point epoch;
};

Registry& GetRegistry() {
  static Registry* r = new Registry;
  return *r;
}

ThreadBuffer& GetThreadBuffer() {
  static thread_local ThreadBuffer buffer;
  return buffer;
}

ThreadBuffer::ThreadBuffer() {
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.live.push_back(this);
}

ThreadBuffer::~ThreadBuffer() {
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.live.erase(std::remove(r.live.begin(), r.live.end(), this),
               r.live.end());
  if (!spans.empty()) {
    r.retired_spans.insert(r.retired_spans.end(), spans.begin(),
                           spans.end());
    r.lane_names.emplace_back(lane, name);
  }
}

void RecordLaneNameLocked(Registry& r, int lane, const std::string& name) {
  for (auto& [l, n] : r.lane_names) {
    if (l == lane) {
      n = name;
      return;
    }
  }
  r.lane_names.emplace_back(lane, name);
}

const char* SimCategoryName(int category) {
  return sim::TimeCategoryName(static_cast<sim::TimeCategory>(category));
}

}  // namespace

void SetThreadLane(int lane, const std::string& name) {
  ThreadBuffer& buf = GetThreadBuffer();
  buf.lane = lane;
  buf.name = name;
}

void ScopedTrace::Begin(const char* name) {
  name_ = name;
  start_ = std::chrono::steady_clock::now();
}

void ScopedTrace::End() {
  const auto end = std::chrono::steady_clock::now();
  // Re-check: the session may have stopped between Begin and End; dropping
  // the span is better than appending to a drained buffer.
  if (!TracingEnabled()) return;
  Registry& r = GetRegistry();
  ThreadBuffer& buf = GetThreadBuffer();
  const double ts_us =
      std::chrono::duration<double, std::micro>(start_ - r.epoch).count();
  const double dur_us =
      std::chrono::duration<double, std::micro>(end - start_).count();
  buf.spans.push_back(HostSpan{name_, buf.lane, ts_us, dur_us});
}

void TraceInstant(const char* name) {
  if (!TracingEnabled()) return;
  Registry& r = GetRegistry();
  ThreadBuffer& buf = GetThreadBuffer();
  const double ts_us = std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() - r.epoch)
                           .count();
  buf.spans.push_back(HostSpan{name, buf.lane, ts_us, 0.0});
}

TraceSession::~TraceSession() {
  if (recording_) Stop();
}

void TraceSession::Start() {
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  GUM_CHECK(r.active == nullptr) << "a TraceSession is already recording";
  r.active = this;
  r.epoch = std::chrono::steady_clock::now();
  r.retired_spans.clear();
  r.lane_names.clear();
  for (ThreadBuffer* buf : r.live) buf->spans.clear();
  recording_ = true;
  internal::g_tracing_enabled.store(true, std::memory_order_relaxed);
}

void TraceSession::Stop() {
  Registry& r = GetRegistry();
  internal::g_tracing_enabled.store(false, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(r.mu);
  GUM_CHECK(r.active == this) << "TraceSession::Stop without Start";
  // Live buffers are only appended to by their owning threads, and those
  // threads observe g_tracing_enabled == false before touching them again;
  // by the time the session owner calls Stop, pool generations have
  // completed (ParallelFor is synchronous), so the drain is quiescent.
  for (ThreadBuffer* buf : r.live) {
    host_spans_.insert(host_spans_.end(), buf->spans.begin(),
                       buf->spans.end());
    if (!buf->spans.empty()) RecordLaneNameLocked(r, buf->lane, buf->name);
    buf->spans.clear();
  }
  host_spans_.insert(host_spans_.end(), r.retired_spans.begin(),
                     r.retired_spans.end());
  retired_lane_names_ = r.lane_names;
  r.retired_spans.clear();
  r.lane_names.clear();
  r.active = nullptr;
  recording_ = false;
}

void TraceSession::AddHostSpan(int lane, const char* static_name,
                               double ts_us, double dur_us) {
  host_spans_.push_back(HostSpan{static_name, lane, ts_us, dur_us});
}

void TraceSession::AddSimulatedTimeline(const sim::Timeline& timeline) {
  sim_devices_ = std::max(sim_devices_, timeline.num_devices());
  double iter_start_ms = 0.0;
  for (int iter = 0; iter < timeline.num_iterations(); ++iter) {
    for (int d = 0; d < timeline.num_devices(); ++d) {
      double offset_ms = iter_start_ms;
      for (int c = 0; c < sim::kNumTimeCategories; ++c) {
        const double ms =
            timeline.Get(iter, d, static_cast<sim::TimeCategory>(c));
        if (ms <= 0.0) continue;
        sim_spans_.push_back(
            SimSpan{d, iter, c, offset_ms * 1000.0, ms * 1000.0});
        offset_ms += ms;
      }
    }
    iter_start_ms += timeline.IterationWall(iter);
  }
}

void TraceSession::WriteChromeTrace(std::ostream& os) const {
  // Stable lane-major order so identical span sets export byte-identically.
  std::vector<SimSpan> sim = sim_spans_;
  std::stable_sort(sim.begin(), sim.end(),
                   [](const SimSpan& a, const SimSpan& b) {
                     if (a.device != b.device) return a.device < b.device;
                     return a.ts_us < b.ts_us;
                   });
  std::vector<HostSpan> host = host_spans_;
  std::stable_sort(host.begin(), host.end(),
                   [](const HostSpan& a, const HostSpan& b) {
                     if (a.lane != b.lane) return a.lane < b.lane;
                     return a.ts_us < b.ts_us;
                   });

  constexpr int kSimPid = 1;
  constexpr int kHostPid = 2;

  JsonWriter w(os, 1);
  w.BeginObject();
  w.Key("displayTimeUnit").Value("ms");
  w.Key("traceEvents").BeginArray();

  const auto metadata = [&](int pid, int tid, const char* what,
                            const std::string& name) {
    w.BeginObject();
    w.Key("ph").Value("M");
    w.Key("pid").Value(pid);
    if (tid >= 0) w.Key("tid").Value(tid);
    w.Key("name").Value(what);
    w.Key("args").BeginObject();
    w.Key("name").Value(name);
    w.EndObject();
    w.EndObject();
  };

  metadata(kSimPid, -1, "process_name", "simulated devices (vGPU lanes)");
  for (int d = 0; d < sim_devices_; ++d) {
    metadata(kSimPid, d, "thread_name", "vGPU " + std::to_string(d));
  }
  metadata(kHostPid, -1, "process_name", "host runtime (wall clock)");
  // Named lanes first (pool workers / main), then any unnamed lanes that
  // carried spans.
  std::vector<std::pair<int, std::string>> lanes = retired_lane_names_;
  std::sort(lanes.begin(), lanes.end());
  for (const auto& [lane, name] : lanes) {
    metadata(kHostPid, lane, "thread_name", name);
  }

  for (const SimSpan& s : sim) {
    w.BeginObject();
    w.Key("ph").Value("X");
    w.Key("pid").Value(kSimPid);
    w.Key("tid").Value(s.device);
    w.Key("name").Value(SimCategoryName(s.category));
    w.Key("ts").Value(s.ts_us);
    w.Key("dur").Value(s.dur_us);
    w.Key("args").BeginObject();
    w.Key("iteration").Value(s.iteration);
    w.EndObject();
    w.EndObject();
  }
  for (const HostSpan& s : host) {
    w.BeginObject();
    w.Key("ph").Value("X");
    w.Key("pid").Value(kHostPid);
    w.Key("tid").Value(s.lane);
    w.Key("name").Value(s.name);
    w.Key("ts").Value(s.ts_us);
    w.Key("dur").Value(s.dur_us);
    w.EndObject();
  }

  w.EndArray();
  w.EndObject();
  os << "\n";
}

}  // namespace gum::obs
