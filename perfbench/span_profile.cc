#include "span_profile.h"

#include <algorithm>
#include <sstream>
#include <string_view>
#include <vector>

#include "common/json.h"

namespace perfbench {

namespace {

constexpr int kHostPid = 2;  // obs/trace.cc: host runtime process
constexpr int kMainLane = 0;

struct Span {
  std::string name;
  int lane = 0;
  double ts_us = 0.0;
  double dur_us = 0.0;
  double end() const { return ts_us + dur_us; }
};

bool IsLayer(std::string_view name) {
  if (name.substr(0, 6) == "bench.") return true;
  for (const char* phase : kPhaseLayers) {
    if (name == phase) return true;
  }
  return false;
}

// Total length of the union of [start, end) windows.
double UnionLength(std::vector<std::pair<double, double>> windows) {
  std::sort(windows.begin(), windows.end());
  double total = 0.0;
  double cur_start = 0.0;
  double cur_end = -1.0;
  for (const auto& [s, e] : windows) {
    if (s > cur_end) {
      if (cur_end > cur_start) total += cur_end - cur_start;
      cur_start = s;
      cur_end = e;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  if (cur_end > cur_start) total += cur_end - cur_start;
  return total;
}

}  // namespace

void QueryProfile::Scale(double factor) {
  for (auto& [name, ms] : self_ms) ms *= factor;
  run_ms *= factor;
  unspanned_ms *= factor;
  solve_ms *= factor;
  pool_busy_ms *= factor;
  parallel_ms *= factor;
}

gum::Result<QueryProfile> ProfileSession(const gum::obs::TraceSession& session,
                                         int query) {
  std::ostringstream os;
  session.WriteChromeTrace(os);
  GUM_ASSIGN_OR_RETURN(const gum::JsonValue doc, gum::ParseJson(os.str()));
  const gum::JsonValue* events = doc.Find("traceEvents");
  if (events == nullptr) {
    return gum::Status::Internal("trace export has no traceEvents");
  }

  std::vector<Span> spans;
  for (const gum::JsonValue& ev : events->array()) {
    const gum::JsonValue* ph = ev.Find("ph");
    const gum::JsonValue* pid = ev.Find("pid");
    if (ph == nullptr || ph->string_value() != "X" || pid == nullptr ||
        pid->int_value() != kHostPid) {
      continue;
    }
    spans.push_back(Span{ev.at("name").string_value(),
                         static_cast<int>(ev.at("tid").int_value()),
                         ev.at("ts").number(), ev.at("dur").number()});
  }
  // Parents before children: earlier start first, longer first on ties.
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.lane != b.lane) return a.lane < b.lane;
    if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
    return a.dur_us > b.dur_us;
  });

  QueryProfile p;
  p.query = query;
  double run_start = 0.0;
  double run_end = 0.0;

  // Main-lane layer nesting: a stack of open layer spans and the time
  // their nearest layer children cover.
  struct Open {
    const Span* span;
    double child_us;
  };
  std::vector<Open> stack;
  const auto close = [&](const Open& o) {
    const double self_ms = (o.span->dur_us - o.child_us) / 1e3;
    p.self_ms[o.span->name] += self_ms;
    if (o.span->name == "bench.run") {
      p.run_ms += o.span->dur_us / 1e3;
      p.unspanned_ms += self_ms;
      run_start = o.span->ts_us;
      run_end = o.span->end();
    }
  };
  std::vector<std::pair<double, double>> busy_windows;
  for (const Span& s : spans) {
    ++p.span_counts[s.name];
    if (s.name == "solver.steal_problem") {
      ++p.solves;
      p.solve_ms += s.dur_us / 1e3;
    }
    if (s.name == "pool.busy") {
      p.pool_busy_ms += s.dur_us / 1e3;
      busy_windows.emplace_back(s.ts_us, s.end());
    }
    if (s.lane != kMainLane || !IsLayer(s.name)) continue;
    while (!stack.empty() && stack.back().span->end() <= s.ts_us) {
      close(stack.back());
      stack.pop_back();
    }
    if (!stack.empty()) stack.back().child_us += s.dur_us;
    stack.push_back(Open{&s, 0.0});
  }
  while (!stack.empty()) {
    close(stack.back());
    stack.pop_back();
  }

  // Parallel regions: pool.busy windows (any lane) clipped to bench.run.
  std::vector<std::pair<double, double>> clipped;
  for (const auto& [s, e] : busy_windows) {
    const double cs = std::max(s, run_start);
    const double ce = std::min(e, run_end);
    if (ce > cs) clipped.emplace_back(cs, ce);
  }
  p.parallel_ms = UnionLength(std::move(clipped)) / 1e3;
  return p;
}

}  // namespace perfbench
