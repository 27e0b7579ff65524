#include "fault/fault_plane.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/random.h"

namespace gum::fault {
namespace {

// Splits on `sep`, trimming surrounding spaces; empty pieces dropped.
std::vector<std::string> SplitTrim(const std::string& s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    size_t pos = s.find(sep, start);
    if (pos == std::string::npos) pos = s.size();
    std::string piece = s.substr(start, pos - start);
    const size_t a = piece.find_first_not_of(" \t");
    const size_t b = piece.find_last_not_of(" \t");
    if (a != std::string::npos) out.push_back(piece.substr(a, b - a + 1));
    start = pos + 1;
  }
  return out;
}

bool ParseInt(const std::string& s, int* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const long v = std::strtol(s.c_str(), &end, 10);
  if (end != s.c_str() + s.size()) return false;
  *out = static_cast<int>(v);
  return true;
}

bool ParseDouble(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

Status BadEvent(const std::string& event, const std::string& why) {
  return Status::InvalidArgument("bad fault event '" + event + "': " + why);
}

// "<a>-<b>" into two ints.
bool ParsePair(const std::string& s, int* a, int* b) {
  const size_t dash = s.find('-');
  if (dash == std::string::npos) return false;
  return ParseInt(s.substr(0, dash), a) && ParseInt(s.substr(dash + 1), b);
}

std::string FormatFactor(double f) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", f);
  return buf;
}

}  // namespace

std::string FaultEvent::Describe() const {
  char buf[96];
  switch (kind) {
    case FaultKind::kFailStop:
      std::snprintf(buf, sizeof(buf), "failstop:%d@%d", device, begin);
      return buf;
    case FaultKind::kStraggler:
      std::snprintf(buf, sizeof(buf), "straggler:%d@%d-%d", device, begin,
                    end);
      return std::string(buf) + "x" + FormatFactor(factor);
    case FaultKind::kLinkDegrade:
      std::snprintf(buf, sizeof(buf), "degrade:%d-%d@%d-%d", link_a, link_b,
                    begin, end);
      return std::string(buf) + "x" + FormatFactor(factor);
    case FaultKind::kLinkDown:
      std::snprintf(buf, sizeof(buf), "linkdown:%d-%d@%d-%d", link_a, link_b,
                    begin, end);
      return buf;
    case FaultKind::kLinkFlap:
      std::snprintf(buf, sizeof(buf), "flap:%d-%d@%d-%d/%d", link_a, link_b,
                    begin, end, period);
      return buf;
  }
  return "unknown";
}

Result<FaultPlan> FaultPlan::Parse(const std::string& spec) {
  FaultPlan plan;
  if (spec.empty() || spec == "none") return plan;
  if (spec == "chaos") {
    plan.chaos_ = true;
    return plan;
  }
  for (const std::string& piece : SplitTrim(spec, ';')) {
    const size_t colon = piece.find(':');
    if (colon == std::string::npos) {
      return BadEvent(piece, "expected '<kind>:<spec>'");
    }
    const std::string kind = piece.substr(0, colon);
    const std::string body = piece.substr(colon + 1);
    const size_t at = body.find('@');
    if (at == std::string::npos) {
      return BadEvent(piece, "expected '<target>@<iterations>'");
    }
    const std::string target = body.substr(0, at);
    const std::string when = body.substr(at + 1);
    FaultEvent ev;
    if (kind == "failstop") {
      ev.kind = FaultKind::kFailStop;
      if (!ParseInt(target, &ev.device)) {
        return BadEvent(piece, "bad device id '" + target + "'");
      }
      if (!ParseInt(when, &ev.begin)) {
        return BadEvent(piece, "bad iteration '" + when + "'");
      }
      ev.end = ev.begin;
    } else if (kind == "straggler") {
      ev.kind = FaultKind::kStraggler;
      if (!ParseInt(target, &ev.device)) {
        return BadEvent(piece, "bad device id '" + target + "'");
      }
      const size_t x = when.find('x');
      if (x == std::string::npos ||
          !ParsePair(when.substr(0, x), &ev.begin, &ev.end) ||
          !ParseDouble(when.substr(x + 1), &ev.factor)) {
        return BadEvent(piece, "expected '<first>-<last>x<factor>'");
      }
      if (ev.factor < 1.0) {
        return BadEvent(piece, "straggler factor must be >= 1");
      }
    } else if (kind == "degrade" || kind == "linkdown" || kind == "flap") {
      if (!ParsePair(target, &ev.link_a, &ev.link_b)) {
        return BadEvent(piece, "bad link pair '" + target + "'");
      }
      if (kind == "degrade") {
        ev.kind = FaultKind::kLinkDegrade;
        const size_t x = when.find('x');
        if (x == std::string::npos ||
            !ParsePair(when.substr(0, x), &ev.begin, &ev.end) ||
            !ParseDouble(when.substr(x + 1), &ev.factor)) {
          return BadEvent(piece, "expected '<first>-<last>x<scale>'");
        }
        if (ev.factor < 0.0 || ev.factor >= 1.0) {
          return BadEvent(piece, "link scale must be in [0, 1)");
        }
      } else if (kind == "linkdown") {
        ev.kind = FaultKind::kLinkDown;
        ev.factor = 0.0;
        if (!ParsePair(when, &ev.begin, &ev.end)) {
          return BadEvent(piece, "expected '<first>-<last>'");
        }
      } else {
        ev.kind = FaultKind::kLinkFlap;
        ev.factor = 0.0;
        const size_t slash = when.find('/');
        if (slash == std::string::npos ||
            !ParsePair(when.substr(0, slash), &ev.begin, &ev.end) ||
            !ParseInt(when.substr(slash + 1), &ev.period)) {
          return BadEvent(piece, "expected '<first>-<last>/<period>'");
        }
        if (ev.period < 1) return BadEvent(piece, "flap period must be >= 1");
      }
    } else {
      return BadEvent(piece,
                      "unknown kind '" + kind +
                          "' (expected failstop|straggler|degrade|linkdown|"
                          "flap, or the plan literals none|chaos)");
    }
    if (ev.begin < 0 || ev.end < ev.begin) {
      return BadEvent(piece, "bad iteration range");
    }
    plan.events_.push_back(ev);
  }
  return plan;
}

namespace {

// Deterministic chaos mix: one fail-stop, one straggler window, and one
// link fault, all drawn from (seed, n). Iteration numbers stay small so
// short smoke runs actually cross the faults.
std::vector<FaultEvent> ChaosEvents(int n, uint64_t seed) {
  Rng rng(seed ^ (0x5eedc4a05ULL + static_cast<uint64_t>(n) * 0x9e37ULL));
  std::vector<FaultEvent> events;
  if (n > 1) {
    FaultEvent fail;
    fail.kind = FaultKind::kFailStop;
    fail.device = static_cast<int>(rng.NextBounded(n));
    fail.begin = fail.end = 1 + static_cast<int>(rng.NextBounded(4));
    events.push_back(fail);

    FaultEvent slow;
    slow.kind = FaultKind::kStraggler;
    // A different device than the failed one, so both faults matter.
    slow.device = static_cast<int>(rng.NextBounded(n - 1));
    if (slow.device >= fail.device) ++slow.device;
    slow.begin = static_cast<int>(rng.NextBounded(3));
    slow.end = slow.begin + 1 + static_cast<int>(rng.NextBounded(3));
    slow.factor = 1.5 + rng.NextDouble() * 2.0;
    events.push_back(slow);

    FaultEvent link;
    link.kind = rng.NextBernoulli(0.5) ? FaultKind::kLinkDown
                                       : FaultKind::kLinkDegrade;
    link.link_a = static_cast<int>(rng.NextBounded(n));
    link.link_b = static_cast<int>(rng.NextBounded(n - 1));
    if (link.link_b >= link.link_a) ++link.link_b;
    link.begin = static_cast<int>(rng.NextBounded(3));
    link.end = link.begin + 1 + static_cast<int>(rng.NextBounded(4));
    link.factor =
        link.kind == FaultKind::kLinkDown ? 0.0 : 0.1 + rng.NextDouble() * 0.4;
    events.push_back(link);
  } else {
    FaultEvent slow;
    slow.kind = FaultKind::kStraggler;
    slow.device = 0;
    slow.begin = static_cast<int>(rng.NextBounded(3));
    slow.end = slow.begin + 1 + static_cast<int>(rng.NextBounded(3));
    slow.factor = 1.5 + rng.NextDouble() * 2.0;
    events.push_back(slow);
  }
  return events;
}

}  // namespace

Result<FaultPlane> FaultPlane::Create(const FaultPlan& plan, int num_devices,
                                      uint64_t seed) {
  if (num_devices < 1) {
    return Status::InvalidArgument("fault plane needs >= 1 device");
  }
  FaultPlane plane;
  plane.num_devices_ = num_devices;
  plane.events_ =
      plan.chaos_ ? ChaosEvents(num_devices, seed) : plan.events_;
  std::vector<bool> fail_stopped(num_devices, false);
  for (const FaultEvent& ev : plane.events_) {
    const bool device_kind = ev.kind == FaultKind::kFailStop ||
                             ev.kind == FaultKind::kStraggler;
    if (device_kind) {
      if (ev.device < 0 || ev.device >= num_devices) {
        return BadEvent(ev.Describe(), "device id out of range");
      }
      if (ev.kind == FaultKind::kFailStop) fail_stopped[ev.device] = true;
    } else {
      if (ev.link_a < 0 || ev.link_a >= num_devices || ev.link_b < 0 ||
          ev.link_b >= num_devices) {
        return BadEvent(ev.Describe(), "link endpoint out of range");
      }
      if (ev.link_a == ev.link_b) {
        return BadEvent(ev.Describe(), "link endpoints must differ");
      }
    }
  }
  if (std::all_of(fail_stopped.begin(), fail_stopped.end(),
                  [](bool b) { return b; })) {
    return Status::InvalidArgument(
        "fault plan fail-stops every device; at least one must survive");
  }
  return plane;
}

std::vector<int> FaultPlane::FailuresAt(int iter) const {
  std::vector<int> out;
  for (const FaultEvent& ev : events_) {
    if (ev.kind == FaultKind::kFailStop && ev.begin == iter) {
      out.push_back(ev.device);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool FaultPlane::AnyFailStop() const {
  for (const FaultEvent& ev : events_) {
    if (ev.kind == FaultKind::kFailStop) return true;
  }
  return false;
}

double FaultPlane::ComputeSlowdown(int device, int iter) const {
  double factor = 1.0;
  for (const FaultEvent& ev : events_) {
    if (ev.kind == FaultKind::kStraggler && ev.device == device &&
        iter >= ev.begin && iter <= ev.end) {
      factor *= ev.factor;
    }
  }
  return factor;
}

double FaultPlane::LinkScale(int a, int b, int iter) const {
  double scale = 1.0;
  for (const FaultEvent& ev : events_) {
    const bool matches = (ev.link_a == a && ev.link_b == b) ||
                         (ev.link_a == b && ev.link_b == a);
    if (!matches || iter < ev.begin || iter > ev.end) continue;
    switch (ev.kind) {
      case FaultKind::kLinkDegrade:
        scale *= ev.factor;
        break;
      case FaultKind::kLinkDown:
        scale = 0.0;
        break;
      case FaultKind::kLinkFlap:
        // Down for the first `period` iterations of the window, up for the
        // next `period`, and so on.
        if (((iter - ev.begin) / ev.period) % 2 == 0) scale = 0.0;
        break;
      default:
        break;
    }
  }
  return scale;
}

std::vector<FaultPlane::LinkFault> FaultPlane::LinkFaultsAt(int iter) const {
  std::vector<LinkFault> out;
  for (int a = 0; a < num_devices_; ++a) {
    for (int b = a + 1; b < num_devices_; ++b) {
      const double scale = LinkScale(a, b, iter);
      if (scale < 1.0) out.push_back(LinkFault{a, b, scale});
    }
  }
  return out;
}

std::string FaultPlane::Describe() const {
  if (events_.empty()) return "none";
  std::string out;
  for (const FaultEvent& ev : events_) {
    if (!out.empty()) out += ";";
    out += ev.Describe();
  }
  return out;
}

}  // namespace gum::fault
