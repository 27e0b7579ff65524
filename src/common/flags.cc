#include "common/flags.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>

namespace gum {

FlagParser::FlagParser(int argc, const char* const* argv) {
  bool flags_done = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (flags_done || arg.size() < 3 || arg.substr(0, 2) != "--") {
      if (arg == "--") {
        flags_done = true;
        continue;
      }
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      flags_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // "--name value" when the next token is not itself a flag.
    if (i + 1 < argc && std::string(argv[i + 1]).substr(0, 2) != "--") {
      flags_[body] = argv[++i];
    } else {
      flags_[body] = "";  // bare boolean
    }
  }
}

bool FlagParser::Has(const std::string& name) const {
  return flags_.count(name) > 0;
}

std::string FlagParser::GetString(const std::string& name,
                                  const std::string& default_value) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? default_value : it->second;
}

int64_t FlagParser::GetInt(const std::string& name,
                           int64_t default_value) const {
  const auto it = flags_.find(name);
  if (it == flags_.end() || it->second.empty()) return default_value;
  char* end = nullptr;
  const long long value = std::strtoll(it->second.c_str(), &end, 10);
  return (end == nullptr || *end != '\0') ? default_value : value;
}

double FlagParser::GetDouble(const std::string& name,
                             double default_value) const {
  const auto it = flags_.find(name);
  if (it == flags_.end() || it->second.empty()) return default_value;
  char* end = nullptr;
  const double value = std::strtod(it->second.c_str(), &end);
  return (end == nullptr || *end != '\0') ? default_value : value;
}

bool FlagParser::GetBool(const std::string& name, bool default_value) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return default_value;
  const std::string& v = it->second;
  if (v.empty() || v == "true" || v == "1" || v == "yes" || v == "on") {
    return true;
  }
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  return default_value;
}

Result<std::string> FlagParser::GetEnum(
    const std::string& name, const std::string& default_value,
    const std::vector<std::string>& allowed) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return default_value;
  if (std::find(allowed.begin(), allowed.end(), it->second) !=
      allowed.end()) {
    return it->second;
  }
  std::string expected;
  for (const std::string& v : allowed) {
    if (!expected.empty()) expected += "|";
    expected += v;
  }
  return Status::InvalidArgument("unknown value '" + it->second +
                                 "' for --" + name + " (expected " +
                                 expected + ")");
}

Result<std::vector<int64_t>> FlagParser::GetIntList(
    const std::string& name, std::vector<int64_t> default_value,
    int64_t min_value, int64_t max_value) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return default_value;
  const std::string& raw = it->second;
  const bool ranged = min_value > std::numeric_limits<int64_t>::min() ||
                      max_value < std::numeric_limits<int64_t>::max();
  const auto bad = [&](const std::string& token) {
    return Status::InvalidArgument(
        "bad integer '" + token + "' in --" + name + "=" + raw +
        " (expected comma-separated integers" +
        (ranged ? " in [" + std::to_string(min_value) + ", " +
                      std::to_string(max_value) + "]"
                : "") +
        ")");
  };
  std::vector<int64_t> values;
  size_t start = 0;
  // A trailing comma yields a final empty token, rejected like any other.
  while (start <= raw.size()) {
    size_t comma = raw.find(',', start);
    if (comma == std::string::npos) comma = raw.size();
    const std::string token = raw.substr(start, comma - start);
    char* end = nullptr;
    const long long value = std::strtoll(token.c_str(), &end, 10);
    if (token.empty() || end == nullptr || *end != '\0' ||
        value < min_value || value > max_value) {
      return bad(token);
    }
    values.push_back(value);
    start = comma + 1;
  }
  return values;
}

Result<int64_t> FlagParser::GetIntInRange(const std::string& name,
                                          int64_t default_value,
                                          int64_t min_value,
                                          int64_t max_value) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return default_value;
  const std::string& raw = it->second;
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(raw.c_str(), &end, 10);
  if (raw.empty() || end == nullptr || *end != '\0' || errno == ERANGE ||
      value < min_value || value > max_value) {
    return Status::InvalidArgument(
        "bad value '" + raw + "' for --" + name + " (expected an integer in [" +
        std::to_string(min_value) + ", " + std::to_string(max_value) + "])");
  }
  return value;
}

Result<double> FlagParser::GetDoubleInRange(const std::string& name,
                                            double default_value,
                                            double min_value,
                                            double max_value) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return default_value;
  const std::string& raw = it->second;
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(raw.c_str(), &end);
  if (raw.empty() || end == nullptr || *end != '\0' || errno == ERANGE ||
      !std::isfinite(value) || value < min_value || value > max_value) {
    std::ostringstream msg;
    msg << "bad value '" << raw << "' for --" << name
        << " (expected a number in [" << min_value << ", " << max_value
        << "])";
    return Status::InvalidArgument(msg.str());
  }
  return value;
}

Status FlagParser::KnownFlagsOnly(
    const std::vector<std::string>& known) const {
  std::string unknown;
  for (const auto& [name, value] : flags_) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      if (!unknown.empty()) unknown += ", ";
      unknown += "--" + name;
    }
  }
  if (!unknown.empty()) {
    return Status::InvalidArgument("unknown flags: " + unknown);
  }
  return Status::OK();
}

}  // namespace gum
