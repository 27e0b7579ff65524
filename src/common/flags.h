// Minimal --key=value command-line flag parser for the CLI tools.
//
// Supported forms: --name=value, --name value, bare --name (boolean true),
// and positional arguments. "--" ends flag parsing. Unknown-flag validation
// is the caller's job via KnownFlagsOnly().

#ifndef GUM_COMMON_FLAGS_H_
#define GUM_COMMON_FLAGS_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace gum {

class FlagParser {
 public:
  FlagParser(int argc, const char* const* argv);

  bool Has(const std::string& name) const;

  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  int64_t GetInt(const std::string& name, int64_t default_value) const;
  double GetDouble(const std::string& name, double default_value) const;
  // Bare "--name" and "--name=true/1/yes/on" are true; "=false/0/no/off"
  // false; anything else falls back to the default.
  bool GetBool(const std::string& name, bool default_value) const;
  // Enumerated flag: the default when absent; InvalidArgument naming the
  // flag, the offending value, and the allowed set when present with a
  // value outside `allowed`. Use this for every closed-vocabulary flag so
  // typos fail loudly instead of silently falling back.
  Result<std::string> GetEnum(const std::string& name,
                              const std::string& default_value,
                              const std::vector<std::string>& allowed) const;
  // Comma-separated integer list: the default when absent; InvalidArgument
  // naming the flag and the offending token on any malformed element
  // (empty token, trailing comma, non-integer) — same strictness
  // convention as GetEnum, so "--sources=3,x,7" fails loudly.
  Result<std::vector<int64_t>> GetIntList(
      const std::string& name, std::vector<int64_t> default_value) const;
  // Ranged integer flag: the default when absent; InvalidArgument naming
  // the flag, the offending value, and the range when present with a value
  // that is not a whole integer in [min_value, max_value] (so
  // "--devices=abc" and "--scale=-3" fail loudly instead of running).
  Result<int64_t> GetIntInRange(const std::string& name,
                                int64_t default_value, int64_t min_value,
                                int64_t max_value) const;
  // Ranged floating-point flag, same contract as GetIntInRange: the whole
  // value must parse as a finite number in [min_value, max_value] (so
  // "--steal-prob=abc", "--epsilon=nan" and "--edge-factor=-2" fail loudly).
  Result<double> GetDoubleInRange(const std::string& name,
                                  double default_value, double min_value,
                                  double max_value) const;

  const std::vector<std::string>& positional() const { return positional_; }

  // InvalidArgument listing any parsed flag not in `known`.
  Status KnownFlagsOnly(const std::vector<std::string>& known) const;

 private:
  std::map<std::string, std::string> flags_;  // name -> raw value ("" = bare)
  std::vector<std::string> positional_;
};

}  // namespace gum

#endif  // GUM_COMMON_FLAGS_H_
