// Tiny command-line flag parser for benches and examples.
//
// Accepts "--name=value", "--name value" and bare "--name" (boolean
// true). A repeated flag keeps its last value for the scalar getters
// (historical behavior) and every value, in order, for GetStrings
// (repeatable flags like glbsim's --tenant). Nothing checks names:
// a flag no caller reads is silently ignored, so a typo'd or retired
// flag leaves the default in place and the run still exits 0.
// Rejecting unknown flags needs a declared per-binary flag schema
// (ROADMAP.md item 7).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace glb {

class Flags {
 public:
  Flags(int argc, char** argv);

  bool Has(const std::string& name) const { return values_.count(name) > 0; }

  std::string GetString(const std::string& name, std::string def) const;
  std::int64_t GetInt(const std::string& name, std::int64_t def) const;
  double GetDouble(const std::string& name, double def) const;
  bool GetBool(const std::string& name, bool def) const;

  /// Every occurrence of a repeatable flag, in command-line order
  /// (empty when the flag was never passed).
  std::vector<std::string> GetStrings(const std::string& name) const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  /// Every (name, value) occurrence in command-line order.
  std::vector<std::pair<std::string, std::string>> ordered_;
  std::vector<std::string> positional_;
};

}  // namespace glb
