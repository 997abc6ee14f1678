// Tiny command-line flag parser for benches and examples.
//
// Accepts "--name=value", "--name value" and bare "--name" (boolean
// true). A repeated flag keeps its last value for the scalar getters
// (historical behavior) and every value, in order, for GetStrings
// (repeatable flags like glbsim's --tenant). Every getter (and Has)
// records the name it looked up, so a binary that has finished parsing
// can reject what it never read: Unread() lists the passed flags no
// lookup asked for — a typo or a retired flag. Binaries that never
// call it still ignore unknown flags.
//
// Numeric getters parse strictly (base 0 for integers, so 0x10 is
// legal): an empty value, trailing characters or an out-of-range value
// exits 2 with "bad value for --NAME: 'VALUE'", as does a count
// (GetUint32, GetUint64) that is negative or does not fit its width.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace glb {

/// The strict number parsers behind the Flags getters, for number
/// fields inside flag values (--fault_script entries): true with the
/// value when `text` is a whole number of the type in base 0 (so 0x10
/// is legal), false on an empty string, trailing characters or a value
/// out of range. ParseUint64 also refuses any sign: -5 is not 2^64 - 5.
bool ParseInt64(const std::string& text, std::int64_t* out);
bool ParseUint64(const std::string& text, std::uint64_t* out);

class Flags {
 public:
  Flags(int argc, char** argv);

  bool Has(const std::string& name) const;

  std::string GetString(const std::string& name, std::string def) const;
  std::int64_t GetInt(const std::string& name, std::int64_t def) const;
  /// GetInt for a count: a value outside [0, 2^32 - 1] exits 2 too.
  std::uint32_t GetUint32(const std::string& name, std::uint32_t def) const;
  /// A 64-bit count, such as a cycle number: a negative value or one
  /// above 2^64 - 1 exits 2 (a cast of GetInt would wrap -1 around).
  std::uint64_t GetUint64(const std::string& name, std::uint64_t def) const;
  double GetDouble(const std::string& name, double def) const;
  bool GetBool(const std::string& name, bool def) const;

  /// Every occurrence of a repeatable flag, in command-line order
  /// (empty when the flag was never passed).
  std::vector<std::string> GetStrings(const std::string& name) const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Passed flags that no getter or Has has looked up so far, in name
  /// order.
  std::vector<std::string> Unread() const;

 private:
  /// Looks `name` up and records that it was read.
  const std::string* Find(const std::string& name) const;

  std::map<std::string, std::string> values_;
  /// Names looked up so far (passed or not).
  mutable std::set<std::string> read_;
  /// Every (name, value) occurrence in command-line order.
  std::vector<std::pair<std::string, std::string>> ordered_;
  std::vector<std::string> positional_;
};

}  // namespace glb
