#include "common/flags.h"

#include <cerrno>
#include <cstdlib>
#include <iostream>
#include <string_view>

namespace glb {

namespace {
[[noreturn]] void BadValue(const std::string& name, const std::string& value) {
  std::cerr << "bad value for --" << name << ": '" << value << "'\n";
  std::exit(2);
}
}  // namespace

bool ParseInt64(const std::string& text, std::int64_t* out) {
  char* end = nullptr;
  errno = 0;
  const long long n = std::strtoll(text.c_str(), &end, 0);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE) return false;
  *out = n;
  return true;
}

bool ParseUint64(const std::string& text, std::uint64_t* out) {
  // strtoull negates a leading '-' silently; a count has no sign.
  if (text.find('-') != std::string::npos) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long n = std::strtoull(text.c_str(), &end, 0);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE) return false;
  *out = n;
  return true;
}

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    auto eq = arg.find('=');
    std::string name;
    std::string value;
    if (eq != std::string_view::npos) {
      name = std::string(arg.substr(0, eq));
      value = std::string(arg.substr(eq + 1));
    } else if (i + 1 < argc && std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
      name = std::string(arg);
      value = argv[++i];
    } else {
      name = std::string(arg);
      value = "true";
    }
    values_[name] = value;
    ordered_.emplace_back(std::move(name), std::move(value));
  }
}

const std::string* Flags::Find(const std::string& name) const {
  read_.insert(name);
  auto it = values_.find(name);
  return it == values_.end() ? nullptr : &it->second;
}

bool Flags::Has(const std::string& name) const { return Find(name) != nullptr; }

std::vector<std::string> Flags::GetStrings(const std::string& name) const {
  read_.insert(name);
  std::vector<std::string> out;
  for (const auto& [n, v] : ordered_) {
    if (n == name) out.push_back(v);
  }
  return out;
}

std::string Flags::GetString(const std::string& name, std::string def) const {
  const std::string* v = Find(name);
  return v == nullptr ? def : *v;
}

std::int64_t Flags::GetInt(const std::string& name, std::int64_t def) const {
  const std::string* v = Find(name);
  if (v == nullptr) return def;
  std::int64_t n = 0;
  if (!ParseInt64(*v, &n)) BadValue(name, *v);
  return n;
}

std::uint32_t Flags::GetUint32(const std::string& name, std::uint32_t def) const {
  const std::int64_t n = GetInt(name, def);
  if (n < 0 || n > std::int64_t{UINT32_MAX}) BadValue(name, *Find(name));
  return static_cast<std::uint32_t>(n);
}

std::uint64_t Flags::GetUint64(const std::string& name, std::uint64_t def) const {
  const std::string* v = Find(name);
  if (v == nullptr) return def;
  std::uint64_t n = 0;
  if (!ParseUint64(*v, &n)) BadValue(name, *v);
  return n;
}

double Flags::GetDouble(const std::string& name, double def) const {
  const std::string* v = Find(name);
  if (v == nullptr) return def;
  char* end = nullptr;
  errno = 0;
  const double d = std::strtod(v->c_str(), &end);
  if (end == v->c_str() || *end != '\0' || errno == ERANGE) BadValue(name, *v);
  return d;
}

bool Flags::GetBool(const std::string& name, bool def) const {
  const std::string* v = Find(name);
  if (v == nullptr) return def;
  return *v == "true" || *v == "1" || *v == "yes";
}

std::vector<std::string> Flags::Unread() const {
  std::vector<std::string> out;
  for (const auto& [name, value] : values_) {
    if (read_.count(name) == 0) out.push_back(name);
  }
  return out;
}

}  // namespace glb
