#include "fault/fault_model.h"

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <utility>


namespace glb::fault {

const char* ToString(FaultSite site) {
  switch (site) {
    case FaultSite::kGlineDrop: return "gline_drop";
    case FaultSite::kGlineDuplicate: return "gline_dup";
    case FaultSite::kCsmaCorrupt: return "csma_corrupt";
    case FaultSite::kCoreFreeze: return "core_freeze";
    case FaultSite::kNocDelay: return "noc_delay";
    case FaultSite::kNocDrop: return "noc_drop";
    case FaultSite::kCoreSlowdown: return "core_slow";
    case FaultSite::kWorkSkew: return "work_skew";
  }
  return "?";
}

bool FaultSiteFromName(const std::string& name, FaultSite* site) {
  if (name == "gline_drop") *site = FaultSite::kGlineDrop;
  else if (name == "gline_dup") *site = FaultSite::kGlineDuplicate;
  else if (name == "csma" || name == "csma_corrupt") *site = FaultSite::kCsmaCorrupt;
  else if (name == "freeze" || name == "core_freeze") *site = FaultSite::kCoreFreeze;
  else if (name == "noc_delay") *site = FaultSite::kNocDelay;
  else if (name == "noc_drop") *site = FaultSite::kNocDrop;
  else if (name == "slow" || name == "slowdown" || name == "core_slow")
    *site = FaultSite::kCoreSlowdown;
  else if (name == "skew" || name == "work_skew") *site = FaultSite::kWorkSkew;
  else return false;
  return true;
}

namespace {

[[noreturn]] void BadScriptEntry(const std::string& entry, const std::string& why) {
  std::cerr << "bad --fault_script entry '" << entry << "': " << why
            << " (want cycle:site[:target[:magnitude]])\n";
  std::exit(2);
}

/// Parses "cycle:site[:target[:magnitude]],..."; a malformed entry
/// exits 2 and quotes it. The cycle is an unsigned 64-bit count; the
/// magnitude a signed 32-bit one, negative only for an S-CSMA skew.
std::vector<ScriptedFault> ParseScript(const std::string& spec) {
  std::vector<ScriptedFault> script;
  std::istringstream entries(spec);
  std::string entry;
  while (std::getline(entries, entry, ',')) {
    if (entry.empty()) continue;
    std::istringstream fields(entry);
    std::string cycle, site, target, mag, extra;
    if (!std::getline(fields, cycle, ':') || !std::getline(fields, site, ':')) {
      BadScriptEntry(entry, "missing site");
    }
    std::getline(fields, target, ':');
    std::getline(fields, mag, ':');
    if (std::getline(fields, extra)) BadScriptEntry(entry, "too many fields");
    ScriptedFault f;
    if (!ParseUint64(cycle, &f.cycle)) BadScriptEntry(entry, "bad cycle '" + cycle + "'");
    if (!FaultSiteFromName(site, &f.site)) {
      BadScriptEntry(entry, "unknown fault site '" + site +
                                "' (want gline_drop|gline_dup|csma_corrupt|core_freeze|"
                                "noc_delay|noc_drop|core_slow|work_skew)");
    }
    f.target = target;
    if (!mag.empty()) {
      std::int64_t m = 0;
      const std::int64_t lowest = f.site == FaultSite::kCsmaCorrupt ? INT32_MIN : 0;
      if (!ParseInt64(mag, &m) || m < lowest || m > INT32_MAX) {
        BadScriptEntry(entry, "bad magnitude '" + mag + "'");
      }
      f.magnitude = static_cast<std::int32_t>(m);
    }
    script.push_back(std::move(f));
  }
  return script;
}

/// A probability flag (default 0). A value outside [0, 1], NaN
/// included, exits with status 2 before anything is simulated.
double RateFromFlag(const Flags& flags, const std::string& name) {
  const double rate = flags.GetDouble(name, 0.0);
  if (!(rate >= 0.0 && rate <= 1.0)) {
    std::cerr << "bad value for --" << name << ": '" << flags.GetString(name, "")
              << "' (a rate must lie in [0, 1])\n";
    std::exit(2);
  }
  return rate;
}

}  // namespace

FaultPlan PlanFromFlags(const Flags& flags) {
  FaultPlan p;
  p.seed = static_cast<std::uint64_t>(flags.GetInt("fault_seed", 1));
  p.gline_drop_rate = RateFromFlag(flags, "fault_gline_drop");
  p.gline_dup_rate = RateFromFlag(flags, "fault_gline_dup");
  p.csma_corrupt_rate = RateFromFlag(flags, "fault_csma");
  p.core_freeze_rate = RateFromFlag(flags, "fault_freeze");
  p.noc_delay_rate = RateFromFlag(flags, "fault_noc_delay");
  p.noc_drop_rate = RateFromFlag(flags, "fault_noc_drop");
  p.core_slow_rate = RateFromFlag(flags, "fault_slow");
  // Magnitudes are unsigned: -1 is a bad value, not a 2^64 - 1 stall.
  p.csma_max_skew = flags.GetUint32("fault_csma_skew", 2);
  p.core_freeze_cycles = flags.GetUint64("fault_freeze_cycles", 2000);
  p.noc_delay_cycles = flags.GetUint64("fault_noc_delay_cycles", 50);
  p.noc_retransmit_cycles = flags.GetUint64("fault_noc_retransmit_cycles", 30);
  p.core_slow_factor = flags.GetDouble("fault_slow_factor", 2.0);
  p.work_skew = flags.GetDouble("fault_skew", 0.0);
  p.script = ParseScript(flags.GetString("fault_script", ""));
  return p;
}

}  // namespace glb::fault
