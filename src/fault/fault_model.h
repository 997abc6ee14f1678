// Deterministic fault model for the barrier network and the NoC.
//
// A FaultPlan describes *what* can go wrong and *how often*. Faults are
// expressed two ways, freely mixed:
//   * probabilistic rates, drawn from a seeded xoshiro stream so a
//     (plan, seed) pair replays bit-identically;
//   * a scripted list of (cycle, site, target) entries for precise
//     regression tests ("drop the SglineH batch at cycle 12").
//
// Injection sites mirror where transient upsets land in a real CMP:
//   kGlineDrop      — one assertion on a G-line is lost (the S-CSMA
//                     count delivered to the receiver is one short; a
//                     single-transmitter batch disappears entirely);
//   kGlineDuplicate — a glitch registers one extra assertion;
//   kCsmaCorrupt    — the S-CSMA sensing circuit misreads the count by
//                     a uniform nonzero skew in [-max_skew, +max_skew];
//   kCoreFreeze     — a core stalls (IRQ storm, thermal throttle) and
//                     its bar_reg write reaches the controllers late;
//   kNocDelay       — a router/link transfer is delayed;
//   kNocDrop        — a link transfer is corrupted; the link-level CRC
//                     detects it and the flit is retransmitted after a
//                     penalty (on-chip links are never silently lossy,
//                     otherwise no end-to-end protocol could survive);
//   kCoreSlowdown   — a persistent DVFS-style straggler: the core's
//                     compute phases are stretched by a fixed factor for
//                     the rest of the run (thermal capping, a noisy
//                     co-tenant), probabilistic per core or scripted;
//   kWorkSkew       — deterministic load imbalance: compute between
//                     barriers is stretched by a linear ramp over the
//                     core index (core 0 unchanged, the last core gets
//                     the full skew), modeling a skewed partition rather
//                     than a broken core.
//
// The plan is pure data; `fault::FaultInjector` turns it into decisions.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/types.h"

namespace glb::fault {

enum class FaultSite : std::uint8_t {
  kGlineDrop,
  kGlineDuplicate,
  kCsmaCorrupt,
  kCoreFreeze,
  kNocDelay,
  kNocDrop,
  kCoreSlowdown,
  kWorkSkew,
};

const char* ToString(FaultSite site);

/// Parses a site name as accepted by `--fault_script`. Every ToString()
/// spelling round-trips; the historical short aliases (csma, freeze,
/// slow, skew) stay accepted. Returns false on an unknown name.
bool FaultSiteFromName(const std::string& name, FaultSite* site);

/// One scripted injection. Fires at the first matching opportunity at or
/// after `cycle` (exact-cycle matching would make tests brittle against
/// one-cycle schedule shifts), then is consumed.
struct ScriptedFault {
  Cycle cycle = 0;
  FaultSite site = FaultSite::kGlineDrop;
  /// Empty = any target. For G-line sites: substring of the line name
  /// (e.g. "sglineH0"). For kCoreFreeze: decimal core id. For NoC
  /// sites: decimal destination node.
  std::string target;
  /// Site-specific strength: S-CSMA skew (signed), freeze/delay cycles
  /// (positive), slowdown/skew percent extra compute time (50 = 1.5x).
  /// 0 = use the plan-wide default.
  std::int32_t magnitude = 0;
};

struct FaultPlan {
  /// Seed for the probabilistic stream (scripted entries ignore it).
  std::uint64_t seed = 1;

  // Per-opportunity probabilities, all 0 by default (= plan disabled).
  double gline_drop_rate = 0.0;
  double gline_dup_rate = 0.0;
  double csma_corrupt_rate = 0.0;
  double core_freeze_rate = 0.0;
  double noc_delay_rate = 0.0;
  double noc_drop_rate = 0.0;
  /// Fraction of cores that are persistent stragglers. The choice is
  /// hash-derived per core (not drawn from the shared stream), so which
  /// cores straggle is independent of simulation event order.
  double core_slow_rate = 0.0;

  /// Largest |skew| a corrupted S-CSMA count can take.
  std::uint32_t csma_max_skew = 2;
  /// How long a frozen core's bar_reg write is stalled.
  Cycle core_freeze_cycles = 2000;
  /// Extra latency of a delayed NoC transfer.
  Cycle noc_delay_cycles = 50;
  /// Link-level detect-and-retransmit penalty for a dropped transfer.
  Cycle noc_retransmit_cycles = 30;
  /// Compute-time multiplier for a core picked by core_slow_rate.
  double core_slow_factor = 2.0;
  /// Deterministic work-skew ramp: core i's compute is stretched by
  /// 1 + work_skew * i/(n-1). 0 disables the site.
  double work_skew = 0.0;

  std::vector<ScriptedFault> script;

  bool enabled() const {
    return gline_drop_rate > 0 || gline_dup_rate > 0 || csma_corrupt_rate > 0 ||
           core_freeze_rate > 0 || noc_delay_rate > 0 || noc_drop_rate > 0 ||
           core_slow_rate > 0 || work_skew > 0 || !script.empty();
  }

  /// True when any straggler knob is live (used to decide whether the
  /// per-core compute hook needs to be installed at all).
  bool stragglers() const {
    if (core_slow_rate > 0 || work_skew > 0) return true;
    for (const ScriptedFault& f : script) {
      if (f.site == FaultSite::kCoreSlowdown || f.site == FaultSite::kWorkSkew)
        return true;
    }
    return false;
  }
};

/// Builds a plan from `--fault_*` flags (see README.md):
///   --fault_seed S            --fault_gline_drop R   --fault_gline_dup R
///   --fault_csma R            --fault_csma_skew K    --fault_freeze R
///   --fault_freeze_cycles N   --fault_noc_delay R    --fault_noc_delay_cycles N
///   --fault_noc_drop R        --fault_noc_retransmit_cycles N
///   --fault_slow R            --fault_slow_factor F  --fault_skew S
///   --fault_script "cycle:site[:target[:magnitude]],..."
/// where site is one of gline_drop|gline_dup|csma_corrupt|core_freeze|
/// noc_delay|noc_drop|core_slow|work_skew (plus the short aliases
/// csma|freeze|slow|skew). Rates (R) outside [0, 1], negative
/// magnitudes (N, K) and malformed script entries exit with status 2.
FaultPlan PlanFromFlags(const Flags& flags);

}  // namespace glb::fault
