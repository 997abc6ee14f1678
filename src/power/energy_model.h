// Post-run energy estimation (the "Power" in Sim-PowerCMP).
//
// The paper stops at "we believe our method will also lead to
// significant improvements in power consumption" (§1, §5 future work);
// this module quantifies that claim. Energy is computed from the
// event counters a run leaves in its StatSet, using per-event energy
// coefficients representative of a 45nm-class CMP (Orion-2 / CACTI-era
// numbers; the NoC share of total chip power approaching 40% in Raw is
// the paper's own motivating citation [12]). Coefficients are plain
// data so studies can sweep them.
//
// Event sources:
//   * NoC: energy per flit-hop (link traversal + router switching),
//   * caches: per L1/L2 access (hits, misses, fills, forwards),
//   * DRAM: per access,
//   * G-lines: per 1-bit signal transition plus controller FSM ops
//     (tiny by construction; the paper cites [27] for low-power
//     G-line/S-CSMA circuits), read per level from the run's G-line
//     device, so flat and clustered runs are priced by one rule.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "common/stats.h"
#include "gline/hierarchy.h"

namespace glb::power {

/// Per-event energies in picojoules.
struct EnergyCoefficients {
  double noc_flit_hop_pj = 35.0;    // link + router per flit per hop
  double l1_access_pj = 20.0;       // per L1 lookup/fill
  double l2_access_pj = 90.0;       // per L2 bank access
  double dram_access_pj = 12000.0;  // per off-chip access
  double gline_signal_pj = 1.2;     // per 1-bit G-line broadcast, tile-length wire
  double gline_ctrl_pj = 0.4;       // per controller FSM transition (approx.)
  /// Per cluster-master hand-off between hierarchy levels: the master's
  /// completion flag re-driven as the upper level's bar_reg write.
  double gline_handoff_pj = 0.8;
};

/// A run's estimated dynamic energy, by component, in picojoules.
struct EnergyReport {
  double noc_pj = 0;
  double l1_pj = 0;
  double l2_pj = 0;
  double dram_pj = 0;
  double gline_pj = 0;

  double total_pj() const { return noc_pj + l1_pj + l2_pj + dram_pj + gline_pj; }
  /// Fraction of the total spent in the data network (the paper's
  /// Raw-processor comparison point).
  double noc_fraction() const {
    const double t = total_pj();
    return t == 0 ? 0 : noc_pj / t;
  }
};

/// Derives the report from a finished run's statistics and the G-line
/// device it ran on (EstimateHier's per-level G-line term).
EnergyReport Estimate(const StatSet& stats, const gline::HierarchicalBarrierNetwork& net,
                      const EnergyCoefficients& coef = EnergyCoefficients{});

/// Human-readable summary (nanojoules, component shares).
void Print(std::ostream& os, const EnergyReport& r);

// --- the G-line term, per device level ---------------------------------------

/// One hierarchy level's priced wire activity. Signals are scaled by
/// the level's wire span (a level-k line is span_tiles times longer
/// than a level-0 line, and a broadcast on it proportionally more
/// expensive); hand-offs price the cluster-master flag re-drive between
/// levels.
struct HierEnergyLevel {
  gline::LevelWireSummary wires;
  double signal_pj = 0;
  double ctrl_pj = 0;
  double handoff_pj = 0;
  double total_pj() const { return signal_pj + ctrl_pj + handoff_pj; }
};

/// Energy report for a run on a G-line device: the standard components
/// with the G-line term priced per level. Invariants (by construction):
/// the per-level totals sum exactly to `base.gline_pj`, and
/// `base.gline_pj >= flat_equiv_pj` (wire span >= 1, hand-offs are extra
/// work a flat network would not do); on the flat device (one level,
/// span 1, no hand-offs) the two are equal.
struct HierEnergyReport {
  EnergyReport base;  // gline_pj = sum of levels[i].total_pj()
  std::vector<HierEnergyLevel> levels;
  /// The same signal/controller events priced as if every line were a
  /// flat network's tile-length wire and hand-offs were free — the
  /// flat-network-equivalent estimate the hierarchy is compared to.
  double flat_equiv_pj = 0;
};

/// Prices a finished run on `net` (reads each node's counters that the
/// run left in `stats` via net.LevelSummaries()).
HierEnergyReport EstimateHier(const StatSet& stats,
                              const gline::HierarchicalBarrierNetwork& net,
                              const EnergyCoefficients& coef = EnergyCoefficients{});

/// Human-readable per-level breakdown appended to the Print format.
void PrintHier(std::ostream& os, const HierEnergyReport& r);

}  // namespace glb::power
