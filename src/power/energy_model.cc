#include "power/energy_model.h"

#include <iomanip>
#include <ostream>

namespace glb::power {

namespace {

/// Every component but the G-line term.
EnergyReport DataSideEnergy(const StatSet& stats, const EnergyCoefficients& coef) {
  EnergyReport r;

  // Every flit-hop switches one router crossbar and drives one link.
  r.noc_pj = coef.noc_flit_hop_pj *
             static_cast<double>(stats.CounterValue("noc.flits_sent"));

  // L1 activity: each hit and each miss is a tag+data lookup, each fill
  // a data write, each served forward and received invalidation another
  // array access.
  const double l1_ops =
      static_cast<double>(stats.CounterValue("l1.hits")) +
      2.0 * static_cast<double>(stats.CounterValue("l1.misses")) +
      static_cast<double>(stats.CounterValue("l1.fwds_served")) +
      static_cast<double>(stats.CounterValue("l1.invs_received")) +
      static_cast<double>(stats.CounterValue("l1.writebacks"));
  r.l1_pj = coef.l1_access_pj * l1_ops;

  // L2 bank activity: one access per home request, plus owner-data
  // write-ins.
  const double l2_ops =
      static_cast<double>(stats.CounterValue("l2.requests")) +
      static_cast<double>(stats.CounterValue("coh.sent.DataWB"));
  r.l2_pj = coef.l2_access_pj * l2_ops;

  r.dram_pj = coef.dram_access_pj *
              (static_cast<double>(stats.CounterValue("l2.dram_fetches")) +
               static_cast<double>(stats.CounterValue("l2.recalls")));

  return r;
}

}  // namespace

EnergyReport Estimate(const StatSet& stats, const gline::HierarchicalBarrierNetwork& net,
                      const EnergyCoefficients& coef) {
  return EstimateHier(stats, net, coef).base;
}

HierEnergyReport EstimateHier(const StatSet& stats,
                              const gline::HierarchicalBarrierNetwork& net,
                              const EnergyCoefficients& coef) {
  HierEnergyReport r;
  r.base = DataSideEnergy(stats, coef);
  // G-lines: each signal is one 1-bit broadcast, priced by its level's
  // wire span; controllers toggle a couple of FSM latches per signal,
  // and the core-side arrival FSM (core.barriers) sits at level 0.
  const double core_barriers =
      static_cast<double>(stats.CounterValue("core.barriers"));
  for (const gline::LevelWireSummary& wires : net.LevelSummaries()) {
    HierEnergyLevel lvl;
    lvl.wires = wires;
    const double signals = static_cast<double>(wires.signals);
    lvl.signal_pj =
        coef.gline_signal_pj * signals * static_cast<double>(wires.span_tiles);
    const double ctrl_ops =
        2.0 * signals + (wires.level == 0 ? core_barriers : 0.0);
    lvl.ctrl_pj = coef.gline_ctrl_pj * ctrl_ops;
    lvl.handoff_pj =
        coef.gline_handoff_pj * static_cast<double>(wires.handoffs);
    r.flat_equiv_pj += coef.gline_signal_pj * signals + lvl.ctrl_pj;
    r.base.gline_pj += lvl.total_pj();
    r.levels.push_back(lvl);
  }
  return r;
}

void Print(std::ostream& os, const EnergyReport& r) {
  auto nj = [](double pj) { return pj / 1000.0; };
  os << std::fixed << std::setprecision(1);
  os << "energy: total " << nj(r.total_pj()) << " nJ"
     << " | noc " << nj(r.noc_pj) << " (" << std::setprecision(0)
     << r.noc_fraction() * 100 << "%)" << std::setprecision(1)
     << " | l1 " << nj(r.l1_pj) << " | l2 " << nj(r.l2_pj) << " | dram "
     << nj(r.dram_pj) << " | gline " << nj(r.gline_pj) << '\n';
}

void PrintHier(std::ostream& os, const HierEnergyReport& r) {
  Print(os, r.base);
  auto nj = [](double pj) { return pj / 1000.0; };
  os << std::fixed << std::setprecision(1);
  for (const HierEnergyLevel& lvl : r.levels) {
    os << "  gline l" << lvl.wires.level << ": " << lvl.wires.nodes
       << " nodes, " << lvl.wires.lines << " lines, span " << lvl.wires.span_tiles
       << " | signal " << nj(lvl.signal_pj) << " nJ | ctrl " << nj(lvl.ctrl_pj)
       << " | handoff " << nj(lvl.handoff_pj) << " | total "
       << nj(lvl.total_pj()) << '\n';
  }
  os << "  gline flat-equivalent " << nj(r.flat_equiv_pj)
     << " nJ | hierarchy overhead "
     << nj(r.base.gline_pj - r.flat_equiv_pj) << " nJ\n";
}

}  // namespace glb::power
