// Figure 2 / §3.2 — cycle-by-cycle walkthrough of one barrier episode
// on a 2x2 mesh, printing the controller state (ScntH/ScntV/Mcnt and
// the Figure-4 automaton states) each cycle, exactly like the paper's
// four-panel figure.
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "common/stats.h"
#include "gline/barrier_network.h"
#include "harness/report.h"
#include "sim/engine.h"

int main(int argc, char** argv) {
  using namespace glb;
  Flags flags(argc, argv);
  const bench::CommonFlags common = bench::ParseCommonFlags(flags);
  const auto rows = static_cast<std::uint32_t>(flags.GetInt("rows", 2));
  const auto cols = static_cast<std::uint32_t>(flags.GetInt("cols", 2));

  sim::Engine engine;
  StatSet stats;
  gline::BarrierNetwork net(engine, rows, cols, gline::BarrierNetConfig{}, stats);
  const std::uint32_t n = rows * cols;

  std::cout << "Figure 2: barrier synchronization walkthrough on a " << rows << "x"
            << cols << " mesh (all cores write bar_reg at cycle 0)\n\n";

  std::vector<Cycle> released(n, kCycleNever);
  engine.ScheduleAt(0, [&]() {
    for (CoreId c = 0; c < n; ++c) {
      net.Arrive(c, [&, c]() { released[c] = engine.Now(); });
    }
  });

  auto master_name = [](gline::BarrierNetwork::MasterState s) {
    return s == gline::BarrierNetwork::MasterState::kAccounting ? "Accounting"
                                                                : "Waiting";
  };
  auto slave_name = [](gline::BarrierNetwork::SlaveState s) {
    return s == gline::BarrierNetwork::SlaveState::kSignaling ? "Signaling"
                                                              : "Waiting";
  };

  for (Cycle t = 0; t <= 6; ++t) {
    engine.RunUntil(t);
    std::cout << "Cycle " << t << ":\n";
    for (std::uint32_t r = 0; r < rows; ++r) {
      std::cout << "  row " << r << ": MasterH=" << master_name(net.MasterHState(r))
                << " ScntH=" << net.ScntH(r) << " Mcnt=" << net.McntH(r);
      if (r > 0) std::cout << "  SlaveV=" << slave_name(net.SlaveVState(r));
      std::cout << '\n';
    }
    std::cout << "  MasterV=" << master_name(net.MasterVState())
              << " ScntV=" << net.ScntV() << '\n';
    bool any = false;
    std::cout << "  released:";
    for (CoreId c = 0; c < n; ++c) {
      if (released[c] <= t) {
        std::cout << " core" << c << "@" << released[c];
        any = true;
      }
    }
    if (!any) std::cout << " (none)";
    std::cout << "\n\n";
  }
  engine.RunUntilIdle();

  std::cout << "Release cycles:";
  for (CoreId c = 0; c < n; ++c) std::cout << " core" << c << "=" << released[c];
  std::cout << "\nPaper: 4 cycles from simultaneous arrival to release"
               " (slave nodes; column-0 nodes one cycle earlier).\n";
  return 0;
}
