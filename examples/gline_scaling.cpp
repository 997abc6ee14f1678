// Driving the G-line barrier network directly (no cores, no NoC): a
// chain of barrier episodes with skewed arrivals on one rows x cols
// network. Useful as a template for plugging the network into another
// simulator — all it needs is the event engine, one Arrive() call per
// core per episode, and a release callback.
//
//   $ ./gline_scaling [--rows R] [--cols C]
#include <algorithm>
#include <iostream>

#include "common/flags.h"
#include "common/stats.h"
#include "gline/barrier_network.h"
#include "harness/report.h"
#include "sim/engine.h"

using namespace glb;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const auto rows = static_cast<std::uint32_t>(flags.GetInt("rows", 4));
  const auto cols = static_cast<std::uint32_t>(flags.GetInt("cols", 8));

  sim::Engine engine;
  StatSet stats;
  gline::BarrierNetwork net(engine, rows, cols, gline::BarrierNetConfig{}, stats);
  const std::uint32_t n = net.num_cores();

  std::cout << "G-line network on a " << rows << "x" << cols << " mesh: "
            << net.total_lines() << " G-lines (2 x (rows+1))\n\n";

  constexpr std::uint32_t kEpisodes = 10;
  harness::Table t({"Episode", "Last arrival", "Last release", "Latency"});
  bool early = false;
  for (std::uint32_t e = 0; e < kEpisodes; ++e) {
    // Each core writes bar_reg after a deterministic 1..11-cycle skew.
    const Cycle start = engine.Now();
    Cycle last_arrival = 0, last_release = 0;
    std::uint32_t arrived = 0;
    for (CoreId c = 0; c < n; ++c) {
      const Cycle at = start + 1 + (c * 3 + e * 7) % 11;
      last_arrival = std::max(last_arrival, at);
      engine.ScheduleAt(at, [&, c]() {
        ++arrived;
        net.Arrive(c, [&]() {
          if (arrived != n) early = true;
          last_release = engine.Now();
        });
      });
    }
    engine.RunUntilIdle();
    t.AddRow({std::to_string(e), std::to_string(last_arrival),
              std::to_string(last_release),
              std::to_string(last_release - last_arrival)});
  }
  t.Print(std::cout);
  std::cout << "\nBarrier episodes completed: " << net.barriers_completed()
            << "; G-line signal transitions: " << stats.CounterValue("gl.signals")
            << "\nLatency is 4 cycles while every line stays within the"
               " 6-transmitter budget\n(up to 7 columns); a wider row's"
               " arrival line takes ceil((cols-1)/6) cycles.\n";
  if (early || net.barriers_completed() != kEpisodes) {
    std::cerr << "FAIL: a core was released early or an episode was lost\n";
    return 1;
  }
  return 0;
}
