// Table 1 — CMP baseline configuration.
//
// Prints the simulated machine parameters exactly as the paper's
// Table 1 lists them, as instantiated by CmpConfig::Table1().
#include <iostream>

#include "bench_util.h"

int main(int argc, char** argv) {
  glb::Flags flags(argc, argv);
  const glb::bench::CommonFlags common = glb::bench::ParseCommonFlags(flags);
  auto cfg = glb::cmp::CmpConfig::Table1();
  if (flags.Has("cores")) cfg = common.Config();

  glb::harness::Table t({"Parameter", "Value"});
  t.AddRow({"Number of cores", std::to_string(cfg.num_cores())});
  t.AddRow({"Core", "3GHz, in-order 2-way model"});
  t.AddRow({"Cache line size", std::to_string(cfg.coherence.line_bytes) + " Bytes"});
  t.AddRow({"L1 I/D-Cache", std::to_string(cfg.l1.size_bytes / 1024) + "KB, " +
                                std::to_string(cfg.l1.ways) + "-way, " +
                                std::to_string(cfg.coherence.l1_latency) + " cycle"});
  t.AddRow({"L2 Cache (per core)",
            std::to_string(cfg.l2.size_bytes / 1024) + "KB, " +
                std::to_string(cfg.l2.ways) + "-way, " +
                std::to_string(cfg.coherence.l2_latency) + " cycles (6+2)"});
  t.AddRow({"Memory access time", std::to_string(cfg.coherence.dram_latency) + " cycles"});
  t.AddRow({"Network configuration", "2D-mesh (" + std::to_string(cfg.rows) + "x" +
                                         std::to_string(cfg.cols) + ")"});
  t.AddRow({"Link width", std::to_string(cfg.noc.link_bytes) + " bytes"});
  t.AddRow({"Router pipeline / link latency",
            std::to_string(cfg.noc.router_latency) + " / " +
                std::to_string(cfg.noc.link_latency) + " cycles"});
  t.AddRow({"G-line transmitter budget", std::to_string(cfg.gline.max_transmitters)});

  std::cout << "Table 1: CMP baseline configuration\n\n";
  t.Print(std::cout);

  // Derived G-line budget, per the paper's 2x(rows+1) formula.
  glb::cmp::CmpSystem sys(cfg);
  std::cout << "\nG-lines deployed: " << sys.gline().total_lines()
            << " (2 x (rows+1))\n";
  return 0;
}
