// Running real programs on the hierarchical G-line network: a
// many-core machine beyond the flat network's 7x7 budget, where the
// cores' bar_reg is wired to the chip's G-line device in its clustered
// (kGLH) shape. `cfg.hier.enabled` selects that shape — the same wiring
// `glbsim --barrier=gl-hier` uses — so this example just turns it on
// and reads the per-level stats back. Default is 8x8
// (64 cores, depth 2); try --rows 32 --cols 32 for the full 1024-core
// chip (still depth 2) or --rows 64 --cols 64 for depth 3.
//
//   $ ./manycore_hierarchy [--rows R] [--cols C] [--phases K]
#include <iostream>

#include "cmp/cmp_system.h"
#include "common/flags.h"
#include "gline/hierarchy.h"
#include "harness/report.h"

using namespace glb;

namespace {

core::Task PhaseProgram(core::Core& core, int phases, bool* ok,
                        std::vector<int>* arrived, std::uint32_t ncores) {
  for (int p = 0; p < phases; ++p) {
    co_await core.Compute(5 + (core.id() * 11 + static_cast<std::uint32_t>(p)) % 37);
    ++(*arrived)[static_cast<std::size_t>(p)];
    co_await core.GlBarrier();  // resolved by the hierarchical network
    if ((*arrived)[static_cast<std::size_t>(p)] != static_cast<int>(ncores)) {
      *ok = false;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const auto rows = static_cast<std::uint32_t>(flags.GetInt("rows", 8));
  const auto cols = static_cast<std::uint32_t>(flags.GetInt("cols", 8));
  const int phases = static_cast<int>(flags.GetInt("phases", 25));

  cmp::CmpConfig cfg;
  cfg.rows = rows;
  cfg.cols = cols;
  cfg.hier.enabled = true;  // select the multi-level network chip-wide
  cmp::CmpSystem sys(cfg);
  gline::HierarchicalBarrierNetwork& hier = sys.gline();

  std::cout << "Hierarchical G-line barrier on " << rows << "x" << cols << " ("
            << sys.num_cores() << " cores): " << hier.num_levels()
            << " levels, " << hier.num_clusters() << " leaf clusters, "
            << hier.total_lines() << " G-lines\n\n";

  bool ok = true;
  std::vector<int> arrived(static_cast<std::size_t>(phases), 0);
  const bool finished = sys.RunPrograms([&](core::Core& c, CoreId) {
    return PhaseProgram(c, phases, &ok, &arrived, sys.num_cores());
  });

  std::cout << "  " << phases << " phases " << (finished && ok ? "synchronized" : "FAILED")
            << " in " << sys.LastFinish() << " cycles\n";
  std::cout << "  barrier episodes: " << hier.barriers_completed()
            << " (glh.barriers_completed counts each global barrier once)\n";
  std::cout << "  data-NoC messages: " << sys.stats().SumCountersWithPrefix("noc.msgs.")
            << " (barriers contribute zero)\n";
  // Every level/cluster registers its stats under its own prefix
  // ("glh.l<level>.c<node>."); fold the per-node release latencies.
  Histogram release;
  sys.stats().ForEachHistogram([&](const std::string& name, const Histogram& h) {
    if (name.ends_with(".release_latency")) release.Merge(h);
  });
  if (release.count() > 0) {
    std::cout << "  per-node release latency: mean "
              << harness::Table::Num(release.mean()) << " cycles over "
              << release.count() << " node-episodes (~4 per level end-to-end)\n";
  }
  return finished && ok ? 0 : 1;
}
