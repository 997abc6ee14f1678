// Ablation A — G-line barrier latency vs. mesh size and transmitter-
// limit policy. Within the 6-transmitter budget (up to 7x7 = 49 cores)
// the barrier is flat at 4 cycles; beyond it, the kRelaxed policy
// (longer-latency / segmented lines, the paper's §5 future work) adds
// ceil(tx/6)-1 extra cycles per affected line. Also reports the line
// budget 2x(rows+1) per context.
#include <algorithm>
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "common/stats.h"
#include "gline/hierarchy.h"
#include "harness/report.h"
#include "sim/engine.h"

namespace {

struct Result {
  glb::Cycle first_release = 0;
  glb::Cycle last_release = 0;
  // Network-shape facts, captured during the sweep so the report loop
  // never has to rebuild a network just to read them.
  std::uint32_t total_lines = 0;
  std::uint32_t clusters = 1;
  std::uint32_t levels = 1;
};

/// Simultaneous arrival on a `dev`-shaped G-line device over rows x cols.
Result RunBarrier(const glb::gline::HierConfig& dev, std::uint32_t rows,
                  std::uint32_t cols) {
  using namespace glb;
  sim::Engine engine;
  StatSet stats;
  gline::HierarchicalBarrierNetwork net(engine, rows, cols, dev, stats);
  const std::uint32_t n = rows * cols;
  std::vector<Cycle> released(n, 0);
  engine.ScheduleAt(100, [&]() {
    for (CoreId c = 0; c < n; ++c) {
      net.Arrive(c, [&, c]() { released[c] = engine.Now(); });
    }
  });
  engine.RunUntilIdle();
  Result r;
  r.first_release = *std::min_element(released.begin(), released.end()) - 100;
  r.last_release = *std::max_element(released.begin(), released.end()) - 100;
  r.total_lines = net.total_lines();
  r.clusters = net.num_clusters();
  r.levels = net.num_levels();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace glb;
  Flags flags(argc, argv);
  const bench::CommonFlags common = bench::ParseCommonFlags(flags);
  const int jobs = common.jobs();
  std::cout << "Ablation A: G-line barrier latency vs mesh size"
               " (simultaneous arrival -> release)\n\n";
  harness::Table t({"Mesh", "Cores", "G-lines", "First release", "Last release",
                    "Within 6-tx budget"});
  const std::pair<std::uint32_t, std::uint32_t> meshes[] = {
      {1, 1}, {2, 2}, {2, 4}, {4, 4}, {4, 8}, {6, 6}, {7, 7}, {8, 8}};
  bench::SweepClock clock(flags, "ablate_gline_scaling", jobs);
  std::vector<Result> flat_results(std::size(meshes));
  harness::ParallelFor(flat_results.size(), jobs, [&](std::size_t i) {
    flat_results[i] =
        RunBarrier(gline::HierConfig::Flat(), meshes[i].first, meshes[i].second);
  });
  for (std::size_t i = 0; i < std::size(meshes); ++i) {
    const auto [rows, cols] = meshes[i];
    const Result& r = flat_results[i];
    const bool in_budget = (cols - 1) <= 6 && (rows - 1) <= 6;
    t.AddRow({std::to_string(rows) + "x" + std::to_string(cols),
              std::to_string(rows * cols), std::to_string(r.total_lines),
              std::to_string(r.first_release), std::to_string(r.last_release),
              in_budget ? "yes (4 cycles)" : "no (relaxed lines)"});
  }
  t.Print(std::cout);

  std::cout << "\nHierarchical (multi-level) G-line networks — the §5 scheme,"
               " every line within budget:\n\n";
  harness::Table h({"Mesh", "Cores", "Levels", "Clusters", "G-lines",
                    "First release", "Last release"});
  const std::pair<std::uint32_t, std::uint32_t> big[] = {
      {8, 8},   {10, 10}, {14, 14}, {16, 16},
      {21, 21}, {32, 32}, {49, 49}, {64, 64}};
  std::vector<Result> hier_results(std::size(big));
  harness::ParallelFor(hier_results.size(), jobs, [&](std::size_t i) {
    hier_results[i] = RunBarrier(gline::HierConfig{}, big[i].first, big[i].second);
  });
  for (std::size_t i = 0; i < std::size(big); ++i) {
    const auto [rows, cols] = big[i];
    const Result& r = hier_results[i];
    h.AddRow({std::to_string(rows) + "x" + std::to_string(cols),
              std::to_string(rows * cols), std::to_string(r.levels),
              std::to_string(r.clusters), std::to_string(r.total_lines),
              std::to_string(r.first_release), std::to_string(r.last_release)});
  }
  h.Print(std::cout);
  clock.Report(flat_results.size() + hier_results.size());
  std::cout << "\nEach level adds ~4 cycles to the barrier: depth 2 covers 49x49"
               " = 2401 cores at ~8,\ndepth 3 covers 64x64 = 4096 at ~12, every"
               " G-line inside the 6-transmitter budget.\n";
  return 0;
}
