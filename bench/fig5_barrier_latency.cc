// Figure 5 — average time per barrier for the three mechanisms (CSW,
// DSW, GL) as the core count grows. Methodology from the paper: a loop
// of four consecutive barriers with no work between them; average time
// per barrier = total cycles / (4 * iterations). The paper plots 4..32
// cores on a log-scale y axis; the expected shape is CSW growing
// steeply (hot-spot), DSW growing like log2(P) tree rounds, and GL flat
// at a handful of cycles (13 in the paper's measurement, 4 ideal).
//
// The 12 runs (4 core counts x 3 mechanisms) are independent, so they
// fan out over --jobs threads; the table and --json manifest are
// assembled from submission-order results and are byte-identical for
// any jobs value.
//
// With --hier the sweep continues past the paper's 32 cores into
// many-core meshes (8x8 -> 32x32), comparing the flat network (relaxed,
// overloaded lines) against the hierarchical §5 scheme (--barrier
// GLH): average cycles per barrier, hierarchy depth and the total
// G-line wire budget of each design. The extra table and the glb.fig5_hier
// manifest are only emitted under --hier, so the default output stays
// byte-identical.
//
// With --scale the figure becomes a free-form latency sweep over any
// --cores list and any --barrier list — including the software-barrier
// zoo (rdbl, galois-fast) and the tuned meta-barrier, whose decision
// is echoed per point. --json appends one glb.fig5_scale JSONL row.
// The default and --hier outputs are untouched by this mode.
//
//   ./bench/fig5_barrier_latency --jobs 4
//   ./bench/fig5_barrier_latency --max-cores 8 --json fig5.json
//   ./bench/fig5_barrier_latency --hier --jobs 4 --json fig5.json
//   ./bench/fig5_barrier_latency --scale --cores 64,256 --jobs 8
//       --barrier rdbl,galois-fast,tuned,gl-hier
#include <fstream>
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "gline/hierarchy.h"

namespace {

using namespace glb;

struct Fig5Point {
  std::uint32_t cores = 0;
  double avg[3] = {};  // CSW, DSW, GL
};

struct HierPoint {
  std::uint32_t cores = 0;
  double gl_avg = 0.0;   // flat network, relaxed (overloaded) lines
  double glh_avg = 0.0;  // hierarchical network
  std::uint32_t levels = 0;
  std::uint32_t clusters = 0;
  std::uint32_t gl_lines = 0;   // flat wire budget, 2*(rows+1)
  std::uint32_t glh_lines = 0;  // sum over every node at every level
};

/// One glb.fig5 object: the whole sweep, deterministic (no wall-clock,
/// no jobs echo — identical output no matter how the runs were spread
/// over threads).
void WriteFig5Manifest(std::ostream& os, bool pretty, std::uint32_t iters,
                       const std::vector<Fig5Point>& points) {
  json::Writer w(os, pretty);
  w.BeginObject();
  w.Field("schema", "glb.fig5");
  w.Field("schema_version", static_cast<std::uint32_t>(1));
  w.Field("tool", "fig5_barrier_latency");
  w.Field("synthetic_iters", iters);
  w.Key("points");
  w.BeginArray();
  for (const auto& p : points) {
    w.BeginObject();
    w.Field("cores", p.cores);
    w.Field("csw_avg_cycles", p.avg[0]);
    w.Field("dsw_avg_cycles", p.avg[1]);
    w.Field("gl_avg_cycles", p.avg[2]);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
}

/// One glb.fig5_hier object: latency-vs-cores and wire-count curves for
/// the flat vs hierarchical networks. Deterministic like glb.fig5.
void WriteHierManifest(std::ostream& os, bool pretty, std::uint32_t iters,
                       const std::vector<HierPoint>& points) {
  json::Writer w(os, pretty);
  w.BeginObject();
  w.Field("schema", "glb.fig5_hier");
  w.Field("schema_version", static_cast<std::uint32_t>(1));
  w.Field("tool", "fig5_barrier_latency");
  w.Field("synthetic_iters", iters);
  w.Key("points");
  w.BeginArray();
  for (const auto& p : points) {
    w.BeginObject();
    w.Field("cores", p.cores);
    w.Field("gl_avg_cycles", p.gl_avg);
    w.Field("glh_avg_cycles", p.glh_avg);
    w.Field("levels", p.levels);
    w.Field("clusters", p.clusters);
    w.Field("gl_lines", p.gl_lines);
    w.Field("glh_lines", p.glh_lines);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
}

/// One glb.fig5_scale object: average cycles per barrier for every
/// (cores, barrier) pair of the free-form sweep, with the tuned
/// decision echoed where it fired. Deterministic like glb.fig5.
void WriteScaleManifest(std::ostream& os, bool pretty, std::uint32_t iters,
                        const std::vector<harness::RunMetrics>& runs) {
  json::Writer w(os, pretty);
  w.BeginObject();
  w.Field("schema", "glb.fig5_scale");
  w.Field("schema_version", static_cast<std::uint32_t>(1));
  w.Field("tool", "fig5_barrier_latency");
  w.Field("synthetic_iters", iters);
  w.Key("points");
  w.BeginArray();
  for (const auto& m : runs) {
    w.BeginObject();
    w.Field("cores", m.cores);
    w.Field("barrier", m.barrier);
    w.Field("avg_cycles",
            static_cast<double>(m.cycles) / static_cast<double>(m.barriers));
    if (!m.tuned_choice.empty()) w.Field("tuned_choice", m.tuned_choice);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
}

int RunScaleSweep(const Flags& flags, const bench::CommonFlags& common) {
  const int jobs = common.jobs();
  const auto cores_list = bench::CoreListFromFlags(flags, "cores", {64, 256});
  const auto kinds = bench::BarrierListFromFlags(
      flags, "barrier",
      {harness::BarrierKind::kDSW, harness::BarrierKind::kDIS,
       harness::BarrierKind::kRDBL, harness::BarrierKind::kGALOIS,
       harness::BarrierKind::kTUNED, harness::BarrierKind::kGLH});

  std::cout << "Figure 5 (scale sweep): average cycles per barrier\n\n";
  bench::SweepClock clock(flags, "fig5_barrier_latency", jobs);
  std::vector<harness::ExperimentSpec> specs;
  std::uint32_t iters = 0;
  for (std::uint32_t cores : cores_list) {
    bench::Scale scale = harness::Scale::FromFlags(flags, cores);
    if (!flags.Has("synthetic-iters") && !flags.Has("paper-scale")) {
      scale.synthetic_iters = 50;  // stationary well before this
    }
    iters = scale.synthetic_iters;
    for (auto kind : kinds) {
      specs.push_back(harness::NamedExperiment(
          "Synthetic", scale, kind, common.ConfigForCores(cores)));
    }
  }
  bench::RejectUnreadFlagsOrExit(flags);
  const auto runs = harness::RunExperimentsParallel(specs, jobs);
  clock.Report(runs.size());

  bool ok = true;
  harness::Table t({"Cores", "Barrier", "Avg cycles/barrier", "Tuned choice"});
  for (const auto& m : runs) {
    if (!m.completed || !m.validation.empty()) {
      std::cerr << "run failed: " << m.workload << "/" << m.barrier << " at "
                << m.cores << " cores: "
                << (m.completed ? m.validation : m.stall) << '\n';
      ok = false;
      continue;
    }
    t.AddRow({std::to_string(m.cores), m.barrier,
              harness::Table::Num(static_cast<double>(m.cycles) /
                                  static_cast<double>(m.barriers)),
              m.tuned_choice.empty() ? "-" : m.tuned_choice});
  }
  t.Print(std::cout);

  if (common.json()) {
    const std::string& jpath = common.json_path();
    if (common.json_bare()) {
      WriteScaleManifest(std::cout, /*pretty=*/true, iters, runs);
      std::cout << '\n';
    } else {
      std::ofstream f(jpath, std::ios::app);
      if (!f) {
        std::cerr << "failed to append manifest to " << jpath << "\n";
        return 1;
      }
      WriteScaleManifest(f, /*pretty=*/false, iters, runs);
      f << '\n';
    }
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const bench::CommonFlags common = bench::ParseCommonFlags(flags);
  bench::Scale scale = bench::Scale::FromFlags(flags);
  if (!flags.Has("synthetic-iters") && !flags.Has("paper-scale")) {
    scale.synthetic_iters = 200;  // stationary well before this
  }
  const int jobs = common.jobs();
  if (flags.GetBool("scale", false)) return RunScaleSweep(flags, common);
  const auto max_cores =
      static_cast<std::uint32_t>(flags.GetInt("max-cores", 32));
  const bool hier = flags.GetBool("hier", false);
  const auto hier_max_cores =
      static_cast<std::uint32_t>(flags.GetInt("hier-max-cores", 1024));

  std::vector<std::uint32_t> core_counts;
  for (std::uint32_t cores : {4u, 8u, 16u, 32u}) {
    if (cores <= max_cores) core_counts.push_back(cores);
  }
  std::vector<std::uint32_t> hier_counts;
  if (hier) {
    // 8x8 -> 16x16 -> 32x32: past the flat network's 7x7 budget.
    for (std::uint32_t cores : {64u, 256u, 1024u}) {
      if (cores <= hier_max_cores) hier_counts.push_back(cores);
    }
  }

  constexpr harness::BarrierKind kKinds[] = {
      harness::BarrierKind::kCSW, harness::BarrierKind::kDSW,
      harness::BarrierKind::kGL};

  std::cout << "Figure 5: average cycles per barrier (synthetic, "
            << scale.synthetic_iters << " iterations x 4 barriers)\n\n";

  bench::SweepClock clock(flags, "fig5_barrier_latency", jobs);
  std::vector<harness::ExperimentSpec> specs;
  for (std::uint32_t cores : core_counts) {
    for (auto kind : kKinds) {
      specs.push_back(harness::NamedExperiment(
          "Synthetic", scale, kind, cmp::CmpConfig::WithCores(cores)));
    }
  }
  // The hier sweep rides the same parallel runner: flat (relaxed,
  // overloaded lines) vs hierarchical at each many-core mesh.
  for (std::uint32_t cores : hier_counts) {
    for (auto kind : {harness::BarrierKind::kGL, harness::BarrierKind::kGLH}) {
      specs.push_back(harness::NamedExperiment(
          "Synthetic", scale, kind, cmp::CmpConfig::WithCores(cores)));
    }
  }
  bench::RejectUnreadFlagsOrExit(flags);
  const auto results = harness::RunExperimentsParallel(specs, jobs);
  clock.Report(results.size());

  harness::Table t({"Cores", "CSW", "DSW", "GL", "CSW/GL", "DSW/GL"});
  std::vector<Fig5Point> points;
  std::size_t next = 0;
  for (std::uint32_t cores : core_counts) {
    Fig5Point p;
    p.cores = cores;
    for (int idx = 0; idx < 3; ++idx) {
      const auto& m = results[next++];
      if (!m.completed || !m.validation.empty()) {
        std::cerr << "run failed: " << m.workload << "/" << m.barrier << '\n';
        return 1;
      }
      p.avg[idx] =
          static_cast<double>(m.cycles) / static_cast<double>(m.barriers);
    }
    t.AddRow({std::to_string(cores), harness::Table::Num(p.avg[0]),
              harness::Table::Num(p.avg[1]), harness::Table::Num(p.avg[2]),
              harness::Table::Num(p.avg[0] / p.avg[2], 1),
              harness::Table::Num(p.avg[1] / p.avg[2], 1)});
    points.push_back(p);
  }
  t.Print(std::cout);
  std::cout << "\nPaper shape: GL flat (~13 cycles measured, 4 ideal); DSW and CSW"
               " grow with cores,\nCSW worst (hot-spot on one counter line)."
               " Log-scale separation of orders of magnitude at 32 cores.\n";

  std::vector<HierPoint> hier_points;
  if (hier) {
    std::cout << "\nHierarchical sweep (flat relaxed GL vs multi-level GLH, §5"
                 " scheme):\n\n";
    harness::Table ht({"Cores", "Mesh", "GL", "GLH", "Levels", "Clusters",
                       "GL lines", "GLH lines"});
    for (std::uint32_t cores : hier_counts) {
      HierPoint p;
      p.cores = cores;
      for (int idx = 0; idx < 2; ++idx) {
        const auto& m = results[next++];
        if (!m.completed || !m.validation.empty()) {
          std::cerr << "run failed: " << m.workload << "/" << m.barrier << '\n';
          return 1;
        }
        const double avg =
            static_cast<double>(m.cycles) / static_cast<double>(m.barriers);
        (idx == 0 ? p.gl_avg : p.glh_avg) = avg;
      }
      // Wire budgets and depth come from the network shapes alone; one
      // un-simulated construction per mesh (no engine run).
      const auto cfg = cmp::CmpConfig::WithCores(cores);
      sim::Engine scratch;
      StatSet scratch_stats;
      gline::HierarchicalBarrierNetwork net(
          scratch, cfg.rows, cfg.cols,
          cmp::GlineDevice(harness::BarrierKind::kGLH, cfg.gline, ""), scratch_stats);
      p.levels = net.num_levels();
      p.clusters = net.num_clusters();
      p.gl_lines = 2 * (cfg.rows + 1);
      p.glh_lines = net.total_lines();
      ht.AddRow({std::to_string(p.cores),
                 std::to_string(cfg.rows) + "x" + std::to_string(cfg.cols),
                 harness::Table::Num(p.gl_avg), harness::Table::Num(p.glh_avg),
                 std::to_string(p.levels), std::to_string(p.clusters),
                 std::to_string(p.gl_lines), std::to_string(p.glh_lines)});
      hier_points.push_back(p);
    }
    ht.Print(std::cout);
    std::cout << "\nGLH holds the ~4-cycles-per-level model while every line"
                 " stays inside the\ntransmitter budget; the flat network needs"
                 " overloaded (relaxed) lines past 7x7.\n";
  }

  if (common.json()) {
    const std::string& jpath = common.json_path();
    if (common.json_bare()) {  // bare --json: pretty to stdout
      WriteFig5Manifest(std::cout, /*pretty=*/true, scale.synthetic_iters, points);
      std::cout << '\n';
      if (hier) {
        WriteHierManifest(std::cout, /*pretty=*/true, scale.synthetic_iters,
                          hier_points);
        std::cout << '\n';
      }
    } else {  // append one compact JSONL line (BENCH_*.json convention)
      std::ofstream f(jpath, std::ios::app);
      if (!f) {
        std::cerr << "failed to append manifest to " << jpath << "\n";
        return 1;
      }
      WriteFig5Manifest(f, /*pretty=*/false, scale.synthetic_iters, points);
      f << '\n';
      if (hier) {
        WriteHierManifest(f, /*pretty=*/false, scale.synthetic_iters,
                          hier_points);
        f << '\n';
      }
    }
  }
  return 0;
}
