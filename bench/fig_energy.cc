// Energy extension — the measurement the paper defers to future work
// ("we will measure the efficiency of our method in terms of power
// consumption", §5): estimated dynamic energy for every benchmark under
// DSW vs GL, by component, from the run's event counts (see
// power/energy_model.h for coefficients and method).
//
// With --hier the binary instead prices the hierarchical network's
// per-level wires for many-core meshes (--cores, default 64,256,1024):
// each level's signals are scaled by its wire span and the
// cluster-master hand-offs between levels are charged separately, then
// compared against the flat-network-equivalent estimate (same events,
// tile-length wires, free hand-offs). --json appends one
// glb.energy_hier JSONL row.
//
//   ./bench/fig_energy
//   ./bench/fig_energy --hier --cores 64,256 --json BENCH_glbsim.json
#include <fstream>
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "power/energy_model.h"

namespace {

using namespace glb;

struct Row {
  harness::RunMetrics metrics;
  power::EnergyReport energy;
};

struct HierRow {
  std::uint32_t cores = 0;
  std::string workload;
  power::HierEnergyReport report;
};

/// One glb.energy_hier object for the whole sweep (deterministic).
void WriteHierManifest(std::ostream& os, bool pretty,
                       const std::vector<HierRow>& rows) {
  json::Writer w(os, pretty);
  w.BeginObject();
  w.Field("schema", "glb.energy_hier");
  w.Field("schema_version", static_cast<std::uint32_t>(1));
  w.Field("tool", "fig_energy");
  w.Key("points");
  w.BeginArray();
  for (const HierRow& r : rows) {
    w.BeginObject();
    w.Field("cores", r.cores);
    w.Field("workload", r.workload);
    w.Field("barrier", "GLH");
    w.Field("total_pj", r.report.base.total_pj());
    w.Field("noc_pj", r.report.base.noc_pj);
    w.Field("gline_pj", r.report.base.gline_pj);
    w.Field("gline_flat_equiv_pj", r.report.flat_equiv_pj);
    w.Key("levels");
    w.BeginArray();
    for (const power::HierEnergyLevel& lvl : r.report.levels) {
      w.BeginObject();
      w.Field("level", lvl.wires.level);
      w.Field("nodes", lvl.wires.nodes);
      w.Field("lines", lvl.wires.lines);
      w.Field("span_tiles", lvl.wires.span_tiles);
      w.Field("signals", lvl.wires.signals);
      w.Field("handoffs", lvl.wires.handoffs);
      w.Field("signal_pj", lvl.signal_pj);
      w.Field("ctrl_pj", lvl.ctrl_pj);
      w.Field("handoff_pj", lvl.handoff_pj);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
}

int RunHierStudy(const Flags& flags, const bench::CommonFlags& common) {
  const auto cores_list =
      bench::CoreListFromFlags(flags, "cores", {64, 256, 1024});
  const auto names = bench::WorkloadListFromFlags(flags, "workloads",
                                                  {"Synthetic"});
  std::cout << "Energy (extension, --hier): per-level G-line wire energy on"
               " the hierarchical network\n\n";
  harness::Table t({"Cores", "Workload", "Level", "Nodes", "Lines", "Span",
                    "Signal nJ", "Ctrl nJ", "Handoff nJ", "Level nJ"});
  std::vector<HierRow> rows;
  for (std::uint32_t cores : cores_list) {
    const harness::Scale scale = harness::Scale::FromFlags(flags, cores);
    for (const std::string& name : names) {
      cmp::CmpSystem sys(
          common.ConfigForCores(cores).ForBarrier(harness::BarrierKind::kGLH));
      auto workload = harness::MakeWorkloadOrExit(name, scale);
      workload->Init(sys);
      auto barrier = harness::MakeBarrier(harness::BarrierKind::kGLH, sys);
      const bool ok = sys.RunPrograms([&](core::Core& c, CoreId id) {
        return workload->Body(c, id, *barrier);
      });
      const std::string validation = workload->Validate(sys);
      if (!ok || !validation.empty()) {
        std::cerr << "run failed: " << name << " at " << cores
                  << " cores: " << validation << '\n';
        return 1;
      }
      HierRow row;
      row.cores = cores;
      row.workload = name;
      row.report = power::EstimateHier(sys.stats(), sys.gline());
      for (const power::HierEnergyLevel& lvl : row.report.levels) {
        std::string level_name = "l";
        level_name += std::to_string(lvl.wires.level);
        t.AddRow({std::to_string(cores), name, std::move(level_name),
                  std::to_string(lvl.wires.nodes),
                  std::to_string(lvl.wires.lines),
                  std::to_string(lvl.wires.span_tiles),
                  harness::Table::Num(lvl.signal_pj / 1000.0, 2),
                  harness::Table::Num(lvl.ctrl_pj / 1000.0, 2),
                  harness::Table::Num(lvl.handoff_pj / 1000.0, 2),
                  harness::Table::Num(lvl.total_pj() / 1000.0, 2)});
      }
      t.AddRow({std::to_string(cores), name, "all", "-", "-", "-", "-", "-",
                "-",
                harness::Table::Num(row.report.base.gline_pj / 1000.0, 2)});
      rows.push_back(std::move(row));
    }
  }
  t.Print(std::cout);
  std::cout << "\nPer-level terms sum to the run's G-line component; the"
               " flat-equivalent row prices\nthe same events on tile-length"
               " wires with free hand-offs (always <= the total —\nthe"
               " hierarchy pays for reach with longer upper-level wires).\n\n";
  for (const HierRow& r : rows) {
    std::cout << "  " << r.cores << " cores / " << r.workload << ": gline "
              << harness::Table::Num(r.report.base.gline_pj / 1000.0, 2)
              << " nJ vs flat-equivalent "
              << harness::Table::Num(r.report.flat_equiv_pj / 1000.0, 2)
              << " nJ\n";
  }

  if (common.json()) {
    const std::string& jpath = common.json_path();
    if (common.json_bare()) {
      WriteHierManifest(std::cout, /*pretty=*/true, rows);
      std::cout << '\n';
    } else {
      std::ofstream f(jpath, std::ios::app);
      if (!f) {
        std::cerr << "failed to append manifest to " << jpath << "\n";
        return 1;
      }
      WriteHierManifest(f, /*pretty=*/false, rows);
      f << '\n';
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const bench::CommonFlags common = bench::ParseCommonFlags(flags);
  if (flags.GetBool("hier", false)) return RunHierStudy(flags, common);

  const bench::Scale scale = bench::Scale::FromFlags(flags);
  const auto cfg = common.Config();

  std::cout << "Energy (extension): estimated dynamic energy, DSW vs GL ("
            << cfg.num_cores() << " cores)\n\n";

  // RunExperiment does not expose the StatSet, so re-run here with a
  // local system per configuration.
  harness::Table t({"Benchmark", "Barrier", "Total nJ", "NoC nJ", "NoC share",
                    "G-line nJ", "Energy saved"});
  // --barrier swaps in any software reference set (unknown names exit
  // 2, like glbsim); GL always runs last, and the "Energy saved" column
  // compares every row against the first barrier in the list.
  const auto sw_kinds = bench::BarrierListFromFlags(
      flags, "barrier", {harness::BarrierKind::kDSW});
  std::vector<harness::BarrierKind> kinds = sw_kinds;
  kinds.push_back(harness::BarrierKind::kGL);

  for (const char* name : {"Kernel2", "Kernel3", "Kernel6", "UNSTRUCTURED",
                           "OCEAN", "EM3D"}) {
    std::vector<Row> rows;
    for (auto kind : kinds) {
      cmp::CmpSystem sys(cfg.ForBarrier(kind));
      auto workload = harness::MakeWorkloadOrExit(name, scale);
      workload->Init(sys);
      auto barrier = harness::MakeBarrier(kind, sys);
      const bool ok = sys.RunPrograms([&](core::Core& c, CoreId id) {
        return workload->Body(c, id, *barrier);
      });
      if (!ok || !workload->Validate(sys).empty()) {
        std::cerr << "run failed: " << name << '\n';
        return 1;
      }
      rows.push_back(Row{{}, power::Estimate(sys.stats(), sys.gline())});
      rows.back().metrics.barrier = harness::ToString(kind);
    }
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& r = rows[i];
      const double saved =
          1.0 - r.energy.total_pj() / rows[0].energy.total_pj();
      t.AddRow({name, r.metrics.barrier,
                harness::Table::Num(r.energy.total_pj() / 1000.0, 1),
                harness::Table::Num(r.energy.noc_pj / 1000.0, 1),
                harness::Table::Pct(r.energy.noc_fraction()),
                harness::Table::Num(r.energy.gline_pj / 1000.0, 2),
                i == 0 ? std::string("-") : harness::Table::Pct(saved)});
    }
  }
  t.Print(std::cout);
  std::cout << "\nThe G-line rows replace all barrier NoC/cache energy with"
               " microjoule-scale\nG-line signalling — quantifying the paper's"
               " §1 claim that removing barrier\ntraffic should bring"
               " 'important savings in terms of energy consumption'.\n";
  return 0;
}
