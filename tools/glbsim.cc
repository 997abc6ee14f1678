// glbsim — one-shot simulation driver.
//
// Runs any (workload, barrier, machine) combination and dumps
// everything a study needs: run metrics, the Figure-6 breakdown, the
// Figure-7 traffic classes, the energy estimate, and (with --stats) the
// raw counter set. The Swiss-army knife the table/figure benches are
// specializations of.
//
//   glbsim --workload Kernel3 --barrier GL --cores 32
//   glbsim --workload OCEAN --barrier DSW --cores 16 --ocean-iters 10 --stats
//   glbsim --workload Synthetic --barrier HYB --synthetic-iters 500 --csv
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cmp/partition.h"
#include "common/prof.h"
#include "harness/manifest.h"
#include "harness/progress.h"
#include "harness/tenants.h"
#include "power/energy_model.h"
#include "trace/sampler.h"

namespace {

void Usage() {
  std::cout <<
      "glbsim — G-line barrier CMP simulator driver\n"
      "  --workload W    Synthetic|Kernel2|Kernel3|Kernel6|EM3D|OCEAN|UNSTRUCTURED\n"
      "                  (any name registered via harness::RegisterWorkload)\n"
      "  --barrier B     GL|GLH|CSW|DSW|HYB|DIS|RDBL|GALOIS|TUNED (default GL;\n"
      "                  GLH aka gl-hier is the hierarchical multi-level G-line\n"
      "                  network; GALOIS aka galois-fast; TUNED picks a software\n"
      "                  barrier from a coll_tuned-style table after a short\n"
      "                  measured warmup)\n"
      "  --cores N       core count, mesh auto-factored (default 32)\n"
      "  --paper-scale   exact Table-2 inputs (slow)\n"
      "  --scale-cores N weak-scale the problem sizes for N cores\n"
      "                  (harness::Scale::ForCores; default: 32-core sizes)\n"
      "  --<wl>-iters N  per-workload iteration overrides, and problem sizes:\n"
      "                  --k2-n --k3-n --k6-n --em3d-nodes --ocean-grid\n"
      "                  --unstr-nodes --unstr-edges (see harness/spec.h);\n"
      "                  a size too small for the cores exits 2\n"
      "  --max-cycles N  abort (with a stall diagnostic) after N cycles\n"
      "  --stats         dump the raw statistics registry\n"
      "  --csv           emit machine-readable key,value lines\n"
      "multi-tenant space sharing (repeatable; see DESIGN.md §9):\n"
      "  --tenant NAME:RECT:WORKLOAD:BARRIER[:TX]\n"
      "                  admit one tenant on a rectangular partition and run\n"
      "                  every tenant concurrently on the shared chip. RECT is\n"
      "                  ROWSxCOLS[@ROW,COL] in mesh tiles (origin 0,0);\n"
      "                  WORKLOAD/BARRIER as above; TX caps the tenant's\n"
      "                  private G-line transmitter budget (default 6).\n"
      "                  Problem sizes weak-scale to each tenant's core count\n"
      "                  unless --scale-cores pins them. Rects must not\n"
      "                  overlap; non-member tiles idle.\n"
      "                    glbsim --cores 32 --tenant fg:4x4:Synthetic:GL \\\n"
      "                           --tenant bg:4x4@0,4:Kernel3:RDBL --json\n"
      "observability (docs/OBSERVABILITY.md):\n"
      "  --trace FILE    write a Perfetto/Chrome trace-event JSON of the run\n"
      "  --json [FILE]   bare: print a pretty run manifest to stdout instead of\n"
      "                  the report; with FILE: append one compact JSONL manifest\n"
      "                  line (the BENCH_*.json convention) and keep the report\n"
      "  --sample-interval N  engine-driven interval sampler: snapshot changed\n"
      "                  counters every N cycles into a glb.timeseries block\n"
      "                  (bare --json) or an appended JSONL row (--json FILE);\n"
      "                  0 = off, zero overhead\n"
      "  --heatmap       collect per-router/per-link flit grids into the\n"
      "                  manifest's noc_heatmap block (+ hier_levels rollups\n"
      "                  under --barrier GLH); render with glb_report\n"
      "  --profile       host self-profiler: wall-clock attribution across\n"
      "                  engine/noc/coherence/barrier/workload categories\n"
      "                  (host_profile block; non-deterministic, never diff it)\n"
      "  --progress      stderr heartbeat (cycles, events/s, ETA); auto-silenced\n"
      "                  when stderr is not a TTY\n"
      "  --log-level L   off|warn|info|trace (overrides GLB_LOG)\n"
      "fault injection & self-healing (see README.md):\n"
      "  --fault_watchdog N      barrier watchdog timeout in cycles (0 = off;\n"
      "                          enables retry + software fallback)\n"
      "  --fault_retries N       hardware retries before degrading (default 2)\n"
      "  --fault_watchdog_mult M adaptive watchdog: window = clamp(M * EWMA of\n"
      "                          episode spans, floor=--fault_watchdog,\n"
      "                          cap=64 * floor) (0 = fixed window)\n"
      "  --fault_probe_after N   shadow-probe the hardware path after N degraded\n"
      "                          fallback episodes (0 = sticky degraded mode)\n"
      "  --fault_probe_successes K  consecutive clean probes to rejoin (default 2)\n"
      "  --fault_seed S          seed for the probabilistic fault stream\n"
      "  --fault_gline_drop R    per-batch G-line assertion loss rate\n"
      "  --fault_gline_dup R     per-batch duplicated-assertion rate\n"
      "  --fault_csma R          S-CSMA miscount rate (--fault_csma_skew K)\n"
      "  --fault_freeze R        core-freeze rate (--fault_freeze_cycles N)\n"
      "  --fault_noc_delay R     link delay rate (--fault_noc_delay_cycles N)\n"
      "  --fault_noc_drop R      link CRC-retransmit rate\n"
      "                          (--fault_noc_retransmit_cycles N)\n"
      "  --fault_slow R          fraction of cores that are persistent stragglers\n"
      "                          (--fault_slow_factor F compute stretch, def 2.0)\n"
      "  --fault_skew S          deterministic work skew: core i's compute is\n"
      "                          stretched by 1 + S*i/(n-1)\n"
      "  --fault_script \"cycle:site[:target[:magnitude]],...\"  scripted faults\n"
      "                  sites: gline_drop|gline_dup|csma_corrupt|core_freeze|\n"
      "                  noc_delay|noc_drop|core_slow|work_skew\n";
}

/// Splits one --tenant value on ':' (the rect's '@'/',' never collide).
std::vector<std::string> SplitTenantFields(const std::string& value) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= value.size()) {
    const std::size_t colon = value.find(':', start);
    const std::size_t end = colon == std::string::npos ? value.size() : colon;
    out.push_back(value.substr(start, end - start));
    if (colon == std::string::npos) break;
    start = colon + 1;
  }
  return out;
}

/// Parses "NAME:RECT:WORKLOAD:BARRIER[:TX]"; exits 2 with a diagnostic
/// on malformed input (the flag-parser convention).
glb::harness::TenantSpec ParseTenantOrExit(const glb::Flags& flags,
                                           const std::string& value) {
  using namespace glb;
  const std::vector<std::string> f = SplitTenantFields(value);
  if (f.size() < 4 || f.size() > 5) {
    std::cerr << "bad --tenant '" << value
              << "' (want NAME:RECT:WORKLOAD:BARRIER[:TX], e.g. "
                 "fg:4x4@0,0:Synthetic:GL)\n";
    std::exit(2);
  }
  harness::TenantSpec t;
  t.name = f[0];
  if (!cmp::Rect::Parse(f[1], &t.rect)) {
    std::cerr << "bad --tenant rect '" << f[1]
              << "' (want ROWSxCOLS[@ROW,COL], e.g. 4x4@0,4)\n";
    std::exit(2);
  }
  if (!harness::KnownWorkload(f[2])) {
    std::cerr << "unknown workload '" << f[2] << "' (valid:";
    for (const std::string& n : harness::WorkloadNames()) std::cerr << ' ' << n;
    std::cerr << ")\n";
    std::exit(2);
  }
  t.workload = f[2];
  t.barrier = harness::BarrierKindFromNameOrExit(f[3]);
  if (f.size() == 5) {
    char* end = nullptr;
    const unsigned long tx = std::strtoul(f[4].c_str(), &end, 10);
    if (end == f[4].c_str() || *end != '\0' || tx == 0 || tx > 1u << 10) {
      std::cerr << "bad --tenant transmitter budget '" << f[4] << "'\n";
      std::exit(2);
    }
    t.max_transmitters = static_cast<std::uint32_t>(tx);
  }
  // Problem sizes weak-scale to the tenant's own core count so two
  // tenants of different rects do comparable per-core work;
  // --scale-cores pins every tenant to one reference size.
  t.scale = flags.Has("scale-cores")
                ? harness::Scale::FromFlags(flags, flags.GetUint32("scale-cores", 32))
                : harness::Scale::FromFlags(flags, t.rect.num_cores());
  return t;
}

/// The --tenant driver path: validates the RunSpec up front (exit 2),
/// runs every tenant concurrently, and reports per-tenant isolation
/// metrics next to the usual chip-level summary/manifest.
int RunMultiTenant(const glb::Flags& flags, const glb::bench::CommonFlags& common,
                   const std::vector<std::string>& tenant_flags) {
  using namespace glb;
  harness::RunSpec spec;
  spec.cfg = common.Config();
  if (flags.Has("max-cycles")) {
    spec.max_cycles = flags.GetUint64("max-cycles", 0);
  }
  for (const std::string& value : tenant_flags) {
    spec.tenants.push_back(ParseTenantOrExit(flags, value));
  }
  const std::string admit = harness::ValidateRunSpec(spec);
  if (!admit.empty()) {
    std::cerr << "bad --tenant configuration: " << admit << "\n";
    return 2;
  }

  const bool want_heatmap = flags.GetBool("heatmap", false);
  const bool want_profile = flags.GetBool("profile", false);
  const bool want_csv = flags.GetBool("csv", false);
  const bool want_stats = flags.GetBool("stats", false);
  const bool want_progress = flags.GetBool("progress", false);
  const Cycle sample_interval = flags.GetUint64("sample-interval", 0);
  bench::RejectUnreadFlagsOrExit(flags);
  prof::Enable(want_profile);

  cmp::CmpSystem sys(spec.cfg);
  // Tenant barrier networks are admitted after the sampler exists, so
  // only the chip-wide breakdown gauges ride along here.
  trace::Sampler sampler(sys.engine(), sys.stats(), sample_interval);
  for (int c = 0; c < core::kNumTimeCats; ++c) {
    const auto cat = static_cast<core::TimeCat>(c);
    sampler.AddGauge(std::string("core.cycles.") + core::ToString(cat),
                     [&sys, cat] { return sys.TotalBreakdown()[cat]; });
  }
  harness::Progress progress(
      sys.engine(), want_progress && harness::Progress::StderrIsTty(),
      spec.max_cycles);

  sampler.Start();
  progress.Start();
  const harness::MultiRunMetrics mm = harness::RunTenantsOn(sys, spec);
  progress.Finish();
  sampler.FinalSample();
  const prof::Snapshot prof_snap = prof::Take();

  harness::NocHeatmap heatmap;
  if (want_heatmap) heatmap = harness::CollectNocHeatmap(sys.mesh());
  const harness::TimeseriesMeta ts_meta{"glbsim", mm.run.workload,
                                        mm.run.barrier, mm.run.cores};

  if (common.json()) {
    harness::ManifestOptions opts;
    opts.tool = "glbsim";
    opts.tenants = &mm.tenants;
    if (want_heatmap) opts.heatmap = &heatmap;
    if (want_profile) opts.host_profile = &prof_snap;
    const std::string& jpath = common.json_path();
    if (common.json_bare()) {
      opts.pretty = true;
      opts.sampler = &sampler;
      harness::WriteRunManifest(std::cout, mm.run, spec.cfg, sys.stats(), opts);
      std::cout << '\n';
      return mm.run.completed && mm.run.validation.empty() ? 0 : 1;
    }
    if (!harness::AppendRunManifestLine(jpath, mm.run, spec.cfg, sys.stats(),
                                        opts)) {
      std::cerr << "failed to append manifest to " << jpath << "\n";
      return 1;
    }
    if (sampler.enabled() &&
        !harness::AppendTimeseriesLine(jpath, sampler, ts_meta)) {
      std::cerr << "failed to append timeseries to " << jpath << "\n";
      return 1;
    }
  }

  if (!mm.run.completed) {
    std::cerr << "simulation did not complete: " << mm.run.stall << "\n";
    return 1;
  }

  if (want_csv) {
    std::cout << "name,rect,workload,barrier,cores,barriers,wait_p50,"
                 "wait_p95,wait_p99,finished_at,router_flits,gline_signals,"
                 "valid\n";
    for (const harness::TenantMetrics& t : mm.tenants) {
      std::cout << t.name << ',' << t.rect.ToString() << ',' << t.workload
                << ',' << t.barrier << ',' << t.cores << ',' << t.barriers
                << ',' << t.wait_cycles.PercentileApprox(0.50) << ','
                << t.wait_cycles.PercentileApprox(0.95) << ','
                << t.wait_cycles.PercentileApprox(0.99) << ','
                << t.finished_at << ',' << t.router_flits << ','
                << t.gline_signals << ','
                << (t.validation.empty() ? "ok" : t.validation) << '\n';
    }
    return mm.run.validation.empty() ? 0 : 1;
  }

  std::cout << mm.tenants.size() << " tenants on " << sys.num_cores()
            << " cores (" << spec.cfg.rows << "x" << spec.cfg.cols
            << " mesh)\n\n";
  harness::Table table({"tenant", "rect", "workload", "barrier", "cores",
                        "barriers", "wait p50", "wait p99", "finished",
                        "valid"});
  for (const harness::TenantMetrics& t : mm.tenants) {
    table.AddRow({t.name, t.rect.ToString(), t.workload, t.barrier,
                  std::to_string(t.cores), std::to_string(t.barriers),
                  harness::Table::Num(t.wait_cycles.PercentileApprox(0.50)),
                  harness::Table::Num(t.wait_cycles.PercentileApprox(0.99)),
                  std::to_string(t.finished_at),
                  t.validation.empty() ? "ok" : t.validation});
  }
  table.Print(std::cout);
  const auto energy = power::Estimate(sys.stats(), sys.gline());
  std::cout << "\n  cycles          " << sys.LastFinish() << '\n';
  std::cout << "  noc messages    "
            << sys.stats().SumCountersWithPrefix("noc.msgs.") << '\n';
  std::cout << "  ";
  power::Print(std::cout, energy);
  std::cout << "  validation      "
            << (mm.run.validation.empty() ? "ok" : mm.run.validation) << '\n';
  std::cout << "  host events     " << sys.engine().events_processed() << '\n';
  if (sampler.enabled()) {
    std::cout << "  timeseries      " << sampler.samples().size()
              << " samples @ " << sampler.interval() << " cycles\n";
  }

  if (want_stats) {
    std::cout << "\n--- statistics registry ---\n";
    sys.stats().Print(std::cout);
  }
  return mm.run.validation.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace glb;
  Flags flags(argc, argv);
  if (flags.GetBool("help", false)) {
    Usage();
    return 0;
  }
  const bench::CommonFlags common = bench::ParseCommonFlags(flags);
  // Space-shared mode: every --tenant occurrence admits one partition
  // and the run is described by a harness::RunSpec instead.
  if (const auto tenant_flags = flags.GetStrings("tenant");
      !tenant_flags.empty()) {
    return RunMultiTenant(flags, common, tenant_flags);
  }
  // The run is described by a name-addressed ExperimentSpec (also echoed
  // into the --json manifest so a line is replayable). --scale-cores
  // applies the weak-scaling rules before the per-size flag overrides.
  harness::ExperimentSpec spec;
  spec.workload = flags.GetString("workload", "Synthetic");
  spec.barrier =
      harness::BarrierKindFromNameOrExit(flags.GetString("barrier", "GL"));
  spec.scale = flags.Has("scale-cores")
                   ? harness::Scale::FromFlags(flags, flags.GetUint32("scale-cores", 32))
                   : harness::Scale::FromFlags(flags);
  spec.cfg = common.Config();
  if (flags.Has("max-cycles")) {
    spec.max_cycles = flags.GetUint64("max-cycles", 0);
  }
  const cmp::CmpConfig cfg = spec.cfg.ForBarrier(spec.barrier);

  // Build and run manually (RunExperiment hides the StatSet, which
  // --stats and the energy estimate need).
  const bool want_heatmap = flags.GetBool("heatmap", false);
  const bool want_profile = flags.GetBool("profile", false);
  const bool want_csv = flags.GetBool("csv", false);
  const bool want_stats = flags.GetBool("stats", false);
  const bool want_progress = flags.GetBool("progress", false);
  const Cycle sample_interval = flags.GetUint64("sample-interval", 0);
  bench::RejectUnreadFlagsOrExit(flags);
  prof::Enable(want_profile);

  auto workload = harness::MakeWorkloadOrExit(spec.workload, spec.scale);
  if (const std::string why = workload->ValidateConfig(cfg.num_cores());
      !why.empty()) {
    std::cerr << "bad workload size: " << why << "\n";
    return 2;
  }
  cmp::CmpSystem sys(cfg);
  workload->Init(sys);
  auto barrier = harness::MakeBarrier(spec.barrier, sys);
  const Cycle max_cycles = spec.max_cycles;

  // Interval sampler: watchdog windows and the compute-vs-wait breakdown
  // ride along as gauges next to every StatSet counter.
  trace::Sampler sampler(sys.engine(), sys.stats(), sample_interval);
  for (std::uint32_t l = 0; l < sys.gline().num_levels(); ++l) {
    const gline::BarrierNetwork& node = sys.gline().node(l, 0);
    sampler.AddGauge(node.stat_prefix() + ".watchdog_window",
                     [&node] { return node.WatchdogWindow(); });
  }
  for (int c = 0; c < core::kNumTimeCats; ++c) {
    const auto cat = static_cast<core::TimeCat>(c);
    sampler.AddGauge(std::string("core.cycles.") + core::ToString(cat),
                     [&sys, cat] { return sys.TotalBreakdown()[cat]; });
  }
  harness::Progress progress(
      sys.engine(), want_progress && harness::Progress::StderrIsTty(), max_cycles);

  const auto t0 = std::chrono::steady_clock::now();
  sampler.Start();
  progress.Start();
  const sim::RunStatus status = sys.RunProgramsStatus(
      [&](core::Core& c, CoreId id) { return workload->Body(c, id, *barrier); },
      max_cycles);
  const std::chrono::duration<double, std::milli> wall =
      std::chrono::steady_clock::now() - t0;
  progress.Finish();
  sampler.FinalSample();
  const prof::Snapshot prof_snap = prof::Take();

  harness::NocHeatmap heatmap;
  std::vector<gline::LevelWireSummary> hier_levels;
  if (want_heatmap) {
    heatmap = harness::CollectNocHeatmap(sys.mesh());
    if (cfg.hier.enabled) hier_levels = sys.gline().LevelSummaries();
  }
  const harness::TimeseriesMeta ts_meta{
      "glbsim", spec.workload, harness::ToString(spec.barrier),
      static_cast<std::uint32_t>(cfg.rows * cfg.cols)};

  // Manifests are emitted even for stalled runs (the stall diagnostic
  // lands in run.validation / run.stall).
  if (common.json()) {
    const harness::RunMetrics m = harness::CollectMetrics(
        sys, status, *workload, harness::ToString(spec.barrier), wall.count());
    harness::ManifestOptions opts;
    opts.tool = "glbsim";
    opts.experiment = &spec;
    if (want_heatmap) {
      opts.heatmap = &heatmap;
      if (!hier_levels.empty()) opts.hier_levels = &hier_levels;
    }
    if (want_profile) opts.host_profile = &prof_snap;
    const std::string& jpath = common.json_path();
    if (common.json_bare()) {  // bare --json: manifest is the report
      opts.pretty = true;
      opts.sampler = &sampler;  // timeseries embeds in the one document
      harness::WriteRunManifest(std::cout, m, cfg, sys.stats(), opts);
      std::cout << '\n';
      return m.completed && m.validation.empty() ? 0 : 1;
    }
    if (!harness::AppendRunManifestLine(jpath, m, cfg, sys.stats(), opts)) {
      std::cerr << "failed to append manifest to " << jpath << "\n";
      return 1;
    }
    // Sampled series land beside the manifest as their own JSONL row.
    if (sampler.enabled() &&
        !harness::AppendTimeseriesLine(jpath, sampler, ts_meta)) {
      std::cerr << "failed to append timeseries to " << jpath << "\n";
      return 1;
    }
  }

  if (!status.idle) {
    std::cerr << "simulation did not complete: " << status.DescribeStall() << "\n";
    return 1;
  }
  const std::string validation = workload->Validate(sys);
  const auto bd = sys.TotalBreakdown();
  const auto energy = power::Estimate(sys.stats(), sys.gline());
  const std::uint64_t barriers =
      sys.stats().CounterValue("core.barriers") / sys.num_cores();
  const auto msgs = sys.stats().SumCountersWithPrefix("noc.msgs.");
  const harness::RunMetrics resilience = harness::CollectSystemMetrics(sys, status);

  if (want_csv) {
    auto kv = [](const std::string& k, const std::string& v) {
      std::cout << k << ',' << v << '\n';
    };
    kv("workload", workload->name());
    kv("barrier", barrier->name());
    kv("cores", std::to_string(sys.num_cores()));
    kv("cycles", std::to_string(sys.LastFinish()));
    kv("barriers_per_core", std::to_string(barriers));
    kv("noc_msgs", std::to_string(msgs));
    for (int c = 0; c < core::kNumTimeCats; ++c) {
      kv(std::string("cycles_") + ToString(static_cast<core::TimeCat>(c)),
         std::to_string(bd[static_cast<core::TimeCat>(c)]));
    }
    kv("energy_total_pj", harness::Table::Num(energy.total_pj()));
    kv("energy_noc_pj", harness::Table::Num(energy.noc_pj));
    if (sys.injector() != nullptr) {
      kv("faults_injected", std::to_string(sys.injector()->total_injected()));
      kv("barrier_timeouts", std::to_string(resilience.barrier_timeouts));
      kv("barrier_retries", std::to_string(resilience.barrier_retries));
      kv("degraded_episodes", std::to_string(resilience.degraded_episodes));
      kv("barrier_probes", std::to_string(resilience.barrier_probes));
      kv("barrier_rejoins", std::to_string(resilience.barrier_rejoins));
    }
    kv("valid", validation.empty() ? "ok" : validation);
    return validation.empty() ? 0 : 1;
  }

  std::cout << workload->name() << " (" << workload->input_desc() << ") under "
            << barrier->name() << " on " << sys.num_cores() << " cores ("
            << cfg.rows << "x" << cfg.cols << " mesh)\n\n";
  std::cout << "  cycles          " << sys.LastFinish() << '\n';
  std::cout << "  barriers/core   " << barriers;
  if (barriers > 0) {
    std::cout << "  (period " << sys.LastFinish() / barriers << " cycles)";
  }
  std::cout << '\n';
  std::cout << "  noc messages    " << msgs << '\n';
  std::cout << "  time breakdown  ";
  for (int c = 0; c < core::kNumTimeCats; ++c) {
    const auto cat = static_cast<core::TimeCat>(c);
    std::cout << ToString(cat) << "=" << bd[cat] << ' ';
  }
  std::cout << '\n';
  std::cout << "  ";
  power::Print(std::cout, energy);
  std::cout << "  validation      " << (validation.empty() ? "ok" : validation)
            << '\n';
  std::cout << "  host events     " << sys.engine().events_processed() << '\n';
  if (want_profile) {
    std::cout << "  host profile    total "
              << static_cast<double>(prof_snap.total_ns()) / 1e6 << " ms:";
    for (int c = 0; c < prof::kNumCats; ++c) {
      const auto cat = static_cast<prof::Cat>(c);
      std::cout << ' ' << prof::ToString(cat) << '=' << prof_snap.ms(cat) << "ms";
    }
    std::cout << '\n';
  }
  if (sampler.enabled()) {
    std::cout << "  timeseries      " << sampler.samples().size()
              << " samples @ " << sampler.interval() << " cycles\n";
  }
  if (sys.injector() != nullptr) {
    std::cout << "  faults injected " << sys.injector()->total_injected()
              << "  (timeouts " << resilience.barrier_timeouts
              << ", retries " << resilience.barrier_retries
              << ", degraded episodes " << resilience.degraded_episodes << ")\n";
    if (resilience.barrier_probes > 0 || resilience.barrier_rejoins > 0) {
      std::cout << "  self-healing    probes " << resilience.barrier_probes
                << ", rejoins " << resilience.barrier_rejoins << '\n';
    }
  }
  if (cfg.hier.enabled) {
    std::cout << "  hier network    " << sys.gline().num_levels() << " levels, "
              << sys.gline().num_clusters() << " clusters, "
              << sys.gline().total_lines() << " G-lines\n";
  }

  if (want_stats) {
    std::cout << "\n--- statistics registry ---\n";
    sys.stats().Print(std::cout);
  }
  return validation.empty() ? 0 : 1;
}
