#include "harness/manifest.h"

#include <fstream>
#include <ostream>
#include <sstream>

#include "core/timebreak.h"
#include "fault/fault_model.h"

namespace glb::harness {

NocHeatmap CollectNocHeatmap(const noc::Mesh& mesh) {
  NocHeatmap hm;
  hm.rows = mesh.config().rows;
  hm.cols = mesh.config().cols;
  const std::uint32_t n = mesh.config().num_nodes();
  hm.router_flits.reserve(n);
  for (auto& grid : hm.link_flits) grid.reserve(n);
  for (std::uint32_t node = 0; node < n; ++node) {
    hm.router_flits.push_back(mesh.RouterFlits(node));
    for (int d = 0; d < noc::Mesh::kNumLinkDirs; ++d) {
      hm.link_flits[static_cast<std::size_t>(d)].push_back(mesh.LinkFlits(node, d));
    }
  }
  return hm;
}

namespace {

void WriteHistogramSummary(json::Writer& w, const Histogram& h) {
  w.BeginObject();
  w.Field("count", h.count());
  w.Field("sum", h.sum());
  w.Field("min", h.min());
  w.Field("max", h.max());
  w.Field("mean", h.mean());
  w.Field("p50", h.PercentileApprox(0.50));
  w.Field("p95", h.PercentileApprox(0.95));
  w.Field("p99", h.PercentileApprox(0.99));
  w.EndObject();
}

}  // namespace

void WriteStatsBlock(json::Writer& w, const StatSet& stats) {
  w.Key("counters");
  w.BeginObject();
  stats.ForEachCounter(
      [&](const std::string& name, const Counter& c) { w.Field(name, c.value()); });
  w.EndObject();
  w.Key("histograms");
  w.BeginObject();
  stats.ForEachHistogram([&](const std::string& name, const Histogram& h) {
    w.Key(name);
    WriteHistogramSummary(w, h);
  });
  w.EndObject();
}

void WriteFaultPlan(json::Writer& w, const fault::FaultPlan& plan) {
  w.Field("enabled", plan.enabled());
  w.Field("seed", plan.seed);
  w.Field("gline_drop_rate", plan.gline_drop_rate);
  w.Field("gline_dup_rate", plan.gline_dup_rate);
  w.Field("csma_corrupt_rate", plan.csma_corrupt_rate);
  w.Field("core_freeze_rate", plan.core_freeze_rate);
  w.Field("noc_delay_rate", plan.noc_delay_rate);
  w.Field("noc_drop_rate", plan.noc_drop_rate);
  w.Field("csma_max_skew", plan.csma_max_skew);
  w.Field("core_freeze_cycles", plan.core_freeze_cycles);
  w.Field("noc_delay_cycles", plan.noc_delay_cycles);
  w.Field("noc_retransmit_cycles", plan.noc_retransmit_cycles);
  if (plan.core_slow_rate > 0 || plan.work_skew > 0) {
    // Straggler knobs appear only when live so pre-straggler manifests
    // stay byte-identical.
    w.Field("core_slow_rate", plan.core_slow_rate);
    w.Field("core_slow_factor", plan.core_slow_factor);
    w.Field("work_skew", plan.work_skew);
  }
  w.Field("scripted_faults", static_cast<std::uint64_t>(plan.script.size()));
  if (!plan.script.empty()) {
    w.Key("script");
    w.BeginArray();
    for (const fault::ScriptedFault& f : plan.script) {
      w.BeginObject();
      w.Field("cycle", f.cycle);
      w.Field("site", fault::ToString(f.site));
      w.Field("target", f.target);
      w.Field("magnitude", static_cast<std::int64_t>(f.magnitude));
      w.EndObject();
    }
    w.EndArray();
  }
}

namespace {

void WriteGeometry(json::Writer& w, const char* key, const mem::CacheGeometry& g) {
  w.Key(key);
  w.BeginObject();
  w.Field("size_bytes", g.size_bytes);
  w.Field("ways", g.ways);
  w.Field("line_bytes", g.line_bytes);
  w.EndObject();
}

void WriteConfig(json::Writer& w, const cmp::CmpConfig& cfg) {
  w.Key("config");
  w.BeginObject();
  w.Field("rows", cfg.rows);
  w.Field("cols", cfg.cols);
  w.Field("cores", cfg.num_cores());
  WriteGeometry(w, "l1", cfg.l1);
  WriteGeometry(w, "l2", cfg.l2);
  w.Key("coherence");
  w.BeginObject();
  w.Field("l1_latency", cfg.coherence.l1_latency);
  w.Field("l2_latency", cfg.coherence.l2_latency);
  w.Field("dram_latency", cfg.coherence.dram_latency);
  w.Field("control_bytes", cfg.coherence.control_bytes);
  w.Field("line_bytes", cfg.coherence.line_bytes);
  w.EndObject();
  w.Key("noc");
  w.BeginObject();
  w.Field("router_latency", cfg.noc.router_latency);
  w.Field("link_latency", cfg.noc.link_latency);
  w.Field("link_bytes", cfg.noc.link_bytes);
  w.Field("local_latency", cfg.noc.local_latency);
  w.EndObject();
  w.Key("gline");
  w.BeginObject();
  w.Field("max_transmitters", cfg.gline.max_transmitters);
  w.Field("relaxed_tx_policy", cfg.gline.policy == gline::TxPolicy::kRelaxed);
  w.Field("watchdog_timeout", cfg.gline.watchdog_timeout);
  w.Field("max_retries", cfg.gline.max_retries);
  // fallback_latency, watchdog_alpha and watchdog_max echo constants
  // under their old keys, so manifests keep their shape (watchdog_max 0
  // means kWatchdogCapFactor x watchdog_timeout).
  w.Field("fallback_latency", gline::kFallbackLatency);
  if (cfg.gline.adaptive() || cfg.gline.rejoin_enabled()) {
    // Self-healing v2 knobs appear only when live so v1 manifests stay
    // byte-identical.
    w.Field("watchdog_mult", cfg.gline.watchdog_mult);
    w.Field("watchdog_alpha", gline::kWatchdogAlpha);
    w.Field("watchdog_max", Cycle{0});
    w.Field("probe_after", cfg.gline.probe_after);
    w.Field("probe_successes", cfg.gline.probe_successes);
  }
  w.EndObject();
  if (cfg.hier.enabled) {
    // Echoed only for hierarchical runs so flat-network manifests stay
    // byte-identical to pre-hierarchy builds. The resilience knobs are
    // the chip's one node config, repeated here so the block reads as
    // it always has.
    const gline::HierConfig dev = cmp::GlineDevice(cfg.gline_kind(), cfg.gline, "");
    w.Key("hier");
    w.BeginObject();
    w.Field("enabled", cfg.hier.enabled);
    w.Field("cluster_rows", dev.cluster_rows);
    w.Field("cluster_cols", dev.cluster_cols);
    w.Field("max_transmitters", dev.node.max_transmitters);
    w.Field("watchdog_timeout", dev.node.watchdog_timeout);
    w.Field("max_retries", dev.node.max_retries);
    w.Field("fallback_latency", gline::kFallbackLatency);
    if (dev.node.adaptive() || dev.node.rejoin_enabled()) {
      w.Field("watchdog_mult", dev.node.watchdog_mult);
      w.Field("watchdog_alpha", gline::kWatchdogAlpha);
      w.Field("watchdog_max", Cycle{0});
      w.Field("probe_after", dev.node.probe_after);
      w.Field("probe_successes", dev.node.probe_successes);
    }
    w.EndObject();
  }
  w.Key("core");
  w.BeginObject();
  w.Field("gl_notify_overhead", cfg.core.gl_notify_overhead);
  w.Field("gl_resume_overhead", cfg.core.gl_resume_overhead);
  w.EndObject();
  w.Key("fault");
  w.BeginObject();
  WriteFaultPlan(w, cfg.fault);
  w.EndObject();
  w.EndObject();
}

void WriteExperiment(json::Writer& w, const ExperimentSpec& spec) {
  w.Key("experiment");
  w.BeginObject();
  w.Field("workload", spec.workload);
  w.Field("barrier", ToString(spec.barrier));
  if (spec.max_cycles != kCycleNever) w.Field("max_cycles", spec.max_cycles);
  w.Key("scale");
  w.BeginObject();
  w.Field("paper", spec.scale.paper);
  w.Field("synthetic_iters", spec.scale.synthetic_iters);
  w.Field("k2_n", spec.scale.k2_n);
  w.Field("k2_iters", spec.scale.k2_iters);
  w.Field("k3_n", spec.scale.k3_n);
  w.Field("k3_iters", spec.scale.k3_iters);
  w.Field("k6_n", spec.scale.k6_n);
  w.Field("k6_iters", spec.scale.k6_iters);
  w.Field("em3d_nodes", spec.scale.em3d_nodes);
  w.Field("em3d_steps", spec.scale.em3d_steps);
  w.Field("ocean_grid", spec.scale.ocean_grid);
  w.Field("ocean_iters", spec.scale.ocean_iters);
  w.Field("unstr_nodes", spec.scale.unstr_nodes);
  w.Field("unstr_edges", spec.scale.unstr_edges);
  w.Field("unstr_steps", spec.scale.unstr_steps);
  w.EndObject();
  w.EndObject();
}

void WriteRun(json::Writer& w, const RunMetrics& m, const cmp::CmpConfig& cfg) {
  w.Key("run");
  w.BeginObject();
  w.Field("workload", m.workload);
  w.Field("barrier", m.barrier);
  w.Field("cores", m.cores);
  w.Field("cycles", m.cycles);
  w.Field("barriers_per_core", m.barriers);
  w.Field("barrier_period", m.barrier_period);
  w.Field("completed", m.completed);
  w.Field("validation", m.validation);
  w.Field("stall", m.stall);
  w.Field("host_events", m.host_events);
  // Host-side throughput (wall clock, not simulated time): the perf
  // trajectory BENCH_*.json tracks across engine changes.
  w.Field("host_wall_ms", m.wall_ms);
  w.Field("host_events_per_sec", m.events_per_sec);
  w.Key("breakdown");
  w.BeginObject();
  for (int i = 0; i < core::kNumTimeCats; ++i) {
    const auto cat = static_cast<core::TimeCat>(i);
    w.Field(core::ToString(cat), m.breakdown[cat]);
  }
  w.EndObject();
  w.Key("noc_msgs");
  w.BeginObject();
  w.Field("request", m.msgs_request);
  w.Field("reply", m.msgs_reply);
  w.Field("coherence", m.msgs_coherence);
  w.Field("total", m.total_msgs());
  w.EndObject();
  w.Key("fault_outcome");
  w.BeginObject();
  w.Field("faults_injected", m.faults_injected);
  w.Field("barrier_timeouts", m.barrier_timeouts);
  w.Field("barrier_retries", m.barrier_retries);
  w.Field("degraded_episodes", m.degraded_episodes);
  w.EndObject();
  if (cfg.gline.adaptive() || cfg.gline.rejoin_enabled()) {
    // Self-healing v2 outcome; emitted only when the adaptive watchdog
    // or hardware rejoin is configured, so v1 manifests stay
    // byte-identical.
    w.Key("resilience");
    w.BeginObject();
    w.Field("barrier_probes", m.barrier_probes);
    w.Field("barrier_rejoins", m.barrier_rejoins);
    w.EndObject();
  }
  if (!m.tuned_choice.empty()) {
    // TUNED meta-barrier echo; emitted only when the decision table
    // actually fired, so every other barrier's manifest stays
    // byte-identical.
    w.Key("tuned");
    w.BeginObject();
    w.Field("choice", m.tuned_choice);
    w.Field("measured_period", m.tuned_measured_period);
    w.Field("warmup_episodes", m.tuned_warmup_episodes);
    w.EndObject();
  }
  w.EndObject();
}

void WriteGrid(json::Writer& w, const std::vector<std::uint64_t>& grid) {
  w.BeginArray();
  for (std::uint64_t v : grid) w.Uint(v);
  w.EndArray();
}

void WriteHeatmap(json::Writer& w, const NocHeatmap& hm) {
  w.Key("noc_heatmap");
  w.BeginObject();
  w.Field("rows", hm.rows);
  w.Field("cols", hm.cols);
  w.Key("router_flits");
  WriteGrid(w, hm.router_flits);
  w.Key("link_flits");
  w.BeginObject();
  for (int d = 0; d < noc::Mesh::kNumLinkDirs; ++d) {
    w.Key(noc::Mesh::kLinkDirNames[d]);
    WriteGrid(w, hm.link_flits[static_cast<std::size_t>(d)]);
  }
  w.EndObject();
  w.EndObject();
}

void WriteHierLevels(json::Writer& w,
                     const std::vector<gline::LevelWireSummary>& levels) {
  w.Key("hier_levels");
  w.BeginArray();
  for (const gline::LevelWireSummary& l : levels) {
    w.BeginObject();
    w.Field("level", l.level);
    w.Field("nodes", l.nodes);
    w.Field("lines", l.lines);
    w.Field("span_tiles", l.span_tiles);
    w.Field("signals", l.signals);
    w.Field("handoffs", l.handoffs);
    w.EndObject();
  }
  w.EndArray();
}

void WriteHostProfile(json::Writer& w, const prof::Snapshot& snap) {
  // Host wall clock: outside the determinism contract by design, like
  // host_wall_ms. Consumers must never byte-diff this block.
  w.Key("host_profile");
  w.BeginObject();
  w.Field("total_ms", static_cast<double>(snap.total_ns()) / 1e6);
  w.Key("categories_ms");
  w.BeginObject();
  for (int c = 0; c < prof::kNumCats; ++c) {
    const auto cat = static_cast<prof::Cat>(c);
    w.Field(prof::ToString(cat), snap.ms(cat));
  }
  w.EndObject();
  w.EndObject();
}

void WriteTenants(json::Writer& w, const std::vector<TenantMetrics>& tenants) {
  w.Key("tenants");
  w.BeginArray();
  for (const TenantMetrics& t : tenants) {
    w.BeginObject();
    w.Field("name", t.name);
    w.Field("rect", t.rect.ToString());
    w.Field("workload", t.workload);
    w.Field("barrier", t.barrier);
    w.Field("cores", t.cores);
    w.Field("barriers", t.barriers);
    w.Field("waits", t.waits);
    w.Field("finished_at", t.finished_at);
    w.Key("wait_cycles");
    WriteHistogramSummary(w, t.wait_cycles);
    w.Key("breakdown");
    w.BeginObject();
    for (int i = 0; i < core::kNumTimeCats; ++i) {
      const auto cat = static_cast<core::TimeCat>(i);
      w.Field(core::ToString(cat), t.breakdown[cat]);
    }
    w.EndObject();
    w.Field("router_flits", t.router_flits);
    w.Field("gline_signals", t.gline_signals);
    w.Field("validation", t.validation);
    w.EndObject();
  }
  w.EndArray();
}

void WriteSamples(json::Writer& w, const trace::Sampler& sampler) {
  w.Field("interval", sampler.interval());
  w.Key("samples");
  w.BeginArray();
  for (const trace::Sample& s : sampler.samples()) {
    w.BeginObject();
    w.Field("t", s.t);
    w.Key("counters");
    w.BeginObject();
    for (const auto& [name, value] : s.values) w.Field(name, value);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
}

}  // namespace

void WriteRunManifest(std::ostream& os, const RunMetrics& m, const cmp::CmpConfig& cfg,
                      const StatSet& stats, const ManifestOptions& opts) {
  json::Writer w(os, opts.pretty);
  w.BeginObject();
  w.Field("schema", kRunManifestSchema);
  w.Field("schema_version", kRunManifestVersion);
  w.Field("tool", opts.tool);
  if (opts.experiment != nullptr) WriteExperiment(w, *opts.experiment);
  WriteRun(w, m, cfg);
  if (opts.tenants != nullptr) WriteTenants(w, *opts.tenants);
  WriteConfig(w, cfg);
  w.Key("stats");
  w.BeginObject();
  WriteStatsBlock(w, stats);
  w.EndObject();
  // Observability blocks, each gated on its option so default manifests
  // stay byte-identical to older builds.
  if (opts.heatmap != nullptr) WriteHeatmap(w, *opts.heatmap);
  if (opts.hier_levels != nullptr) WriteHierLevels(w, *opts.hier_levels);
  if (opts.host_profile != nullptr) WriteHostProfile(w, *opts.host_profile);
  if (opts.sampler != nullptr && opts.sampler->enabled()) {
    w.Key("timeseries");
    w.BeginObject();
    WriteSamples(w, *opts.sampler);
    w.EndObject();
  }
  w.EndObject();
}

void WriteTimeseries(std::ostream& os, const trace::Sampler& sampler,
                     const TimeseriesMeta& meta, bool pretty) {
  json::Writer w(os, pretty);
  w.BeginObject();
  w.Field("schema", kTimeseriesSchema);
  w.Field("schema_version", kTimeseriesVersion);
  w.Field("tool", meta.tool);
  w.Key("run");
  w.BeginObject();
  w.Field("workload", meta.workload);
  w.Field("barrier", meta.barrier);
  w.Field("cores", meta.cores);
  w.EndObject();
  WriteSamples(w, sampler);
  w.EndObject();
}

bool AppendTimeseriesLine(const std::string& path, const trace::Sampler& sampler,
                          const TimeseriesMeta& meta) {
  std::ofstream f(path, std::ios::app);
  if (!f) return false;
  WriteTimeseries(f, sampler, meta, /*pretty=*/false);
  f << '\n';
  return f.good();
}

bool AppendRunManifestLine(const std::string& path, const RunMetrics& m,
                           const cmp::CmpConfig& cfg, const StatSet& stats,
                           const ManifestOptions& opts) {
  std::ofstream f(path, std::ios::app);
  if (!f) return false;
  ManifestOptions compact = opts;
  compact.pretty = false;
  WriteRunManifest(f, m, cfg, stats, compact);
  f << '\n';
  return f.good();
}

}  // namespace glb::harness
