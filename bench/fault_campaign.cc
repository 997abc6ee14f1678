// Fault-injection campaign over the self-healing barrier network.
//
// Sweeps G-line fault rates across many seeded runs of a standalone
// 4x8 barrier network (watchdog + retry + software fallback armed) and
// reports how the network heals: timeouts taken, hardware retries,
// episodes finished degraded, and the latency cost of recovery versus
// the fault-free barrier (4 cycles on a 4x8 mesh: T+4 for non-column-0
// cores, see Figure 2).
//
// Every run is oracle-checked with the same invariant the fuzz tests
// enforce: the simulation never hangs, no core is released before all
// participants arrived, and every episode completes (possibly through
// the fallback). Any violation makes the binary exit nonzero, so the
// campaign doubles as a long-running acceptance test:
//
// Each (rate, seed) run builds its own Engine, G-line device,
// FaultInjector and StatSet, so the campaign fans the full grid out
// over --jobs threads; results (including violation reports) are
// aggregated and printed in submission order, byte-identical for any
// jobs value. The TSan preset in scripts/check.sh runs this sweep at
// --jobs 4 to prove the runs really are disjoint.
//
// With --barrier gl-hier (or GLH) the campaign targets the hierarchical
// multi-level network instead: a 14x14 mesh (4 clusters of 7x7 chained
// under a 2x2 top level), with faults injected on every G-line at every
// level and the same oracle — the safety invariant must hold at every
// depth.
//
//   ./bench/fault_campaign              # 5 rates x 25 seeds = 125 runs
//   ./bench/fault_campaign --seeds=50 --episodes=80 --jobs 4
//   ./bench/fault_campaign --barrier gl-hier --jobs 4
//   ./bench/fault_campaign --json BENCH_fault_campaign.json   # JSONL manifest
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/stats.h"
#include "fault/fault_injector.h"
#include "fault/fault_model.h"
#include "cmp/cmp_system.h"
#include "gline/hierarchy.h"
#include "harness/manifest.h"
#include "harness/report.h"
#include "sim/engine.h"

namespace {

using namespace glb;

struct RunResult {
  bool ok = false;
  std::uint64_t episodes = 0;
  std::uint64_t injected = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t retries = 0;
  std::uint64_t degraded_episodes = 0;
  Histogram recovery_lat;   // first fault detection -> episode completion
  Histogram episode_span;   // first arrival -> release start
  std::string violations;   // oracle-violation report, printed by the
                            // aggregator in submission order (RunOnce
                            // itself must not touch shared streams)
};

/// Campaign mesh: 4x8 flat, or 14x14 hierarchical (4 clusters of 7x7
/// under a 2x2 top level — faults land on every level's lines).
std::uint32_t CampaignRows(bool hier) { return hier ? 14 : 4; }
std::uint32_t CampaignCols(bool hier) { return hier ? 14 : 8; }

/// The plan a (rate, seed) run executes: the flag-driven base plan
/// (scripted entries, straggler knobs, NoC rates — usually empty) with
/// the swept G-line rates and the run's seed layered on top. Also what
/// the manifest echoes, so a campaign row is replayable from the
/// artifact alone.
fault::FaultPlan CampaignPlan(const fault::FaultPlan& base, double drop_rate,
                              std::uint64_t seed) {
  fault::FaultPlan plan = base;
  plan.seed = seed;
  plan.gline_drop_rate = drop_rate;
  plan.gline_dup_rate = drop_rate / 4;
  plan.csma_corrupt_rate = drop_rate / 4;
  return plan;
}

RunResult RunOnce(const gline::HierConfig& dev, const fault::FaultPlan& base,
                  double drop_rate, std::uint64_t seed, int episodes) {
  const bool hier = !dev.flat();
  const std::uint32_t kRows = CampaignRows(hier), kCols = CampaignCols(hier);
  const std::uint32_t kCores = kRows * kCols;

  sim::Engine engine;
  StatSet stats;
  gline::HierarchicalBarrierNetwork net(engine, kRows, kCols, dev, stats);

  const fault::FaultPlan plan = CampaignPlan(base, drop_rate, seed);
  fault::FaultInjector inj(engine, plan, stats);
  if (plan.enabled()) inj.Arm(net);
  // Straggler knobs stretch each core's pre-arrival compute jitter the
  // same way CmpSystem stretches real compute phases.
  const bool stragglers = plan.stragglers();
  if (stragglers) inj.ConfigureCompute(kCores);

  Rng rng(seed * 1099511628211ull + 3);
  int episode = 0;
  std::uint32_t arrived = 0, released = 0;
  bool early_release = false;

  std::function<void()> start_episode = [&]() {
    arrived = 0;
    released = 0;
    const Cycle now = engine.Now();
    for (CoreId c = 0; c < kCores; ++c) {
      Cycle jitter = 1 + rng.NextBelow(20);
      if (stragglers) jitter = inj.StretchCompute(c, jitter);
      engine.ScheduleAt(now + jitter, [&, c]() {
        ++arrived;
        net.Arrive(c, [&]() {
          if (arrived != kCores) early_release = true;
          if (++released == kCores && ++episode < episodes) start_episode();
        });
      });
    }
  };
  start_episode();

  RunResult r;
  const bool idle = engine.RunUntilIdle(100'000'000);
  r.episodes = net.barriers_completed();
  r.timeouts = net.AggregateCounter("timeouts");
  r.retries = net.AggregateCounter("retries");
  r.degraded_episodes = net.AggregateCounter("degraded_episodes");
  // Fold every node's histograms (per-ctx recovery, per-node spans).
  stats.ForEachHistogram([&](const std::string& name, const Histogram& h) {
    if (name.ends_with(".recovery_latency")) r.recovery_lat.Merge(h);
    if (name.ends_with(".episode_span")) r.episode_span.Merge(h);
  });
  r.injected = stats.CounterValue("fault.injected");
  r.ok = true;
  std::ostringstream viol;
  if (!idle) {
    viol << "VIOLATION: hang at drop_rate=" << drop_rate << " seed=" << seed
         << '\n';
    r.ok = false;
  }
  if (early_release) {
    viol << "VIOLATION: early release at drop_rate=" << drop_rate
         << " seed=" << seed << '\n';
    r.ok = false;
  }
  if (r.episodes != static_cast<std::uint64_t>(episodes)) {
    viol << "VIOLATION: " << r.episodes << "/" << episodes
         << " episodes completed at drop_rate=" << drop_rate
         << " seed=" << seed << '\n';
    r.ok = false;
  }
  r.violations = viol.str();
  return r;
}

struct RateAgg {
  double rate = 0.0;
  int runs = 0;
  /// The first seed's full plan; with params.seeds it replays every run
  /// in this row (seeds are 1..N over the same plan).
  fault::FaultPlan plan;
  RunResult agg;
};

/// Campaign manifest: the sweep as one versioned JSON object, each
/// rate's stats shaped by harness::WriteStatsBlock (same layout as the
/// glb.run manifests, including histogram p50/p95/p99 from the merged
/// per-run histograms).
void WriteCampaignManifest(std::ostream& os, bool pretty, bool hier, int seeds,
                           int episodes, Cycle watchdog, std::uint32_t retries,
                           bool all_ok, const std::vector<RateAgg>& sweep) {
  json::Writer w(os, pretty);
  w.BeginObject();
  w.Field("schema", "glb.fault_campaign");
  w.Field("schema_version", static_cast<std::uint32_t>(1));
  w.Field("tool", "fault_campaign");
  w.Key("params");
  w.BeginObject();
  w.Field("barrier", hier ? "GLH" : "GL");
  w.Field("rows", CampaignRows(hier));
  w.Field("cols", CampaignCols(hier));
  w.Field("seeds", static_cast<std::int64_t>(seeds));
  w.Field("episodes_per_run", static_cast<std::int64_t>(episodes));
  w.Field("watchdog", watchdog);
  w.Field("max_retries", retries);
  w.EndObject();
  w.Field("all_ok", all_ok);
  w.Key("sweep");
  w.BeginArray();
  for (const RateAgg& ra : sweep) {
    w.BeginObject();
    w.Field("drop_rate", ra.rate);
    w.Field("runs", static_cast<std::int64_t>(ra.runs));
    w.Field("ok", ra.agg.ok);
    // Full plan echo (rates, magnitudes, straggler knobs, scripted
    // entries): a row replays from the manifest alone.
    w.Key("fault_plan");
    w.BeginObject();
    harness::WriteFaultPlan(w, ra.plan);
    w.EndObject();
    StatSet s;
    s.GetCounter("episodes")->Inc(ra.agg.episodes);
    s.GetCounter("faults_injected")->Inc(ra.agg.injected);
    s.GetCounter("timeouts")->Inc(ra.agg.timeouts);
    s.GetCounter("retries")->Inc(ra.agg.retries);
    s.GetCounter("degraded_episodes")->Inc(ra.agg.degraded_episodes);
    s.GetHistogram("recovery_latency")->Merge(ra.agg.recovery_lat);
    s.GetHistogram("episode_span")->Merge(ra.agg.episode_span);
    harness::WriteStatsBlock(w, s);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const bench::CommonFlags common = bench::ParseCommonFlags(flags);
  const int seeds = static_cast<int>(flags.GetInt("seeds", 25));
  const int episodes = static_cast<int>(flags.GetInt("episodes", 40));
  const auto watchdog = static_cast<Cycle>(flags.GetInt("watchdog", 3000));
  const auto retries = static_cast<std::uint32_t>(flags.GetInt("retries", 2));
  const int jobs = common.jobs();
  const harness::BarrierKind kind =
      harness::BarrierKindFromNameOrExit(flags.GetString("barrier", "gl"));
  if (kind != harness::BarrierKind::kGL && kind != harness::BarrierKind::kGLH) {
    std::cerr << "--barrier must be a G-line network (gl|gl-hier); the"
                 " campaign injects G-line faults\n";
    return 2;
  }
  gline::BarrierNetConfig node;
  node.watchdog_timeout = watchdog;
  node.max_retries = retries;
  const gline::HierConfig dev = cmp::GlineDevice(kind, node, "");
  const bool hier = !dev.flat();
  // Extra fault machinery layered under the swept G-line rates: scripted
  // entries, straggler knobs, NoC rates — all from the standard
  // --fault_* flags (empty by default, keeping the historical sweep).
  const fault::FaultPlan base_plan = fault::PlanFromFlags(flags);

  const double rates[] = {0.0, 0.001, 0.005, 0.02, 0.05};
  std::cout << "Fault campaign: " << CampaignRows(hier) << "x"
            << CampaignCols(hier)
            << (hier ? " hierarchical (multi-level)" : "")
            << " barrier network, " << seeds << " seeds x " << episodes
            << " episodes per rate, watchdog=" << watchdog
            << " retries=" << retries << "\n"
            << (hier ? "(fault-free baseline: 4 cycles per level, faults"
                       " injected at every level)\n\n"
                     : "(fault-free baseline: 4-cycle barrier)\n\n");

  // Flatten the rate x seed grid: every run is independent, so the
  // whole campaign is one ParallelFor. Aggregation stays sequential and
  // in submission order below.
  bench::SweepClock clock(flags, "fault_campaign", jobs);
  const std::size_t kNumRates = std::size(rates);
  const auto per_rate = static_cast<std::size_t>(seeds);
  std::vector<RunResult> runs(kNumRates * per_rate);
  harness::ParallelFor(runs.size(), jobs, [&](std::size_t i) {
    const double rate = rates[i / per_rate];
    const auto seed = static_cast<std::uint64_t>(i % per_rate) + 1;
    runs[i] = RunOnce(dev, base_plan, rate, seed, episodes);
  });
  clock.Report(runs.size());

  harness::Table t({"DropRate", "Runs", "Episodes", "Injected", "Timeouts",
                    "Retries", "Degraded", "MeanRecovery", "MeanEpisode"});
  bool all_ok = true;
  int total_runs = 0;
  std::vector<RateAgg> sweep;
  for (std::size_t rate_idx = 0; rate_idx < kNumRates; ++rate_idx) {
    RateAgg ra;
    ra.rate = rates[rate_idx];
    ra.plan = CampaignPlan(base_plan, ra.rate, /*seed=*/1);
    RunResult& agg = ra.agg;
    agg.ok = true;
    for (int s = 1; s <= seeds; ++s) {
      const RunResult& r =
          runs[rate_idx * per_rate + static_cast<std::size_t>(s - 1)];
      if (!r.violations.empty()) std::cerr << r.violations;
      ++total_runs;
      ++ra.runs;
      agg.ok = agg.ok && r.ok;
      agg.episodes += r.episodes;
      agg.injected += r.injected;
      agg.timeouts += r.timeouts;
      agg.retries += r.retries;
      agg.degraded_episodes += r.degraded_episodes;
      agg.recovery_lat.Merge(r.recovery_lat);
      agg.episode_span.Merge(r.episode_span);
    }
    all_ok = all_ok && agg.ok;
    t.AddRow({harness::Table::Num(ra.rate, 3), std::to_string(seeds),
              harness::Table::Num(agg.episodes), harness::Table::Num(agg.injected),
              harness::Table::Num(agg.timeouts), harness::Table::Num(agg.retries),
              harness::Table::Num(agg.degraded_episodes),
              harness::Table::Num(agg.recovery_lat.mean(), 1),
              harness::Table::Num(agg.episode_span.mean(), 1)});
    sweep.push_back(std::move(ra));
  }
  t.Print(std::cout);

  if (common.json()) {
    const std::string& jpath = common.json_path();
    if (common.json_bare()) {  // bare --json: pretty to stdout
      std::cout << '\n';
      WriteCampaignManifest(std::cout, /*pretty=*/true, hier, seeds, episodes,
                            watchdog, retries, all_ok, sweep);
      std::cout << '\n';
    } else {  // append one compact JSONL line (BENCH_*.json convention)
      std::ofstream f(jpath, std::ios::app);
      if (!f) {
        std::cerr << "failed to append manifest to " << jpath << "\n";
        return 1;
      }
      WriteCampaignManifest(f, /*pretty=*/false, hier, seeds, episodes, watchdog,
                            retries, all_ok, sweep);
      f << '\n';
    }
  }
  std::cout << "\nMeanRecovery: cycles from first fault detection to episode"
               " completion.\nMeanEpisode: first arrival to release start"
               " (hardware path only; excludes\nepisodes finished by the"
               " software fallback).\n";
  if (!all_ok) {
    std::cerr << "\nFAULT CAMPAIGN FAILED: resilience invariant violated\n";
    return 1;
  }
  std::cout << "\nAll " << total_runs
            << " runs healed: no hangs, no early releases, every episode"
               " completed.\n";
  return 0;
}
