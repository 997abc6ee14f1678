// Straggler ablation — self-healing v2's headline study.
//
// Sweeps persistent-straggler injection (slow-core fraction x slowdown
// factor, via the kCoreSlowdown fault site) across barrier mechanisms
// and core counts (64-1024 by default), measuring what stragglers do to
// barrier cost at the core: every iteration computes a fixed phase and
// then records how long the barrier wait took, so the p99 of that wait
// is the tail a straggler inflicts on the other cores.
//
// The G-line rows run with the resilience machinery armed and appear
// twice: once with the v1 fixed watchdog window and once with the v2
// adaptive window (EWMA of episode spans). No G-line faults are
// injected, so every timeout/degradation in this sweep is FALSE — the
// watchdog mistaking a straggler for a dead network — and the Degraded
// column directly reads out the false-degradation rate. The adaptive
// window should drive it to zero while the fixed window trips as soon
// as factor * compute exceeds the timeout; hardware rejoin (probe_after)
// is armed so even false degradations heal, visible in the Rejoins
// column.
//
//   ./bench/ablate_straggler                       # full sweep
//   ./bench/ablate_straggler --cores 64 --iters 10 # bounded smoke
//   ./bench/ablate_straggler --json BENCH_straggler.json  # JSONL rows
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"

namespace {

using namespace glb;

/// Compute-then-barrier loop that timestamps every barrier wait into a
/// bench-owned histogram (workloads in the registry have no way to hand
/// a per-run histogram back through RunMetrics).
class StragglerLoop final : public workloads::Workload {
 public:
  StragglerLoop(std::uint32_t iters, Cycle compute, Histogram* waits)
      : iters_(iters), compute_(compute), waits_(waits) {}

  const char* name() const override { return "StragglerLoop"; }
  std::string input_desc() const override {
    return std::to_string(iters_) + " iterations, " + std::to_string(compute_) +
           "-cycle compute phase";
  }

  void Init(cmp::CmpSystem&) override {}

  core::Task Body(core::Core& core, CoreId, sync::Barrier& barrier) override {
    for (std::uint32_t it = 0; it < iters_; ++it) {
      co_await core.Compute(compute_);
      const Cycle t0 = core.engine().Now();
      co_await barrier.Wait(core);
      waits_->Record(core.engine().Now() - t0);
    }
  }

  std::string Validate(cmp::CmpSystem& sys) override {
    const std::uint64_t expected = std::uint64_t{iters_} * sys.num_cores();
    const std::uint64_t got = sys.stats().CounterValue("core.barriers");
    if (got != expected) {
      return "barrier count mismatch: got " + std::to_string(got) +
             ", expected " + std::to_string(expected);
    }
    return "";
  }

 private:
  std::uint32_t iters_;
  Cycle compute_;
  Histogram* waits_;
};

/// Comma-separated doubles from --name, falling back when absent; exits
/// with status 2 on a malformed element (flag-parser convention).
std::vector<double> DoubleListFromFlags(const Flags& flags, const char* name,
                                        std::vector<double> fallback) {
  if (!flags.Has(name)) return fallback;
  std::vector<double> out;
  for (const std::string& item : bench::SplitList(flags.GetString(name, ""))) {
    char* end = nullptr;
    const double v = std::strtod(item.c_str(), &end);
    if (end == item.c_str() || *end != '\0' || v < 0) {
      std::cerr << "bad --" << name << " element '" << item << "'\n";
      std::exit(2);
    }
    out.push_back(v);
  }
  if (out.empty()) {
    std::cerr << "--" << name << " needs at least one value\n";
    std::exit(2);
  }
  return out;
}

/// One sweep point, kept parallel to the spec list for reporting.
struct Point {
  std::uint32_t cores = 0;
  harness::BarrierKind kind = harness::BarrierKind::kGLH;
  const char* mode = "-";  // "fixed" | "adapt" for G-line rows
  double frac = 0.0;
  double factor = 1.0;
};

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const bench::CommonFlags common = bench::ParseCommonFlags(flags);
  const int jobs = common.jobs();
  const auto iters = static_cast<std::uint32_t>(flags.GetInt("iters", 40));
  const auto compute = static_cast<Cycle>(flags.GetInt("compute", 256));
  const auto watchdog = static_cast<Cycle>(flags.GetInt("watchdog", 1000));
  const double mult = flags.GetDouble("watchdog-mult", 4.0);
  const auto cores_list =
      bench::CoreListFromFlags(flags, "cores", {64, 256, 1024});
  const auto kinds = bench::BarrierListFromFlags(
      flags, "barrier",
      {harness::BarrierKind::kGLH, harness::BarrierKind::kDSW,
       harness::BarrierKind::kDIS});
  const auto fracs = DoubleListFromFlags(flags, "fracs", {0.0625, 0.25});
  const auto factors = DoubleListFromFlags(flags, "factors", {4.0, 16.0});
  const Cycle max_cycles = 200'000'000;

  std::cout << "Straggler ablation: " << iters << " iterations of a " << compute
            << "-cycle compute phase + barrier\n(slow cores stretch compute by"
               " the factor; G-line watchdog " << watchdog
            << " cycles, adaptive mult " << mult << ")\n\n";

  // Build the (cores x kind x [mode x] injection) grid. Every G-line
  // point runs fixed-window and adaptive-window; software barriers have
  // no watchdog, so they get one row per injection point.
  std::vector<Point> points;
  std::vector<harness::ExperimentSpec> specs;
  auto waits = std::make_shared<std::vector<Histogram>>();
  auto add = [&](std::uint32_t cores, harness::BarrierKind kind,
                 const char* mode, double frac, double factor) {
    Point p;
    p.cores = cores;
    p.kind = kind;
    p.mode = mode;
    p.frac = frac;
    p.factor = factor;
    auto cfg = cmp::CmpConfig::WithCores(cores);
    if (frac > 0) {
      cfg.fault.core_slow_rate = frac;
      cfg.fault.core_slow_factor = factor;
    }
    if (std::string(mode) != "-") {  // a G-line row
      cfg.gline.watchdog_timeout = watchdog;
      // Rejoin armed in both modes so a false degradation heals.
      cfg.gline.probe_after = 2;
      if (std::string(mode) == "adapt") cfg.gline.watchdog_mult = mult;
    }
    points.push_back(p);
    specs.push_back(harness::FactoryExperiment(nullptr, kind, cfg, max_cycles));
  };
  for (std::uint32_t cores : cores_list) {
    for (harness::BarrierKind kind : kinds) {
      const bool gline = kind == harness::BarrierKind::kGL ||
                         kind == harness::BarrierKind::kGLH;
      const std::vector<const char*> modes =
          gline ? std::vector<const char*>{"fixed", "adapt"}
                : std::vector<const char*>{"-"};
      for (const char* mode : modes) {
        add(cores, kind, mode, 0.0, 1.0);  // straggler-free baseline
        for (double frac : fracs) {
          for (double factor : factors) add(cores, kind, mode, frac, factor);
        }
      }
    }
  }
  // Bind the per-run wait histograms now that the spec count is final
  // (stable addresses: the vector is never resized during the sweep).
  waits->resize(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    Histogram* h = &(*waits)[i];
    specs[i].factory = [iters, compute, h]() {
      return std::make_unique<StragglerLoop>(iters, compute, h);
    };
  }

  bench::SweepClock clock(flags, "ablate_straggler", jobs);
  const auto results = harness::RunExperimentsParallel(specs, jobs);
  clock.Report(results.size());

  harness::Table t({"Cores", "Barrier", "Mode", "SlowFrac", "Factor", "WaitP50",
                    "WaitP99", "Timeouts", "Degraded", "Probes", "Rejoins",
                    "Valid"});
  bool all_ok = true;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Point& p = points[i];
    const harness::RunMetrics& m = results[i];
    const Histogram& h = (*waits)[i];
    const bool ok = m.completed && m.validation.empty();
    all_ok = all_ok && ok;
    t.AddRow({std::to_string(p.cores), m.barrier, p.mode,
              harness::Table::Num(p.frac, 4), harness::Table::Num(p.factor, 1),
              harness::Table::Num(h.PercentileApprox(0.50), 1),
              harness::Table::Num(h.PercentileApprox(0.99), 1),
              harness::Table::Num(m.barrier_timeouts),
              harness::Table::Num(m.degraded_episodes),
              harness::Table::Num(m.barrier_probes),
              harness::Table::Num(m.barrier_rejoins),
              ok ? "ok" : (m.completed ? m.validation : m.stall)});
  }
  t.Print(std::cout);
  std::cout << "\nWaitP50/WaitP99: cycles a core spends in the barrier per"
               " episode (compute excluded).\nNo G-line faults are injected:"
               " every Timeout/Degraded entry is a FALSE degradation\n(the"
               " watchdog mistaking a straggler for a dead network); Rejoins"
               " counts degraded\nnetworks that shadow-probed the healthy"
               " hardware path and returned to it.\n";

  if (common.json()) {
    const std::string& jpath = common.json_path();
    std::ofstream file;
    std::ostream* os = &std::cout;
    if (!common.json_bare()) {
      file.open(jpath, std::ios::app);
      if (!file) {
        std::cerr << "failed to append manifest to " << jpath << "\n";
        return 1;
      }
      os = &file;
    } else {
      std::cout << '\n';
    }
    for (std::size_t i = 0; i < results.size(); ++i) {
      const Point& p = points[i];
      const harness::RunMetrics& m = results[i];
      const Histogram& h = (*waits)[i];
      json::Writer w(*os, /*pretty=*/false);
      w.BeginObject();
      w.Field("schema", "glb.straggler");
      w.Field("schema_version", static_cast<std::uint32_t>(1));
      w.Field("tool", "ablate_straggler");
      w.Field("cores", p.cores);
      w.Field("barrier", m.barrier);
      w.Field("mode", p.mode);
      w.Field("slow_frac", p.frac);
      w.Field("slow_factor", p.factor);
      w.Field("iters", iters);
      w.Field("compute", compute);
      w.Field("watchdog", watchdog);
      w.Field("watchdog_mult", std::string(p.mode) == "adapt" ? mult : 0.0);
      w.Field("episodes", m.barriers);
      w.Field("wait_mean", h.mean());
      w.Field("wait_p50", h.PercentileApprox(0.50));
      w.Field("wait_p95", h.PercentileApprox(0.95));
      w.Field("wait_p99", h.PercentileApprox(0.99));
      w.Field("wait_max", h.max());
      w.Field("timeouts", m.barrier_timeouts);
      w.Field("retries", m.barrier_retries);
      w.Field("degraded_episodes", m.degraded_episodes);
      w.Field("probes", m.barrier_probes);
      w.Field("rejoins", m.barrier_rejoins);
      w.Field("completed", m.completed);
      w.Field("validation", m.validation);
      w.EndObject();
      *os << '\n';
    }
  }
  if (!all_ok) {
    std::cerr << "\nSTRAGGLER ABLATION FAILED: a run stalled or validated"
                 " incorrectly\n";
    return 1;
  }
  return 0;
}
