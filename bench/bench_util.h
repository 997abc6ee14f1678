// Shared helpers for the benchmark harnesses: flag-driven workload
// factories and configuration, so every table/figure binary accepts the
// same knobs (--cores, --paper-scale, workload size overrides).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "cmp/cmp_system.h"
#include "common/flags.h"
#include "common/json.h"
#include "common/log.h"
#include "fault/fault_model.h"
#include "harness/experiment.h"
#include "harness/parallel.h"
#include "harness/report.h"
#include "harness/spec.h"
#include "trace/trace.h"
#include "workloads/em3d.h"
#include "workloads/livermore.h"
#include "workloads/ocean.h"
#include "workloads/synthetic.h"
#include "workloads/unstructured.h"
#include "workloads/workload.h"

namespace glb::bench {

/// Observability wiring shared by every bench/driver binary. Construct
/// one right after parsing flags and keep it alive for the whole run:
///   --trace FILE   installs a trace::FileSession (Perfetto JSON,
///                  written when the session goes out of scope)
///   --log-level L  off|warn|info|trace; overrides the GLB_LOG
///                  environment variable (which is applied first)
/// Exits with status 2 on a malformed value, matching the flag parser's
/// other rejections.
class Observability {
 public:
  explicit Observability(const Flags& flags) : session_(TracePath(flags)) {
    Logger::InitFromEnv();
    if (flags.Has("log-level")) {
      const std::string lvl = flags.GetString("log-level", "");
      if (!Logger::SetLevelFromName(lvl)) {
        std::cerr << "bad --log-level '" << lvl << "' (off|warn|info|trace)\n";
        std::exit(2);
      }
    }
  }

  bool tracing() const { return session_.active(); }

 private:
  static std::string TracePath(const Flags& flags) {
    std::string path = flags.GetString("trace", "");
    if (path == "true") {  // bare "--trace" with no file
      std::cerr << "--trace requires a file path (--trace out.json)\n";
      std::exit(2);
    }
    return path;
  }

  trace::FileSession session_;
};

/// Parses --jobs for sweep benches: default 1 (serial), 0 or negative
/// means "all hardware threads". Tracing uses a process-global sink
/// that is not safe under concurrent runs, so an active --trace session
/// forces the sweep back to serial with a note.
inline int JobsFromFlags(const Flags& flags, const Observability& obs) {
  int jobs = harness::NormalizeJobs(static_cast<int>(flags.GetInt("jobs", 1)));
  if (obs.tracing() && jobs > 1) {
    std::cerr << "note: --trace uses a process-global sink; forcing --jobs 1\n";
    jobs = 1;
  }
  return jobs;
}

/// Wall-clock of a sweep, reported only when --bench-json PATH is given
/// (stderr one-liner + one compact JSONL row of schema glb.sweep_wall
/// appended to PATH). Kept out of stdout and the deterministic result
/// manifests on purpose: sweep outputs must be byte-identical for any
/// --jobs value, and wall-clock is the one thing parallelism changes.
class SweepClock {
 public:
  SweepClock(const Flags& flags, std::string tool, int jobs)
      : tool_(std::move(tool)),
        jobs_(jobs),
        bench_json_(flags.GetString("bench-json", "")),
        t0_(std::chrono::steady_clock::now()) {}

  /// Call once, after the sweep's runs completed.
  void Report(std::size_t runs) const {
    if (bench_json_.empty() || bench_json_ == "true") return;
    const std::chrono::duration<double, std::milli> wall =
        std::chrono::steady_clock::now() - t0_;
    std::cerr << "[" << tool_ << "] " << runs << " runs in "
              << harness::Table::Num(wall.count(), 1) << " ms (jobs=" << jobs_
              << ")\n";
    std::ofstream f(bench_json_, std::ios::app);
    if (!f) {
      std::cerr << "failed to append sweep timing to " << bench_json_ << "\n";
      return;
    }
    json::Writer w(f, /*pretty=*/false);
    w.BeginObject();
    w.Field("schema", "glb.sweep_wall");
    w.Field("schema_version", static_cast<std::uint32_t>(1));
    w.Field("tool", tool_);
    w.Field("runs", static_cast<std::uint64_t>(runs));
    w.Field("jobs", static_cast<std::int64_t>(jobs_));
    w.Field("wall_ms", wall.count());
    w.EndObject();
    f << '\n';
  }

 private:
  std::string tool_;
  int jobs_;
  std::string bench_json_;
  std::chrono::steady_clock::time_point t0_;
};

/// Exits 2 naming every passed flag that parsing never read: a typo'd
/// or retired flag would otherwise leave its default in place silently.
/// Call once per path, after its last flag lookup and before the run.
inline void RejectUnreadFlagsOrExit(const Flags& flags) {
  const std::vector<std::string> unread = flags.Unread();
  if (unread.empty()) return;
  for (const std::string& name : unread) {
    std::cerr << "unknown flag --" << name << " (see --help)\n";
  }
  std::exit(2);
}

/// Synthetic with a configurable busy period between barriers: the
/// knob of the barrier-period ablation and of the zoo crossover study.
class PeriodicBarriers final : public workloads::Workload {
 public:
  PeriodicBarriers(std::uint32_t barriers, Cycle work)
      : barriers_(barriers), work_(work) {}
  const char* name() const override { return "PeriodicBarriers"; }
  std::string input_desc() const override {
    return std::to_string(barriers_) + " barriers, " + std::to_string(work_) +
           " busy cycles between";
  }
  void Init(cmp::CmpSystem&) override {}
  core::Task Body(core::Core& core, CoreId, sync::Barrier& barrier) override {
    for (std::uint32_t i = 0; i < barriers_; ++i) {
      co_await core.Compute(work_);
      co_await barrier.Wait(core);
    }
  }
  std::string Validate(cmp::CmpSystem&) override { return ""; }

 private:
  std::uint32_t barriers_;
  Cycle work_;
};

/// Benchmark inputs and the workload registry now live in the harness
/// (src/harness/spec.h) so tests and tools can drive named experiments
/// without including bench code. The aliases keep the historical
/// bench:: spellings working.
using harness::Scale;
using harness::MakeWorkloadOrExit;

inline const char* const kKernels[] = {"Kernel2", "Kernel3", "Kernel6"};
inline const char* const kApplications[] = {"UNSTRUCTURED", "OCEAN", "EM3D"};

/// Splits a comma-separated flag value ("64,256,1024"); empty input
/// yields an empty list, empty elements are dropped.
inline std::vector<std::string> SplitList(const std::string& value) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= value.size()) {
    const std::size_t comma = value.find(',', start);
    const std::size_t end = comma == std::string::npos ? value.size() : comma;
    if (end > start) out.push_back(value.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

/// Comma-separated core counts from --name (e.g. --cores 64,256,1024),
/// falling back to `fallback` when the flag is absent. Exits with
/// status 2 on a non-numeric or zero element.
inline std::vector<std::uint32_t> CoreListFromFlags(
    const Flags& flags, const char* name, std::vector<std::uint32_t> fallback) {
  if (!flags.Has(name)) return fallback;
  std::vector<std::uint32_t> cores;
  for (const std::string& item : SplitList(flags.GetString(name, ""))) {
    char* end = nullptr;
    const unsigned long v = std::strtoul(item.c_str(), &end, 10);
    if (end == item.c_str() || *end != '\0' || v == 0 || v > 1u << 20) {
      std::cerr << "bad --" << name << " element '" << item << "'\n";
      std::exit(2);
    }
    cores.push_back(static_cast<std::uint32_t>(v));
  }
  if (cores.empty()) {
    std::cerr << "--" << name << " needs at least one core count\n";
    std::exit(2);
  }
  return cores;
}

/// Comma-separated barrier names from --name (e.g. --barrier GLH,DSW,DIS),
/// falling back to `fallback` when absent. Exits with status 2 on an
/// unknown name.
inline std::vector<harness::BarrierKind> BarrierListFromFlags(
    const Flags& flags, const char* name,
    std::vector<harness::BarrierKind> fallback) {
  if (!flags.Has(name)) return fallback;
  std::vector<harness::BarrierKind> kinds;
  for (const std::string& item : SplitList(flags.GetString(name, ""))) {
    kinds.push_back(harness::BarrierKindFromNameOrExit(item));
  }
  if (kinds.empty()) {
    std::cerr << "--" << name << " needs at least one barrier name\n";
    std::exit(2);
  }
  return kinds;
}

/// Comma-separated registered workload names from --name, falling back
/// to `fallback` when absent. Exits with status 2 on an unknown name.
inline std::vector<std::string> WorkloadListFromFlags(
    const Flags& flags, const char* name, std::vector<std::string> fallback) {
  if (!flags.Has(name)) return fallback;
  std::vector<std::string> names = SplitList(flags.GetString(name, ""));
  for (const std::string& item : names) {
    if (!harness::KnownWorkload(item)) {
      std::cerr << "unknown workload '" << item << "' (valid:";
      for (const std::string& n : harness::WorkloadNames()) std::cerr << ' ' << n;
      std::cerr << ")\n";
      std::exit(2);
    }
  }
  if (names.empty()) {
    std::cerr << "--" << name << " needs at least one workload name\n";
    std::exit(2);
  }
  return names;
}

/// Machine configuration for an explicit core count; sweeps use this
/// per point while single-machine benches go through ConfigFromFlags.
inline cmp::CmpConfig ConfigForCores(const Flags& flags, std::uint32_t cores) {
  auto cfg = cmp::CmpConfig::WithCores(cores);
  // Fault campaign / resilience knobs (all off by default).
  cfg.fault = fault::PlanFromFlags(flags);
  // Counts are unsigned: a negative value exits 2 instead of wrapping
  // into a huge window or retry budget.
  cfg.gline.watchdog_timeout = flags.GetUint64("fault_watchdog", 0);
  cfg.gline.max_retries = flags.GetUint32("fault_retries", 2);
  // Self-healing v2: adaptive watchdog window and hardware rejoin (see
  // gline/barrier_network.h). All off by default (= v1 behavior). Every
  // node of the chip's G-line device, flat or clustered, shares them.
  cfg.gline.watchdog_mult = flags.GetDouble("fault_watchdog_mult", 0.0);
  if (!(cfg.gline.watchdog_mult >= 0.0)) {
    std::cerr << "bad value for --fault_watchdog_mult: '"
              << flags.GetString("fault_watchdog_mult", "")
              << "' (a window multiplier must be >= 0)\n";
    std::exit(2);
  }
  cfg.gline.probe_after = flags.GetUint32("fault_probe_after", 0);
  cfg.gline.probe_successes = flags.GetUint32("fault_probe_successes", 2);
  if (cfg.fault.enabled() && !cfg.gline.resilient()) {
    std::cerr << "note: --fault_* injection enabled without --fault_watchdog; "
                 "the barrier network may hang (that is the point of the "
                 "watchdog) — the run will stop at --max-cycles.\n";
  }
  return cfg;
}

/// Machine configuration at --cores (default 32). Exits 2 on a count
/// outside the 1..1024 that cmp::CmpConfig::WithCores supports.
inline cmp::CmpConfig ConfigFromFlags(const Flags& flags) {
  const std::int64_t cores = flags.GetInt("cores", 32);
  if (cores < 1 || cores > 1024) {
    std::cerr << "bad value for --cores: '" << flags.GetString("cores", "")
              << "' (supported core counts: 1..1024)\n";
    std::exit(2);
  }
  return ConfigForCores(flags, static_cast<std::uint32_t>(cores));
}

class CommonFlags;
CommonFlags ParseCommonFlags(const Flags& flags);

/// One parse of the flag families every bench binary repeats:
/// observability (--trace / --log-level), host parallelism (--jobs), the
/// --json manifest destination, and the machine configuration (--cores /
/// the --fault_* family).
/// Construct via ParseCommonFlags right after Flags and keep it alive
/// for the whole run — it owns the Observability (and therefore the
/// --trace file session). Borrows the Flags, which must outlive it.
/// Exits with status 2 on malformed values, with the same diagnostics
/// as the free helpers it wraps.
class CommonFlags {
 public:
  const Observability& obs() const { return obs_; }
  bool tracing() const { return obs_.tracing(); }

  /// Normalized --jobs (see JobsFromFlags; 1 when absent, serial-forced
  /// under --trace).
  int jobs() const { return jobs_; }

  /// --json was passed at all (bare or with a path).
  bool json() const { return json_; }
  /// Bare --json: the pretty manifest to stdout replaces the report.
  bool json_bare() const { return json_ && json_path_.empty(); }
  /// The JSONL append destination; empty for bare --json (or none).
  const std::string& json_path() const { return json_path_; }

  /// Machine configuration at an explicit core count (sweeps call this
  /// per point) / at --cores (default 32). Both re-read the --fault_*
  /// family so the per-call "injection without watchdog" note keeps
  /// firing exactly as before.
  cmp::CmpConfig ConfigForCores(std::uint32_t cores) const {
    return bench::ConfigForCores(*flags_, cores);
  }
  cmp::CmpConfig Config() const { return ConfigFromFlags(*flags_); }

 private:
  friend CommonFlags ParseCommonFlags(const Flags& flags);

  explicit CommonFlags(const Flags& flags)
      : flags_(&flags),
        obs_(flags),
        jobs_(JobsFromFlags(flags, obs_)),
        json_(flags.Has("json")) {
    const std::string raw = flags.GetString("json", "");
    if (raw != "true") json_path_ = raw;  // bare --json parses as "true"
  }

  const Flags* flags_;
  Observability obs_;
  int jobs_;
  bool json_;
  std::string json_path_;
};

/// Factory (CommonFlags owns a trace session and is not movable; C++17
/// guaranteed elision makes the by-value return legal anyway).
inline CommonFlags ParseCommonFlags(const Flags& flags) {
  return CommonFlags(flags);
}

}  // namespace glb::bench
