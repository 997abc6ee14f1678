// Experiment harness: runs (workload x barrier mechanism x machine
// configuration) combinations and extracts the metrics the paper
// reports — execution time with its Figure-6 breakdown, Figure-7
// network message counts by class, and Table-2 barrier statistics.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "cmp/cmp_system.h"
#include "core/timebreak.h"
#include "sync/barrier.h"
#include "sync/barrier_kind.h"
#include "workloads/workload.h"

namespace glb::harness {

/// The barrier taxonomy lives in sync/barrier_kind.h (barrier
/// construction sits below the cmp layer); the harness re-exports it so
/// every historical harness::BarrierKind spelling keeps working.
using sync::BarrierKind;
using sync::ToString;

/// Builds the requested barrier over a system's simulated memory, via
/// sync::MakeBarrier (sync/registry.h) — the whole-chip BarrierEnv:
/// every core participates and rank == id.
std::unique_ptr<sync::Barrier> MakeBarrier(BarrierKind kind, cmp::CmpSystem& sys);

struct RunMetrics {
  std::string workload;
  std::string barrier;
  std::uint32_t cores = 0;
  /// Wall-clock of the parallel section (cycle of the last finisher).
  Cycle cycles = 0;
  /// Barrier episodes per core (Table 2's #Barriers).
  std::uint64_t barriers = 0;
  /// Average cycles between consecutive barriers (Table 2).
  double barrier_period = 0.0;
  /// Aggregate Figure-6 breakdown over all cores.
  core::TimeBreakdown breakdown;
  /// Figure-7 message classes over the data NoC.
  std::uint64_t msgs_request = 0;
  std::uint64_t msgs_reply = 0;
  std::uint64_t msgs_coherence = 0;
  /// Result of Workload::Validate ("" = results correct).
  std::string validation;
  /// Simulator health.
  bool completed = false;
  std::uint64_t host_events = 0;
  /// Host-side performance of the run (not simulated time): wall-clock
  /// of the event loop and events dispatched per host second. Zero when
  /// the caller did not time the run. Deterministic outputs (tables,
  /// CSV) must never include these; the JSON manifest records them so
  /// BENCH_*.json keeps a perf trajectory.
  double wall_ms = 0.0;
  double events_per_sec = 0.0;
  /// Stall diagnostic when !completed ("simulation stalled at cycle N,
  /// pending events: M ..."); empty on a clean finish.
  std::string stall;
  /// Fault-campaign outcome (all 0 when injection/resilience are off).
  std::uint64_t faults_injected = 0;
  std::uint64_t barrier_timeouts = 0;
  std::uint64_t barrier_retries = 0;
  std::uint64_t degraded_episodes = 0;
  /// Self-healing v2 outcome (all 0 unless rejoin is enabled).
  std::uint64_t barrier_probes = 0;
  std::uint64_t barrier_rejoins = 0;
  /// TUNED meta-barrier outcome: the algorithm the decision table
  /// picked ("" unless the run used --barrier tuned and got past its
  /// warmup), the measured period it keyed on, and the warmup length.
  std::string tuned_choice;
  std::uint64_t tuned_measured_period = 0;
  std::uint64_t tuned_warmup_episodes = 0;

  std::uint64_t total_msgs() const {
    return msgs_request + msgs_reply + msgs_coherence;
  }
};

using WorkloadFactory = std::function<std::unique_ptr<workloads::Workload>()>;

/// Extracts RunMetrics from an already-run system. Shared by
/// RunExperiment and drivers that run the system themselves (glbsim
/// needs the live StatSet for --stats/--json, which RunExperiment
/// hides). `wall_ms`, when nonzero, records the host wall-clock of the
/// event loop and derives events_per_sec.
RunMetrics CollectMetrics(cmp::CmpSystem& sys, const sim::RunStatus& status,
                          workloads::Workload& workload, const std::string& barrier_name,
                          double wall_ms = 0.0);

/// The system-level portion of CollectMetrics — everything except the
/// workload identity (`workload`, `barrier`) and `validation`, which
/// single-workload runs take from their one Workload and multi-tenant
/// runs (harness/tenants.h) compose from every tenant's.
RunMetrics CollectSystemMetrics(cmp::CmpSystem& sys, const sim::RunStatus& status,
                                double wall_ms = 0.0);

/// Exits 2 with "bad workload size: ..." when `workload` cannot be
/// partitioned over `cores` (Workload::ValidateConfig). Safe to call
/// from sweep worker threads: the first failure reports.
void ValidateSizeOrExit(const workloads::Workload& workload, std::uint32_t cores);

/// Runs one experiment to completion (or `max_cycles`) and collects the
/// metrics. The system is built fresh with its G-line device shaped for
/// `kind` (CmpConfig::ForBarrier), the workload initialized, one program
/// launched per core. A problem size the workload cannot partition over
/// the cores (Workload::ValidateConfig) exits 2 with "bad workload
/// size: ..." before the machine is built.
RunMetrics RunExperiment(const WorkloadFactory& make_workload, BarrierKind kind,
                         const cmp::CmpConfig& cfg, Cycle max_cycles = kCycleNever);

}  // namespace glb::harness
