// Multi-tenant run descriptions — the space-shared generalization of
// the single-workload ExperimentSpec.
//
// A RunSpec holds one chip configuration plus a list of TenantSpecs;
// each tenant names a rectangular partition (cmp/partition.h), the
// workload it runs, the problem sizes it runs at, the barrier kind it
// synchronizes with, and an optional per-tenant straggler plan. The
// shared machine (coherence fabric, data NoC, DRAM) is common to all
// tenants; barrier hardware is not — see cmp/partition.h.
//
// RunTenants builds the system, admits every tenant, launches one
// program per member core (non-members idle), and returns chip-level
// RunMetrics plus one TenantMetrics per tenant: barrier-wait latency
// percentiles, the member-only time breakdown, router flits inside the
// rect (traffic isolation), and G-line signal counts (the energy
// proxy). The manifest emitter (harness/manifest.h) echoes the tenant
// blocks when ManifestOptions::tenants is set; single-tenant manifests
// stay byte-identical to older builds.
//
// Determinism: like every harness entry point, RunTenants output is
// byte-identical for any --jobs value (pinned by
// tenant_determinism_test.cc).
#pragma once

#include <string>
#include <vector>

#include "cmp/partition.h"
#include "common/stats.h"
#include "fault/fault_model.h"
#include "harness/spec.h"

namespace glb::harness {

/// One tenant of a space-shared run.
struct TenantSpec {
  /// Unique [A-Za-z0-9_-]+ identifier (stat prefix "tenant.<name>").
  std::string name;
  cmp::Rect rect;
  /// Registry workload name; ignored (except for display) when
  /// `factory` is set.
  std::string workload;
  Scale scale;
  BarrierKind barrier = BarrierKind::kGL;
  /// Per-tenant G-line transmitter budget (see cmp::TenantConfig).
  std::uint32_t max_transmitters = 6;
  /// Per-tenant straggler plan. Only the deterministic compute knobs
  /// are honored — seed, core_slow_rate, core_slow_factor, work_skew —
  /// keyed by tenant-local rank so the plan is independent of where the
  /// rect sits on the chip. Any other live knob is a ValidateRunSpec
  /// error (chip-wide fault campaigns belong in RunSpec::cfg.fault).
  /// On member cores a live tenant plan replaces the chip plan's
  /// compute hook.
  fault::FaultPlan fault;
  /// Escape hatch for bench-local workload classes (wins over
  /// `workload`).
  WorkloadFactory factory;
};

/// Convenience builder (aggregate-init of a partial field list trips
/// -Wextra's missing-field-initializers).
inline TenantSpec NamedTenant(std::string name, cmp::Rect rect,
                              std::string workload, Scale scale,
                              BarrierKind barrier) {
  TenantSpec t;
  t.name = std::move(name);
  t.rect = rect;
  t.workload = std::move(workload);
  t.scale = scale;
  t.barrier = barrier;
  return t;
}

/// One space-shared run: a machine plus its tenants.
struct RunSpec {
  cmp::CmpConfig cfg;
  Cycle max_cycles = kCycleNever;
  std::vector<TenantSpec> tenants;
};

/// Per-tenant outcome of one RunTenants call.
struct TenantMetrics {
  std::string name;
  cmp::Rect rect;
  std::string workload;
  std::string barrier;
  std::uint32_t cores = 0;
  /// Completed member waits; `barriers` = waits / cores (episodes).
  std::uint64_t waits = 0;
  std::uint64_t barriers = 0;
  /// Cycle the tenant's last member finished.
  Cycle finished_at = 0;
  /// Per-wait latency distribution (value snapshot of
  /// "tenant.<name>.wait_cycles"; p50/p95/p99 via PercentileApprox).
  Histogram wait_cycles;
  /// Figure-6 breakdown summed over member cores only.
  core::TimeBreakdown breakdown;
  /// Flits through the routers inside the rect (shared-fabric traffic
  /// attributable to — or crossing — the tenant's tiles).
  std::uint64_t router_flits = 0;
  /// G-line signals of the tenant's private network (energy proxy);
  /// 0 for software barrier kinds.
  std::uint64_t gline_signals = 0;
  /// Workload::Validate result ("" = correct).
  std::string validation;
};

struct MultiRunMetrics {
  /// Chip-level metrics. `workload`/`barrier` are "+"-joined tenant
  /// labels; `validation` joins every failing tenant's diagnostic.
  RunMetrics run;
  std::vector<TenantMetrics> tenants;
};

/// Full admission check of a RunSpec without building anything:
/// per-tenant geometry/name/budget (cmp::ValidateTenantConfig),
/// duplicate names, pairwise rect overlap, workload-name existence and
/// problem size (Workload::ValidateConfig against the rect's cores),
/// and straggler-only tenant fault plans. Returns "" when runnable.
std::string ValidateRunSpec(const RunSpec& spec);

/// Runs the spec on a caller-built system (which must have been
/// constructed from spec.cfg — glbsim needs the live StatSet for
/// --stats/--json). GLB_CHECK-fails when ValidateRunSpec rejects the
/// spec; CLI front-ends validate first.
MultiRunMetrics RunTenantsOn(cmp::CmpSystem& sys, const RunSpec& spec);

/// Builds the system and runs the spec to completion (or max_cycles).
MultiRunMetrics RunTenants(const RunSpec& spec);

/// Fans independent RunSpecs over --jobs threads with the same
/// determinism contract as RunExperimentsParallel: submission-order
/// results, byte-identical output for any jobs value.
std::vector<MultiRunMetrics> RunTenantsParallel(const std::vector<RunSpec>& specs,
                                                int jobs);

}  // namespace glb::harness
