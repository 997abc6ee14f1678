// Name-addressed experiment descriptions.
//
// The pieces a study needs to describe a run without touching bench
// code: problem sizes (`Scale`, with the weak-scaling rules that keep
// every workload valid and non-degenerate at 256-1024 cores), barrier
// selection by name (`BarrierKindFromName`, round-tripping `ToString`),
// a workload registry (`RegisterWorkload` / `MakeWorkload`), and the
// `ExperimentSpec` bundle that `RunExperiment` and the parallel sweep
// runner consume and the glb.run manifest echoes.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/flags.h"
#include "harness/experiment.h"
#include "workloads/workload.h"

namespace glb::harness {

/// Problem sizes for every workload. Defaults are scaled for a
/// laptop-class host at the paper's 32-core machine while keeping the
/// barrier structure (counts and periods); `paper` selects the exact
/// Table-2 inputs (slow!), `ForCores` the weak-scaling rules.
struct Scale {
  bool paper = false;
  std::uint32_t synthetic_iters = 1000;
  std::uint32_t k2_n = 1024, k2_iters = 20;
  std::uint32_t k3_n = 1024, k3_iters = 100;
  std::uint32_t k6_n = 256, k6_iters = 2;
  std::uint32_t em3d_nodes = 2400, em3d_steps = 25;
  std::uint32_t ocean_grid = 66, ocean_iters = 30;
  std::uint32_t unstr_nodes = 2048, unstr_edges = 8192, unstr_steps = 4;

  /// Weak-scaling rule for the 256-1024-core study: every problem size
  /// keeps the 32-core default's per-core share (kernel vectors and
  /// graph nodes grow linearly with the core count; the OCEAN grid
  /// keeps two interior rows per core), so block partitions never go
  /// empty and `Workload::Validate` stays meaningful at any mesh the
  /// hierarchy covers. Iteration counts shrink by the same factor
  /// (bounded below) so one sweep point stays host-minutes; explicit
  /// `--*-iters` flags override them. Core counts <= 32 return the
  /// defaults unchanged.
  static Scale ForCores(std::uint32_t cores);

  /// 32-core defaults (or --paper-scale), then every CLI override.
  static Scale FromFlags(const Flags& flags);
  /// Weak-scaled base for `cores` (or --paper-scale), then overrides.
  static Scale FromFlags(const Flags& flags, std::uint32_t cores);

  /// Applies the shared flag set onto this base: --paper-scale swaps in
  /// the Table-2 inputs, then --synthetic-iters / --k{2,3,6}-{n,iters} /
  /// --em3d-{nodes,steps} / --ocean-{grid,iters} /
  /// --unstr-{nodes,edges,steps} override individual fields.
  Scale WithFlags(const Flags& flags) const;
};

/// Parses a barrier name: the canonical `ToString` spellings (GL, GLH,
/// CSW, DSW, HYB, DIS, RDBL, GALOIS, TUNED), their lowercase forms, and
/// the CLI aliases "gl-hier" (GLH) and "galois-fast" (GALOIS). Round-trips:
/// BarrierKindFromName(ToString(k)) == k for every kind.
std::optional<BarrierKind> BarrierKindFromName(const std::string& name);

/// CLI wrapper: prints a diagnostic listing the valid names and exits
/// with status 2 (the flag-parser convention) on an unknown name.
BarrierKind BarrierKindFromNameOrExit(const std::string& name);

/// Every kind once, in ToString order (sweeps, round-trip tests).
const std::vector<BarrierKind>& AllBarrierKinds();

// --- workload registry -----------------------------------------------------

/// Builds a workload instance from the problem sizes in a Scale.
using ScaledWorkloadFactory =
    std::function<std::unique_ptr<workloads::Workload>(const Scale&)>;

/// Adds (or replaces) a named workload. The built-in seven (Synthetic,
/// Kernel2/3/6, EM3D, OCEAN, UNSTRUCTURED) are pre-registered. Not
/// safe to call while a parallel sweep is running.
void RegisterWorkload(const std::string& name, ScaledWorkloadFactory factory);

bool KnownWorkload(const std::string& name);

/// Registered names in sorted order.
std::vector<std::string> WorkloadNames();

/// Builds the named workload, or nullptr for an unknown name.
std::unique_ptr<workloads::Workload> MakeWorkload(const std::string& name,
                                                  const Scale& scale);

/// The registry entry bound to `scale` as a RunExperiment factory, or
/// nullptr for an unknown name.
WorkloadFactory MakeWorkloadFactory(const std::string& name, const Scale& scale);

/// CLI wrapper: exits with status 2 on an unknown name, listing the
/// registered ones.
std::unique_ptr<workloads::Workload> MakeWorkloadOrExit(const std::string& name,
                                                        const Scale& scale);

// --- name-addressed experiments --------------------------------------------

/// One experiment, addressed by name: enough to run it, to fan it out
/// over the parallel sweep runner, and to echo it verbatim in the
/// glb.run manifest.
struct ExperimentSpec {
  /// Registry name ("OCEAN", "EM3D", ...). Ignored when `factory` is
  /// set, except as the manifest's display name.
  std::string workload;
  Scale scale;
  BarrierKind barrier = BarrierKind::kGL;
  cmp::CmpConfig cfg;
  Cycle max_cycles = kCycleNever;
  /// Escape hatch for bench-local workload classes that are not worth a
  /// registry entry (ablations); when set it wins over `workload`.
  WorkloadFactory factory;
};

/// Convenience builders for sweep loops (aggregate-init of a partial
/// field list trips -Wextra's missing-field-initializers).
inline ExperimentSpec NamedExperiment(std::string workload, Scale scale,
                                      BarrierKind barrier, cmp::CmpConfig cfg,
                                      Cycle max_cycles = kCycleNever) {
  ExperimentSpec s;
  s.workload = std::move(workload);
  s.scale = scale;
  s.barrier = barrier;
  s.cfg = cfg;
  s.max_cycles = max_cycles;
  return s;
}

inline ExperimentSpec FactoryExperiment(WorkloadFactory factory,
                                        BarrierKind barrier, cmp::CmpConfig cfg,
                                        Cycle max_cycles = kCycleNever) {
  ExperimentSpec s;
  s.factory = std::move(factory);
  s.barrier = barrier;
  s.cfg = cfg;
  s.max_cycles = max_cycles;
  return s;
}

/// The spec's workload factory: `factory` when set, else the registry
/// entry (GLB_CHECK-fails on an unknown workload name; CLI front-ends
/// validate names first via MakeWorkloadOrExit).
WorkloadFactory FactoryOf(const ExperimentSpec& spec);

/// Runs the spec'd experiment (GLB_CHECK-fails on an unknown workload
/// name, as FactoryOf).
RunMetrics RunExperiment(const ExperimentSpec& spec);

}  // namespace glb::harness
