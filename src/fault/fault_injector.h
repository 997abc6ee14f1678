// Schedule-driven fault injector.
//
// One injector owns the decision stream for a whole simulation: it is
// seeded once from the FaultPlan and consulted through the narrow fault
// hooks exposed by the G-line device (gline::HierarchicalBarrierNetwork)
// and noc::Mesh.
// Every decision bumps a `fault.*` counter so a run can report exactly
// what was injected, and scripted entries are matched before the
// probabilistic stream so regression tests stay cycle-precise.
//
// The injector is pure policy: it never mutates the components it is
// armed on beyond installing the hooks, and with a disabled plan the
// hooks are never installed at all (zero cost on the happy path).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "common/types.h"
#include "fault/fault_model.h"
#include "gline/gline.h"
#include "gline/hierarchy.h"
#include "noc/mesh.h"
#include "sim/engine.h"

namespace glb::fault {

class FaultInjector {
 public:
  FaultInjector(sim::Engine& engine, const FaultPlan& plan, StatSet& stats);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Installs the S-CSMA corruption hook on every line of every node of
  /// the G-line device `net`, and the core-freeze hook (global core ids)
  /// on its arrival path.
  void Arm(gline::HierarchicalBarrierNetwork& net);

  /// Installs the link delay/drop hook on `mesh`.
  void Arm(noc::Mesh& mesh);

  /// Prepares the per-core straggler factors for `num_cores` cores
  /// (kCoreSlowdown picks + kWorkSkew ramp). Which cores straggle is
  /// hash-derived from (plan seed, core id) — never drawn from the
  /// shared stream — so the choice is independent of event order and a
  /// run stays bit-identical for any host parallelism. Idempotent.
  void ConfigureCompute(std::uint32_t num_cores);

  // --- decision points (public for unit tests) -------------------------

  /// Possibly corrupts one delivered S-CSMA batch count. Returning 0
  /// suppresses the delivery entirely (the batch was lost on the wire).
  std::uint32_t AdjustCount(const gline::GLine& line, std::uint32_t count);

  /// Cycles a core's bar_reg write is stalled before it reaches the
  /// controllers (0 = not frozen).
  Cycle FreezeDelay(CoreId core);

  /// Extra cycles a NoC transfer suffers (delay and/or CRC-retransmit).
  Cycle LinkPenalty(const noc::Packet& pkt);

  /// Stretches one compute phase of `core` by its straggler factor
  /// (persistent slowdown × work-skew ramp × any scripted entries that
  /// have fired for this core). Identity when the core is healthy.
  Cycle StretchCompute(CoreId core, Cycle cycles);

  /// The compound compute-time factor currently applied to `core`
  /// (1.0 = healthy). Exposed for tests and reports.
  double ComputeFactor(CoreId core) const;

  std::uint64_t total_injected() const { return total_->value(); }
  const FaultPlan& plan() const { return plan_; }

 private:
  /// Consumes the first un-fired scripted entry matching (site, target)
  /// whose cycle is <= Now(). Returns its magnitude via `magnitude`.
  bool ConsumeScript(FaultSite site, const std::string& target,
                     std::int32_t* magnitude);

  sim::Engine& engine_;
  FaultPlan plan_;
  Rng rng_;
  std::vector<bool> script_fired_;

  /// Persistent per-core compute-time factors (1.0 = healthy), filled
  /// by ConfigureCompute and further scaled by scripted entries.
  std::vector<double> compute_factor_;
  std::uint32_t compute_cores_ = 0;
  bool has_straggler_script_ = false;

  Counter* total_ = nullptr;
  Counter* gline_drop_ = nullptr;
  Counter* gline_dup_ = nullptr;
  Counter* csma_corrupt_ = nullptr;
  Counter* core_freeze_ = nullptr;
  Counter* noc_delay_ = nullptr;
  Counter* noc_drop_ = nullptr;
  Counter* core_slow_ = nullptr;
  Counter* work_skew_ = nullptr;
};

}  // namespace glb::fault
