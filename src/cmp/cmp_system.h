// Whole-chip assembly: cores + L1s + banked shared L2/directory +
// 2D-mesh NoC + one G-line barrier device, built from one CmpConfig.
//
// CmpConfig::Table1() reproduces the paper's baseline 32-core CMP
// (Table 1); CmpConfig::WithCores(n) scales the mesh for the Figure-5
// core-count sweep.
#pragma once

#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "coherence/fabric.h"
#include "common/stats.h"
#include "common/types.h"
#include "core/core.h"
#include "fault/fault_injector.h"
#include "fault/fault_model.h"
#include "gline/barrier_network.h"
#include "gline/hierarchy.h"
#include "mem/addr_allocator.h"
#include "mem/backing_store.h"
#include "noc/mesh.h"
#include "sim/engine.h"
#include "sync/barrier_kind.h"

namespace glb::cmp {

/// The G-line device a barrier `kind` runs on, rooted at `root` ("" on
/// the chip, "tenant.<name>." for a partition). kGLH: the §5 hierarchy,
/// clusters of at most 7x7 (and budget+1) tiles under kReject, named
/// "<root>glh.*". Other kinds: one node spanning the mesh with `node`'s
/// own policy, named "<root>gl.*". With CmpConfig::ForBarrier, the only
/// place a barrier kind picks a device shape.
gline::HierConfig GlineDevice(sync::BarrierKind kind, gline::BarrierNetConfig node,
                              const std::string& root);

struct CmpConfig {
  std::uint32_t rows = 4;
  std::uint32_t cols = 8;
  mem::CacheGeometry l1{32 * 1024, 4, 64};
  mem::CacheGeometry l2{256 * 1024, 4, 64};
  coherence::CoherenceConfig coherence{};
  noc::MeshConfig noc{};  // rows/cols are overwritten from this struct
  /// Every node of the chip's G-line device: transmitter budget,
  /// policy and resilience (the stat prefix comes from GlineDevice).
  gline::BarrierNetConfig gline{};
  /// `hier.enabled` gives the chip's G-line device the kGLH shape (the
  /// §5 hierarchy, required past the 7x7 transmitter limit) instead of
  /// the flat network.
  struct Hier {
    bool enabled = false;
  } hier;
  core::CoreConfig core{};
  /// Fault campaign (disabled by default: no hooks are installed).
  fault::FaultPlan fault{};

  std::uint32_t num_cores() const { return rows * cols; }

  /// The paper's baseline (Table 1): 32 cores, 2D mesh, 64B lines,
  /// 32KB/4-way L1 (1 cycle), 256KB/4-way L2 bank (6+2 cycles),
  /// 400-cycle memory, 75-byte links.
  static CmpConfig Table1() { return CmpConfig{}; }

  /// Square-ish mesh with exactly `n` cores (n = r*c, r <= c <= 2r),
  /// up to the 32x32 = 1024-core many-core scale.
  static CmpConfig WithCores(std::uint32_t n);

  /// The barrier kind whose device shape the chip builds.
  sync::BarrierKind gline_kind() const {
    return hier.enabled ? sync::BarrierKind::kGLH : sync::BarrierKind::kGL;
  }
  /// This config with the chip's G-line device shaped for a run of
  /// `kind` (kGLH turns the hierarchy on; other kinds keep the shape).
  CmpConfig ForBarrier(sync::BarrierKind kind) const;
};

class CmpSystem {
 public:
  explicit CmpSystem(const CmpConfig& cfg);

  CmpSystem(const CmpSystem&) = delete;
  CmpSystem& operator=(const CmpSystem&) = delete;

  sim::Engine& engine() { return engine_; }
  StatSet& stats() { return stats_; }
  mem::BackingStore& memory() { return backing_; }
  mem::AddrAllocator& allocator() { return alloc_; }
  noc::Mesh& mesh() { return mesh_; }
  coherence::Fabric& fabric() { return fabric_; }
  /// The chip's one G-line device (GlineDevice(config().gline_kind())),
  /// which every core is wired to at construction. PartitionManager
  /// swaps member cores onto tenant devices and restores this on
  /// teardown.
  gline::HierarchicalBarrierNetwork& gline() { return gline_; }
  core::BarrierDevice* chip_barrier_device() { return &gline_; }
  core::Core& core(CoreId c) { return *cores_[c]; }
  std::uint32_t num_cores() const { return cfg_.num_cores(); }
  const CmpConfig& config() const { return cfg_; }

  /// Launches `make(core_object, id)` on every core and runs the machine
  /// until it goes idle (all programs finished, all traffic drained).
  /// Returns false on `max_cycles` timeout.
  bool RunPrograms(const std::function<core::Task(core::Core&, CoreId)>& make,
                   Cycle max_cycles = kCycleNever) {
    return RunProgramsStatus(make, max_cycles).idle;
  }

  /// Like RunPrograms, but reports how far the run got so callers can
  /// surface a stalled simulation (cycle reached, queued events) instead
  /// of a silent `false`.
  sim::RunStatus RunProgramsStatus(
      const std::function<core::Task(core::Core&, CoreId)>& make,
      Cycle max_cycles = kCycleNever);

  /// The armed injector, or nullptr when the fault plan is disabled.
  fault::FaultInjector* injector() { return injector_.get(); }

  /// Cycle at which the last core finished its program.
  Cycle LastFinish() const;
  /// Aggregate time breakdown over all cores.
  core::TimeBreakdown TotalBreakdown() const;

 private:
  CmpConfig cfg_;
  sim::Engine engine_;
  StatSet stats_;
  mem::BackingStore backing_;
  mem::AddrAllocator alloc_;
  noc::Mesh mesh_;
  coherence::Fabric fabric_;
  gline::HierarchicalBarrierNetwork gline_;
  std::vector<std::unique_ptr<core::Core>> cores_;
  std::unique_ptr<fault::FaultInjector> injector_;
};

}  // namespace glb::cmp
