// Multi-tenant space-shared partitions (api_redesign tentpole).
//
// A Tenant is an arbitrary rectangular region of the mesh running its
// own workload at its own scale with its own barrier mechanism — any of
// the 9 barrier kinds. The chip's shared structure (coherence fabric,
// data NoC, DRAM) stays common to all tenants, which is exactly what
// makes space-sharing interesting: a hotspot tenant perturbs its
// neighbors only through the shared fabric, never through barrier
// hardware, because every hardware-barrier tenant gets its own
// rect-local G-line network.
//
// Per-kind construction:
//   * kGL    — a rect-local flat G-line device (GlineDevice) built
//              with TxPolicy::kReject under the tenant's transmitter
//              budget; a rect wider or taller than budget+1 is a
//              *validation error* (use kGLH), never a CHECK-abort.
//   * kGLH   — a rect-local clustered device whose cluster dimensions
//              are clamped to the tenant budget, so any rect is
//              reachable under any budget >= 1.
//   * others — software barriers over the shared fabric, built through
//              sync::MakeBarrier with participants = rect cores. Member
//              cores are renumbered rank 0..P-1 (row-major within the
//              rect) so the flag/counter arrays of the software
//              algorithms stay dense; kHYB keeps global ids (its unit
//              is indexed by mesh node) and simply expects fewer
//              arrivals.
//
// Every tenant wait is additionally timed by a TenantBarrier decorator
// into "tenant.<name>.wait_cycles" (histogram) and
// "tenant.<name>.barrier_waits" (counter); hardware tenants also get
// the usual network stats under "tenant.<name>.gl.*" / ".glh.*".
//
// Dynamic lifecycle: Create/Resize/Teardown are legal at barrier-
// episode boundaries — no member core may be inside Wait (busy()), and
// the machine must be quiescent (between engine runs), because tearing
// down a G-line network with in-flight line batches would dangle their
// scheduled events. All three return error strings for anything a
// caller could get wrong (overlap, bounds, budget, busy); GLB_CHECK is
// reserved for caller bugs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cmp/cmp_system.h"
#include "common/stats.h"
#include "common/types.h"
#include "core/barrier_device.h"
#include "gline/hierarchy.h"
#include "sync/barrier.h"
#include "sync/barrier_kind.h"

namespace glb::cmp {

/// An axis-aligned rectangle of mesh tiles: `rows x cols` tiles with the
/// top-left tile at mesh position (row0, col0).
struct Rect {
  std::uint32_t row0 = 0;
  std::uint32_t col0 = 0;
  std::uint32_t rows = 0;
  std::uint32_t cols = 0;

  std::uint32_t num_cores() const { return rows * cols; }
  bool empty() const { return rows == 0 || cols == 0; }

  bool Contains(std::uint32_t r, std::uint32_t c) const {
    return r >= row0 && r < row0 + rows && c >= col0 && c < col0 + cols;
  }
  bool Overlaps(const Rect& o) const {
    return !empty() && !o.empty() && row0 < o.row0 + o.rows &&
           o.row0 < row0 + rows && col0 < o.col0 + o.cols &&
           o.col0 < col0 + cols;
  }

  /// "RxC@r,c" (or "RxC" when anchored at the origin).
  std::string ToString() const;
  /// Parses "RxC@r,c" or "RxC" (origin 0,0). Returns false — leaving
  /// `out` untouched — on anything else, including zero dimensions.
  static bool Parse(std::string_view s, Rect* out);

  bool operator==(const Rect&) const = default;
};

/// Everything needed to admit one tenant.
struct TenantConfig {
  /// Unique non-empty identifier; roots the tenant's stat names
  /// ("tenant.<name>.*") and manifest block.
  std::string name;
  Rect rect;
  sync::BarrierKind barrier = sync::BarrierKind::kGL;
  /// Per-tenant G-line transmitter budget (paper: six). A flat-GL rect
  /// must fit within budget+1 tiles per dimension; kGLH clamps its
  /// cluster dimensions instead. Enforced structurally: rect-local
  /// networks are built with TxPolicy::kReject.
  std::uint32_t max_transmitters = 6;
};

class PartitionManager;

/// Geometry/name/budget admission check against a chip configuration —
/// no live system needed, so CLI front-ends can validate --tenant specs
/// before building anything. Returns "" when `cfg` is admissible on an
/// empty chip; the PartitionManager adds duplicate-name and
/// rect-overlap checks against its live tenants.
std::string ValidateTenantConfig(const TenantConfig& cfg,
                                 const CmpConfig& chip);

/// One live partition. Owned by the PartitionManager that created it;
/// borrowed pointers stay valid until Teardown (Resize preserves them).
class Tenant {
 public:
  ~Tenant();
  Tenant(const Tenant&) = delete;
  Tenant& operator=(const Tenant&) = delete;

  const std::string& name() const { return cfg_.name; }
  const Rect& rect() const { return cfg_.rect; }
  sync::BarrierKind kind() const { return cfg_.barrier; }
  const TenantConfig& config() const { return cfg_; }
  std::uint32_t num_cores() const { return cfg_.rect.num_cores(); }
  /// "tenant.<name>" — root of every stat this tenant registers.
  const std::string& stat_prefix() const { return prefix_; }

  /// The barrier every member program should wait on (the timing
  /// decorator around the tenant's actual mechanism).
  sync::Barrier& barrier() { return *barrier_; }

  /// Global core id of the member with dense rank `rank` (row-major
  /// within the rect).
  CoreId GlobalId(std::uint32_t rank) const;
  /// Dense rank of member core `global` (GLB_CHECKs membership).
  std::uint32_t RankOf(CoreId global) const;
  bool Contains(CoreId global) const;

  /// True while any member core is inside barrier().Wait — the window
  /// in which Resize/Teardown are refused.
  bool busy() const { return in_flight_ > 0; }

  /// Completed tenant barrier waits (counter "tenant.<name>.barrier_waits"
  /// divided by the member count gives episodes).
  std::uint64_t barrier_waits() const { return waits_->value(); }
  /// Per-wait latency distribution ("tenant.<name>.wait_cycles").
  const Histogram& wait_cycles() const { return *wait_cycles_; }

 private:
  friend class PartitionManager;

  Tenant(CmpSystem& sys, const TenantConfig& cfg);

  /// Builds the barrier stack and rewires/renumbers the member cores.
  void Attach();
  /// Restores member cores to the chip device and rank == id, and drops
  /// the barrier stack (order matters: cores first, then networks).
  void Detach();

  // Timing decorator body (a member so it can share in_flight_).
  class TimedBarrier;

  CmpSystem& sys_;
  TenantConfig cfg_;
  std::string prefix_;
  Counter* waits_ = nullptr;
  Histogram* wait_cycles_ = nullptr;
  std::uint32_t in_flight_ = 0;

  // Hardware kinds only: the rect-local device plus the global->local
  // id adapter wired into the member cores.
  std::unique_ptr<gline::HierarchicalBarrierNetwork> gline_;
  std::unique_ptr<core::BarrierDevice> rect_device_;

  std::unique_ptr<sync::Barrier> inner_;    // the actual mechanism
  std::unique_ptr<sync::Barrier> barrier_;  // TimedBarrier over inner_
};

/// Admission control plus the dynamic lifecycle. At most one manager
/// per CmpSystem should exist at a time (managers assume they own every
/// core's device/rank wiring).
class PartitionManager {
 public:
  explicit PartitionManager(CmpSystem& sys) : sys_(sys) {}
  ~PartitionManager();

  PartitionManager(const PartitionManager&) = delete;
  PartitionManager& operator=(const PartitionManager&) = delete;

  /// Admission check without side effects: returns "" when `cfg` could
  /// be created right now, else the reason (duplicate/empty name, rect
  /// out of bounds or overlapping a live tenant, flat-GL rect exceeding
  /// the transmitter budget).
  std::string ValidateTenant(const TenantConfig& cfg) const;

  /// Creates and attaches a tenant. On success returns the live tenant;
  /// on failure returns nullptr and, when `error` is non-null, stores
  /// the ValidateTenant diagnostic.
  Tenant* Create(const TenantConfig& cfg, std::string* error = nullptr);

  /// Moves/regrows a tenant to `rect` (same name, kind and budget),
  /// keeping its stat names (counters accumulate across the resize).
  /// Refused — returning false with a diagnostic — while the tenant is
  /// mid-episode (busy) or when the new rect fails admission.
  bool Resize(const std::string& name, const Rect& rect,
              std::string* error = nullptr);

  /// Detaches and destroys a tenant, restoring its cores to the chip
  /// barrier device with rank == id. Refused while busy.
  bool Teardown(const std::string& name, std::string* error = nullptr);

  Tenant* Find(const std::string& name);
  const std::vector<std::unique_ptr<Tenant>>& tenants() const {
    return tenants_;
  }

 private:
  CmpSystem& sys_;
  std::vector<std::unique_ptr<Tenant>> tenants_;
};

}  // namespace glb::cmp
