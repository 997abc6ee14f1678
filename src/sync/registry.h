// Barrier construction: one switch over BarrierKind, uniform over every
// mechanism the repo implements, so any caller that can describe its
// environment (allocator, mesh, participant count) builds any of the 9
// kinds the same way — whole-chip runs through harness::MakeBarrier and
// rectangular tenant partitions through cmp::PartitionManager.
//
// The env is deliberately below the cmp layer (no CmpSystem): sync
// cannot depend on cmp, so the system/partition adapters translate
// their geometry into a BarrierEnv and call MakeBarrier here.
#pragma once

#include <memory>
#include <string>

#include "common/stats.h"
#include "common/types.h"
#include "mem/addr_allocator.h"
#include "noc/mesh.h"
#include "sync/barrier.h"
#include "sync/barrier_kind.h"

namespace glb::sync {

/// Everything MakeBarrier may consult. Pointers are borrowed and must
/// outlive the barrier; each kind GLB_CHECKs the ones it needs.
struct BarrierEnv {
  /// Simulated-memory allocator (software barriers allocate flag/counter
  /// lines here).
  mem::AddrAllocator* alloc = nullptr;
  /// Data NoC (kHYB's memory-mapped unit sends packets over it).
  noc::Mesh* mesh = nullptr;
  /// Shared StatSet (kHYB episode counter, kTUNED decision echo).
  StatSet* stats = nullptr;
  /// Cores taking part. Software barriers treat core.rank() as the
  /// dense index into [0, participants): whole-chip runs leave rank ==
  /// id; partitions renumber their member cores.
  std::uint32_t participants = 0;
  /// Counting-cluster width for kGALOIS/kTUNED (one cluster per mesh
  /// row keeps each counter line within the row that hammers it).
  std::uint32_t cluster_cols = 1;
  /// kHYB unit tile (global mesh node id).
  CoreId hyb_home = 0;
  /// kHYB callback-table size in *global core ids* (the unit indexes
  /// arrivals by mesh node). 0 = participants (whole-chip layout, where
  /// rank == id); partitions pass the full tile count and the unit
  /// counts only the `participants` that actually arrive.
  std::uint32_t hyb_slots = 0;
  /// Root for the stat names of stat-bearing barriers ("" = the legacy
  /// chip-wide names "hyb.episodes" / "sync.tuned.*"; tenants pass
  /// "tenant.<name>" so concurrent instances never alias).
  std::string stat_prefix;
};

/// Builds the requested barrier from `env`.
/// GLB_CHECK-fails when the kind's requirements are unmet
/// (callers validate geometry/budgets first — see
/// cmp::PartitionManager::ValidateTenant).
std::unique_ptr<Barrier> MakeBarrier(BarrierKind kind, const BarrierEnv& env);

}  // namespace glb::sync
