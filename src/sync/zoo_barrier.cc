#include "sync/zoo_barrier.h"

#include <algorithm>

#include "coherence/protocol.h"
#include "common/check.h"
#include "core/timebreak.h"

namespace glb::sync {

using coherence::AmoOp;
using core::CategoryScope;
using core::Core;
using core::Task;
using core::TimeCat;

namespace {

std::uint32_t FloorLog2(std::uint32_t n) {
  std::uint32_t r = 0;
  while ((2u << r) <= n) ++r;
  return r;
}

/// Flag stride shared by every zoo member: one line per flag in a
/// [2 parities][slots][cores] block, using the allocator's actual line
/// size (a fixed 64 would false-share whenever lines are larger).
Addr AllocFlagBlock(mem::AddrAllocator& alloc, std::uint32_t slots,
                    std::uint32_t num_cores) {
  const std::uint64_t count = std::uint64_t{2} * std::max(slots, 1u) * num_cores;
  return alloc.AllocLines(count * alloc.line_bytes());
}

Addr FlagIndex(Addr base, std::uint32_t slots, std::uint32_t num_cores,
               std::uint32_t line_bytes, std::uint32_t parity,
               std::uint32_t slot, CoreId core) {
  const std::uint64_t idx =
      (static_cast<std::uint64_t>(parity) * std::max(slots, 1u) + slot) *
          num_cores +
      core;
  return base + idx * line_bytes;
}

}  // namespace

// ---------------------------------------------------------------------------
// RDBL
// ---------------------------------------------------------------------------

RecursiveDoublingBarrier::RecursiveDoublingBarrier(mem::AddrAllocator& alloc,
                                                   std::uint32_t num_cores)
    : num_cores_(num_cores),
      rounds_(FloorLog2(std::max(num_cores, 1u))),
      pow_(1u << FloorLog2(std::max(num_cores, 1u))),
      line_bytes_(alloc.line_bytes()),
      parity_(num_cores, 0),
      sense_(num_cores, 1) {
  GLB_CHECK(num_cores > 0) << "barrier without participants";
  flags_ = AllocFlagBlock(alloc, rounds_ + 2, num_cores_);
}

Addr RecursiveDoublingBarrier::FlagAddr(std::uint32_t parity, std::uint32_t slot,
                                        CoreId core) const {
  return FlagIndex(flags_, rounds_ + 2, num_cores_, line_bytes_, parity, slot,
                   core);
}

Task RecursiveDoublingBarrier::Wait(Core& core) {
  CategoryScope scope(core, TimeCat::kBarrier);
  core.NoteBarrier();
  const CoreId me = core.rank();
  const std::uint32_t parity = parity_[me];
  const Word sense = sense_[me];
  if (parity == 1) sense_[me] = sense ^ 1;
  parity_[me] ^= 1;

  const std::uint32_t arrival_slot = rounds_;
  const std::uint32_t release_slot = rounds_ + 1;
  if (me >= pow_) {
    // Extra core: report to the proxy, wait to be released.
    const CoreId proxy = me - pow_;
    co_await core.Store(FlagAddr(parity, arrival_slot, proxy), sense);
    co_await core.SpinUntil(FlagAddr(parity, release_slot, me),
                            [sense](Word f) { return f == sense; });
    co_return;
  }

  const bool has_extra = me + pow_ < num_cores_;
  if (has_extra) {
    // Proxy: absorb the extra's arrival before entering the exchange.
    co_await core.SpinUntil(FlagAddr(parity, arrival_slot, me),
                            [sense](Word f) { return f == sense; });
  }
  for (std::uint32_t k = 0; k < rounds_; ++k) {
    const CoreId partner = me ^ (1u << k);
    co_await core.Store(FlagAddr(parity, k, partner), sense);
    co_await core.SpinUntil(FlagAddr(parity, k, me),
                            [sense](Word f) { return f == sense; });
  }
  if (has_extra) {
    co_await core.Store(FlagAddr(parity, release_slot, me + pow_), sense);
  }
}

// ---------------------------------------------------------------------------
// GALOIS
// ---------------------------------------------------------------------------

GaloisFastBarrier::GaloisFastBarrier(mem::AddrAllocator& alloc,
                                     std::uint32_t num_cores,
                                     std::uint32_t cluster_size)
    : num_cores_(num_cores),
      cluster_size_(std::max(1u, std::min(cluster_size, num_cores))),
      num_clusters_((num_cores + cluster_size_ - 1) / cluster_size_),
      line_bytes_(alloc.line_bytes()),
      parity_(num_cores, 0),
      sense_(num_cores, 1) {
  GLB_CHECK(num_cores > 0) << "barrier without participants";
  cluster_counters_ =
      alloc.AllocLines(std::uint64_t{num_clusters_} * line_bytes_);
  global_counter_ = alloc.AllocVar();
  release_flags_ = AllocFlagBlock(alloc, 1, num_cores_);
}

Addr GaloisFastBarrier::ReleaseAddr(std::uint32_t parity, CoreId core) const {
  return FlagIndex(release_flags_, 1, num_cores_, line_bytes_, parity, 0, core);
}

Task GaloisFastBarrier::Wait(Core& core) {
  CategoryScope scope(core, TimeCat::kBarrier);
  core.NoteBarrier();
  const CoreId me = core.rank();
  const std::uint32_t parity = parity_[me];
  const Word sense = sense_[me];
  if (parity == 1) sense_[me] = sense ^ 1;
  parity_[me] ^= 1;

  // "In" phase: count into the cluster, cluster winners into the global.
  const std::uint32_t cluster = me / cluster_size_;
  const std::uint32_t members =
      std::min(cluster_size_, num_cores_ - cluster * cluster_size_);
  const Addr cluster_counter =
      cluster_counters_ + std::uint64_t{cluster} * line_bytes_;
  const Word prior = co_await core.Amo(cluster_counter, AmoOp::kFetchAdd, 1);
  if (prior + 1 == members) {
    // Cluster-last: reset before the global add, so the counter is
    // clean before any release (and thus any re-arrival) can happen.
    co_await core.Store(cluster_counter, 0);
    const Word gprior = co_await core.Amo(global_counter_, AmoOp::kFetchAdd, 1);
    if (gprior + 1 == num_clusters_) {
      co_await core.Store(global_counter_, 0);
      // "Out" phase: seed the release cascade at core 0. If we *are*
      // core 0, the spin below completes on its first load.
      co_await core.Store(ReleaseAddr(parity, 0), sense);
    }
  }
  co_await core.SpinUntil(ReleaseAddr(parity, me),
                          [sense](Word f) { return f == sense; });
  // Cascade: wake both children in the id-order binary tree.
  const std::uint64_t left = std::uint64_t{me} * 2 + 1;
  if (left < num_cores_) {
    co_await core.Store(ReleaseAddr(parity, static_cast<CoreId>(left)), sense);
  }
  if (left + 1 < num_cores_) {
    co_await core.Store(ReleaseAddr(parity, static_cast<CoreId>(left + 1)),
                        sense);
  }
}

}  // namespace glb::sync
