// The software-barrier zoo: OpenMPI `coll_tuned`'s recursive doubling
// rebuilt as a coherent-fabric barrier, plus the Galois runtime's
// topology-aware two-phase design. Together with CSW/DSW/DIS they give
// the crossover study its candidates: between them they win every
// (cores, period) cell a tuned software stack would pick from when
// racing the G-line network.
//
// Both run entirely as loads/stores/atomics through the simulated
// cache hierarchy (their cost *is* the coherence traffic they generate)
// and charge their memory time to TimeCat::kBarrier via CategoryScope.
//
// Episode reuse follows the MCS discipline established by
// DisseminationBarrier: RDBL's flags and GALOIS's release flags keep
// two parity buffers that alternate per episode, and the written sense
// value flips each time a parity buffer is reused (every two episodes).
// Both have the all-to-all dependence that bounds any core's lead to
// one episode, which the two buffers absorb; the Galois counters
// instead rely on reset-happens-before-release (see GaloisFastBarrier).
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "core/core.h"
#include "core/task.h"
#include "mem/addr_allocator.h"
#include "sync/barrier.h"

namespace glb::sync {

/// RDBL — recursive-doubling barrier (OpenMPI
/// `coll_tuned`'s recursivedoubling). log2 rounds of pairwise XOR
/// exchanges over the largest power-of-two subset 2^m <= P; the
/// remaining P - 2^m "extra" cores report to a proxy (extra 2^m + j to
/// proxy j) before the exchange and are released by it afterwards.
/// Symmetric traffic — in round k both partners write, so unlike DIS
/// each round moves 2x the flags but finishes in the same depth.
class RecursiveDoublingBarrier final : public Barrier {
 public:
  RecursiveDoublingBarrier(mem::AddrAllocator& alloc, std::uint32_t num_cores);

  core::Task Wait(core::Core& core) override;
  const char* name() const override { return "RDBL"; }

  std::uint32_t rounds() const { return rounds_; }

 private:
  /// Flag slots 0..rounds-1 are the XOR-exchange rounds; slot rounds_ is
  /// the extra->proxy arrival flag (indexed by proxy id) and slot
  /// rounds_+1 the proxy->extra release flag (indexed by extra id).
  Addr FlagAddr(std::uint32_t parity, std::uint32_t slot, CoreId core) const;

  std::uint32_t num_cores_;
  std::uint32_t rounds_;  // m = floor(log2 P)
  std::uint32_t pow_;     // 2^m
  std::uint32_t line_bytes_;
  Addr flags_ = 0;  // [2 parities][rounds + 2 slots][cores], one line each
  std::vector<std::uint32_t> parity_;
  std::vector<Word> sense_;
};

/// GALOIS — Galois-runtime-style two-phase in/out barrier with
/// topology-aware counting (the FastBarrier/SimpleBarrier design from
/// SNIPPETS.md mapped onto the mesh). "In" phase: each core fetch-adds
/// its cluster's counter (cluster = mesh row, so the counter line stays
/// within one row); the cluster-last core resets the counter and
/// fetch-adds one global counter — contention on the global line drops
/// from P cores to P/cluster_size cluster winners. "Out" phase: the
/// global-last core starts a binary-tree release cascade over per-core
/// flag lines (core i wakes 2i+1 and 2i+2), giving a log-depth release
/// with two stores per core.
///
/// Counter reuse is safe without parity: every counter is reset before
/// the release cascade starts, and no core can re-arrive before being
/// released. The release flags use the standard two-parity + sense
/// scheme.
class GaloisFastBarrier final : public Barrier {
 public:
  /// `cluster_size` cores per counting cluster (the mesh column count
  /// makes a cluster one row). Values > num_cores are clamped.
  GaloisFastBarrier(mem::AddrAllocator& alloc, std::uint32_t num_cores,
                    std::uint32_t cluster_size);

  core::Task Wait(core::Core& core) override;
  const char* name() const override { return "GALOIS"; }

  std::uint32_t num_clusters() const { return num_clusters_; }

 private:
  Addr ReleaseAddr(std::uint32_t parity, CoreId core) const;

  std::uint32_t num_cores_;
  std::uint32_t cluster_size_;
  std::uint32_t num_clusters_;
  std::uint32_t line_bytes_;
  Addr cluster_counters_ = 0;  // [clusters], one line each
  Addr global_counter_ = 0;
  Addr release_flags_ = 0;  // [2 parities][cores], one line each
  std::vector<std::uint32_t> parity_;
  std::vector<Word> sense_;
};

}  // namespace glb::sync
