// TUNED — OpenMPI `coll_tuned`-style meta-barrier: measure, look up a
// decision table, commit to the best software algorithm for this run.
//
// The first `kWarmupEpisodes` episodes delegate to the combining tree
// (DSW), which is robust at any core count. When core 0 returns for its
// first post-warmup episode it computes the measured barrier period
// (its local simulated cycle count / warmup episodes — simulated time,
// so the measurement is deterministic for any --jobs value),
// looks up TunedChoice(cores, period), and publishes the winner through
// a simulated memory word every other core spins on — the decision
// propagates through the coherent fabric exactly like a real runtime's
// control variable, and no host-side state is shared across cores. From
// then on every episode delegates to the chosen algorithm.
//
// The choice is echoed as StatSet counters (sync.tuned.choice.<NAME>,
// sync.tuned.measured_period, sync.tuned.warmup_episodes) which
// CollectMetrics lifts into the glb.run manifest's gated "tuned" block.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "core/core.h"
#include "core/task.h"
#include "mem/addr_allocator.h"
#include "sync/barrier.h"

namespace glb::sync {

/// The static decision table, exposed for tests and the DESIGN.md
/// discussion: best software barrier for (cores, measured period in
/// cycles/barrier, cluster == mesh row width). Derived from the
/// ablate_barrier_zoo crossover study (see DESIGN.md §"Tuned decision
/// table").
const char* TunedChoiceName(std::uint32_t cores, double period_cycles);

class TunedBarrier final : public Barrier {
 public:
  /// All candidate algorithms are constructed (and their simulated
  /// memory allocated) up front, so the address layout never depends on
  /// the decision. `cluster_size` feeds the GALOIS candidate (mesh
  /// cols); `stats` receives the choice echo under `stat_prefix`
  /// (tenants pass their own prefix so concurrent instances never
  /// alias in the shared StatSet).
  TunedBarrier(mem::AddrAllocator& alloc, std::uint32_t num_cores,
               std::uint32_t cluster_size, StatSet& stats,
               std::string stat_prefix = "sync.tuned");
  ~TunedBarrier() override;

  core::Task Wait(core::Core& core) override;
  const char* name() const override { return "TUNED"; }

  static constexpr std::uint32_t kWarmupEpisodes = 4;

 private:
  /// The post-warmup transition: publish (core 0) or learn (everyone
  /// else) the decision over simulated memory, then run this episode on
  /// the chosen algorithm.
  core::Task Negotiate(core::Core& core);

  Barrier* Candidate(std::size_t idx) const;

  std::uint32_t num_cores_;
  StatSet& stats_;
  std::string stat_prefix_;
  std::vector<std::unique_ptr<Barrier>> candidates_;
  std::size_t warmup_idx_ = 0;  // DSW's slot in candidates_
  /// Decision word in simulated memory: 0 = undecided, else
  /// candidate index + 1.
  Addr choice_addr_ = 0;
  /// Per-core episode count and learned decision (architecturally
  /// registers; each core touches only its own slot).
  std::vector<std::uint32_t> episode_;
  std::vector<std::int32_t> chosen_;
};

}  // namespace glb::sync
