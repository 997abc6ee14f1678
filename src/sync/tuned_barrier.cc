#include "sync/tuned_barrier.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/check.h"
#include "core/timebreak.h"
#include "sync/dissemination_barrier.h"
#include "sync/sw_barrier.h"
#include "sync/zoo_barrier.h"

namespace glb::sync {

namespace {

/// Candidate order is part of the decision encoding (index + 1 goes
/// through simulated memory), so it is fixed here, not derived.
constexpr const char* kCandidateNames[] = {"CSW", "DSW", "DIS", "RDBL",
                                           "GALOIS"};
constexpr std::size_t kCSW = 0, kDSW = 1, kRDBL = 3, kGALOIS = 4;

/// The coll_tuned-style decision table, calibrated against the
/// ablate_barrier_zoo crossover study on this simulator's mesh (see
/// DESIGN.md §"Tuned decision table"). The measured period is the
/// DSW-warmup cycles/barrier, so the boundaries below are in DSW time.
/// Two regimes show up in the study:
///
///   tight periods (back-to-back barriers, idle fabric): pure latency
///   rules and recursive doubling wins every core count — log2 depth
///   with both partners' flags in flight concurrently;
///
///   long periods (real compute between barriers): arrival skew and
///   workload coherence traffic punish the symmetric all-to-all
///   algorithms; the central counter still wins tiny meshes, and the
///   Galois two-phase takes over once a cluster counter folds a whole
///   mesh row into one global fetch-add.
std::size_t ChoiceIndex(std::uint32_t cores, double period_cycles) {
  if (cores <= 16) return period_cycles < 1500.0 ? kRDBL : kCSW;
  if (cores <= 64) return period_cycles < 2500.0 ? kRDBL : kGALOIS;
  if (cores <= 256) return period_cycles < 7000.0 ? kRDBL : kGALOIS;
  return period_cycles < 20000.0 ? kRDBL : kGALOIS;
}

}  // namespace

const char* TunedChoiceName(std::uint32_t cores, double period_cycles) {
  return kCandidateNames[ChoiceIndex(cores, period_cycles)];
}

TunedBarrier::TunedBarrier(mem::AddrAllocator& alloc, std::uint32_t num_cores,
                           std::uint32_t cluster_size, StatSet& stats,
                           std::string stat_prefix)
    : num_cores_(num_cores),
      stats_(stats),
      stat_prefix_(std::move(stat_prefix)),
      episode_(num_cores, 0),
      chosen_(num_cores, -1) {
  GLB_CHECK(num_cores > 0) << "barrier without participants";
  // Same order as kCandidateNames; every candidate allocates its
  // simulated memory now, so the layout is decision-independent.
  candidates_.push_back(std::make_unique<CentralBarrier>(alloc, num_cores));
  candidates_.push_back(std::make_unique<TreeBarrier>(alloc, num_cores));
  candidates_.push_back(std::make_unique<DisseminationBarrier>(alloc, num_cores));
  candidates_.push_back(
      std::make_unique<RecursiveDoublingBarrier>(alloc, num_cores));
  // Three retired candidates (a mirrored dissemination, a static
  // bracket and a double token ring) took the span below: one line per
  // flag in [2 parities][max(r,1) + (r+1) + 2 slots][cores], with
  // r = ceil(log2 P). It stays reserved so GALOIS and the decision word
  // keep their addresses, and TUNED's timings stay as they were.
  std::uint32_t r = 0;
  while ((1u << r) < num_cores) ++r;
  alloc.AllocLines(std::uint64_t{2} * num_cores *
                   (std::max(r, 1u) + (r + 1) + 2) * alloc.line_bytes());
  candidates_.push_back(
      std::make_unique<GaloisFastBarrier>(alloc, num_cores, cluster_size));
  warmup_idx_ = kDSW;
  choice_addr_ = alloc.AllocVar();  // zero-initialized: undecided
}

TunedBarrier::~TunedBarrier() = default;

Barrier* TunedBarrier::Candidate(std::size_t idx) const {
  return candidates_[idx].get();
}

core::Task TunedBarrier::Wait(core::Core& core) {
  // No NoteBarrier/CategoryScope here: the delegate charges both, so
  // barriers_per_core and the Figure-6 breakdown stay exact.
  const CoreId me = core.rank();
  const std::uint32_t ep = episode_[me]++;
  if (ep < kWarmupEpisodes) return Candidate(warmup_idx_)->Wait(core);
  if (chosen_[me] < 0) return Negotiate(core);
  return Candidate(static_cast<std::size_t>(chosen_[me]))->Wait(core);
}

core::Task TunedBarrier::Negotiate(core::Core& core) {
  const CoreId me = core.rank();
  {
    // The decision handshake is barrier overhead, like any runtime's
    // control-variable traffic.
    core::CategoryScope scope(core, core::TimeCat::kBarrier);
    if (me == 0) {
      // Simulated time over the warmup episodes — deterministic for any
      // --jobs value, unlike host-side arrival order.
      const double period = static_cast<double>(core.engine().Now()) /
                            static_cast<double>(kWarmupEpisodes);
      const std::size_t idx = ChoiceIndex(num_cores_, period);
      stats_.GetCounter(stat_prefix_ + ".choice." + kCandidateNames[idx])
          ->Inc();
      stats_.GetCounter(stat_prefix_ + ".measured_period")
          ->Inc(static_cast<std::uint64_t>(std::llround(period)));
      stats_.GetCounter(stat_prefix_ + ".warmup_episodes")->Inc(kWarmupEpisodes);
      chosen_[0] = static_cast<std::int32_t>(idx);
      co_await core.Store(choice_addr_, static_cast<Word>(idx + 1));
    } else {
      const Word w =
          co_await core.SpinUntil(choice_addr_, [](Word v) { return v != 0; });
      chosen_[me] = static_cast<std::int32_t>(w - 1);
    }
  }
  co_await Candidate(static_cast<std::size_t>(chosen_[me]))->Wait(core);
}

}  // namespace glb::sync
