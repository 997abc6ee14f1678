// Compute fast-forward: replay steady-state compute phases as single
// events.
//
// Barrier-synchronized workloads settle into exactly periodic
// iterations: every core repeats the same loads, stores and compute
// between the same barriers, so the simulator spends most of its host
// time re-deriving numbers it has already produced. This controller
// watches per-(core, phase) measurements that the workload reports and
// the chip-wide stat registry at iteration boundaries; once two
// consecutive iterations are identical in both, it *engages*: cores
// switch from executing phase bodies to awaiting one
// Core::FastForwardAwaiter per phase with the memoized duration and
// time-breakdown delta, while barriers (and therefore the barrier
// network traffic under study) keep running for real.
//
// Exactness: engagement requires bit-identical per-phase durations and
// breakdowns for every core AND an identical chip-wide stat delta over
// the two preceding iterations. During replay the controller overwrites
// every counter/histogram with `engage + k * delta` at each iteration
// boundary — a no-op for stats the live barrier machinery still ticks,
// and the exact would-have-been value for the skipped compute-phase
// stats. Functional memory is reconciled by the workload's Validate
// (the sequential reference already holds the final image).
//
// The controller never engages when a fault script can perturb
// mid-phase state — CmpSystem refuses to construct it in that case —
// and is inert under software barriers (no device releases, so the
// episode clock never ticks).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "core/barrier_device.h"
#include "core/timebreak.h"

namespace glb::cmp {

class FastForwardController {
 public:
  FastForwardController(StatSet& stats, std::uint32_t num_cores);
  ~FastForwardController();  // out-of-line: Device is incomplete here

  // --- workload-facing ------------------------------------------------

  /// Declares the iteration shape: `phases_per_iter` barrier episodes
  /// per iteration after `warmup_episodes` initial episodes (e.g. EM3D:
  /// 2 phases per timestep after 1 initial barrier). Called from
  /// Workload::Init; without it the controller never engages.
  void Configure(std::uint32_t phases_per_iter, std::uint32_t warmup_episodes);

  /// Reports a measured phase: core `core` spent `cycles` between
  /// leaving the previous barrier and arriving at the next one, with
  /// time-category delta `delta`. Called from the core's coroutine.
  void RecordPhase(CoreId core, std::uint32_t phase, Cycle cycles,
                   const core::TimeBreakdown& delta);

  /// True once engaged: the workload must stop executing phase bodies
  /// and await FastForward(PhaseCycles(id, p), PhaseDelta(id, p))
  /// instead.
  bool replaying() const { return replaying_; }

  Cycle PhaseCycles(CoreId core, std::uint32_t phase) const;
  const core::TimeBreakdown* PhaseDelta(CoreId core, std::uint32_t phase) const;

  // --- system-facing --------------------------------------------------

  /// Wraps the chip's barrier device so releases tick the episode
  /// clock. The wrapper is owned by the controller; pass the returned
  /// pointer to Core::SetBarrierDevice.
  core::BarrierDevice* Wrap(core::BarrierDevice* inner);

  /// True if the controller engaged at any point during the run.
  bool engaged() const { return engaged_; }
  /// Iteration boundaries observed (diagnostics).
  std::uint64_t episodes() const { return episode_; }

 private:
  struct PhaseRecord {
    Cycle cycles = 0;
    core::TimeBreakdown delta;
    bool valid = false;
    bool operator==(const PhaseRecord& o) const {
      return valid && o.valid && cycles == o.cycles && delta == o.delta;
    }
  };

  /// Name-keyed snapshot of the whole registry. Keyed by name (not
  /// storage index) so a counter registered between snapshots reads as
  /// "not periodic" instead of misaligning the comparison.
  struct Snapshot {
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, Histogram::State> hists;
  };

  class Device;  // episode-counting BarrierDevice wrapper

  /// Called by the wrapper at every release callback.
  void OnRelease();
  /// Runs at the first release callback of each episode, before any
  /// core resumes.
  void OnEpisodeRelease();
  void OnIterationEnd();

  Snapshot Snap() const;
  /// True if s2 - s1 == s1 - s0 (counters exactly periodic; histogram
  /// count/sum/buckets periodic with min/max already settled).
  static bool PeriodicDelta(const Snapshot& s0, const Snapshot& s1,
                            const Snapshot& s2);
  void ApplyExpected(std::uint64_t k) const;

  StatSet& stats_;
  const std::uint32_t num_cores_;
  std::uint32_t phases_per_iter_ = 0;
  std::uint32_t warmup_episodes_ = 0;

  std::unique_ptr<Device> device_;
  std::uint64_t episode_ = 0;
  std::uint32_t released_ = 0;

  // Per-(core, phase) records of the current and previous iteration.
  std::vector<PhaseRecord> cur_, prev_;
  std::deque<Snapshot> snaps_;  // last 3 iteration-boundary snapshots

  bool replaying_ = false;
  bool engaged_ = false;
  std::vector<PhaseRecord> table_;  // memoized phases once engaged
  Snapshot base_;                   // registry at engagement
  Snapshot iter_delta_;             // per-iteration registry delta
  std::uint64_t replay_iters_ = 0;
};

}  // namespace glb::cmp
