// Interval sampler: engine-driven periodic snapshots of the StatSet
// (and caller-registered gauges), turning end-of-run aggregates into
// time series — straggler ramps, watchdog EWMA adaptation, and fault
// recovery become curves instead of one p99.
//
// Sampling is OFF by default (interval 0) and zero-overhead when
// disabled, like the trace sink: a disabled Sampler never schedules an
// event, never allocates, and leaves the simulation byte-identical
// (asserted by sampler_test.cc). When enabled, ticks ride the normal
// event queue, so a run's sample cycles — and the sampled values — are
// deterministic for fixed flags and any --jobs value. The ticks do add
// to Engine::events_processed(), so `host_events` in a manifest grows
// with sampling on; every *simulated* observable is unchanged (the
// sampler only reads state, after Engine::SettleSlots has credited the
// polls that parked spinners skipped).
//
// Each sample records the absolute value of every counter/gauge whose
// value CHANGED since the previous tick (first tick: every nonzero
// value), keeping the series sparse: an idle counter costs nothing
// after its last change. Consumers reconstruct per-interval deltas by
// subtracting consecutive samples (see tools/glb_report.cc).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "sim/engine.h"

namespace glb::trace {

/// One snapshot: the cycle it was taken plus the (name, absolute value)
/// pairs that changed since the previous snapshot, in name order.
struct Sample {
  Cycle t = 0;
  std::vector<std::pair<std::string, std::uint64_t>> values;
};

class Sampler {
 public:
  /// `interval` of 0 disables the sampler entirely. The engine, stats
  /// and any gauge closures must outlive the sampler.
  Sampler(sim::Engine& engine, const StatSet& stats, Cycle interval)
      : engine_(engine), stats_(stats), interval_(interval) {}

  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  bool enabled() const { return interval_ > 0; }
  Cycle interval() const { return interval_; }

  /// Registers a named series not backed by a StatSet counter (e.g. the
  /// adaptive watchdog window, per-category core cycles). Read at every
  /// tick. No-op when disabled, so wiring code needs no guard.
  void AddGauge(std::string name, std::function<std::uint64_t()> fn);

  /// Schedules the first tick. No-op when disabled. Call after the
  /// system is built, before the run.
  void Start();

  /// Captures the end-of-run point if anything changed after the last
  /// tick (the tail of a run rarely lands on an interval boundary).
  /// No-op when disabled.
  void FinalSample();

  const std::vector<Sample>& samples() const { return samples_; }

 private:
  void Tick();
  /// Appends a sample at Now() holding every changed series; drops the
  /// sample if nothing changed.
  void Snapshot();

  sim::Engine& engine_;
  const StatSet& stats_;
  const Cycle interval_;
  std::vector<std::pair<std::string, std::function<std::uint64_t()>>> gauges_;
  /// Last emitted value per series; absent means "never nonzero yet".
  std::map<std::string, std::uint64_t, std::less<>> last_;
  std::vector<Sample> samples_;
};

}  // namespace glb::trace
