#include "cmp/fastforward.h"

#include <utility>

#include "common/check.h"

namespace glb::cmp {

/// Episode-counting wrapper around the chip's barrier device. The
/// controller's per-episode hook runs at the *first* release callback
/// of an episode — after the inner device completed the barrier, before
/// any core has resumed — which is the one structurally identical point
/// every iteration passes through.
class FastForwardController::Device final : public core::BarrierDevice {
 public:
  Device(FastForwardController& ctl, core::BarrierDevice* inner)
      : ctl_(ctl), inner_(inner) {}

  void Arrive(CoreId core, std::function<void()> on_release) override {
    inner_->Arrive(core, [this, cb = std::move(on_release)]() {
      ctl_.OnRelease();
      cb();
    });
  }

 private:
  FastForwardController& ctl_;
  core::BarrierDevice* inner_;
};

FastForwardController::FastForwardController(StatSet& stats,
                                             std::uint32_t num_cores)
    : stats_(stats), num_cores_(num_cores) {
  GLB_CHECK(num_cores > 0) << "fast-forward over zero cores";
}

FastForwardController::~FastForwardController() = default;

void FastForwardController::Configure(std::uint32_t phases_per_iter,
                                      std::uint32_t warmup_episodes) {
  GLB_CHECK(phases_per_iter > 0) << "iteration with no phases";
  GLB_CHECK(phases_per_iter_ == 0 || phases_per_iter_ == phases_per_iter)
      << "conflicting fast-forward configurations";
  phases_per_iter_ = phases_per_iter;
  warmup_episodes_ = warmup_episodes;
  cur_.assign(static_cast<std::size_t>(num_cores_) * phases_per_iter, {});
  prev_.assign(cur_.size(), {});
}

core::BarrierDevice* FastForwardController::Wrap(core::BarrierDevice* inner) {
  GLB_CHECK(device_ == nullptr) << "fast-forward device already wrapped";
  device_ = std::make_unique<Device>(*this, inner);
  return device_.get();
}

void FastForwardController::OnRelease() {
  if (released_ == 0) OnEpisodeRelease();
  if (++released_ == num_cores_) released_ = 0;
}

void FastForwardController::RecordPhase(CoreId core, std::uint32_t phase,
                                        Cycle cycles,
                                        const core::TimeBreakdown& delta) {
  if (phases_per_iter_ == 0) return;
  GLB_DCHECK(phase < phases_per_iter_) << "phase index out of range";
  PhaseRecord& r = cur_[static_cast<std::size_t>(core) * phases_per_iter_ + phase];
  r.cycles = cycles;
  r.delta = delta;
  r.valid = true;
}

Cycle FastForwardController::PhaseCycles(CoreId core, std::uint32_t phase) const {
  const PhaseRecord& r =
      table_[static_cast<std::size_t>(core) * phases_per_iter_ + phase];
  GLB_DCHECK(r.valid) << "replaying an unmeasured phase";
  return r.cycles;
}

const core::TimeBreakdown* FastForwardController::PhaseDelta(
    CoreId core, std::uint32_t phase) const {
  return &table_[static_cast<std::size_t>(core) * phases_per_iter_ + phase].delta;
}

void FastForwardController::OnEpisodeRelease() {
  ++episode_;
  if (phases_per_iter_ == 0) return;
  if (episode_ <= warmup_episodes_) return;
  if ((episode_ - warmup_episodes_) % phases_per_iter_ != 0) return;
  OnIterationEnd();
}

void FastForwardController::OnIterationEnd() {
  snaps_.push_back(Snap());
  if (snaps_.size() > 3) snaps_.pop_front();

  if (engaged_) {
    ++replay_iters_;
    ApplyExpected(replay_iters_);
    return;
  }

  bool phases_match = true;
  for (std::size_t i = 0; i < cur_.size(); ++i) {
    if (!(cur_[i] == prev_[i])) {
      phases_match = false;
      break;
    }
  }
  if (phases_match && snaps_.size() == 3 &&
      PeriodicDelta(snaps_[0], snaps_[1], snaps_[2])) {
    engaged_ = true;
    table_ = cur_;
    base_ = snaps_[2];
    // Per-iteration registry delta (counters subtract exactly; histogram
    // deltas live in count/sum/buckets, min/max are already settled).
    iter_delta_.counters.clear();
    for (const auto& [name, v] : snaps_[2].counters) {
      iter_delta_.counters.emplace(name, v - snaps_[1].counters.at(name));
    }
    iter_delta_.hists.clear();
    for (const auto& [name, s2] : snaps_[2].hists) {
      const Histogram::State& s1 = snaps_[1].hists.at(name);
      Histogram::State d;
      d.count = s2.count - s1.count;
      d.sum = s2.sum - s1.sum;
      for (std::size_t b = 0; b < d.buckets.size(); ++b) {
        d.buckets[b] = s2.buckets[b] - s1.buckets[b];
      }
      iter_delta_.hists.emplace(name, d);
    }
    replay_iters_ = 0;
    replaying_ = true;
    return;
  }

  prev_ = cur_;
  for (PhaseRecord& r : cur_) r.valid = false;
}

FastForwardController::Snapshot FastForwardController::Snap() const {
  Snapshot s;
  stats_.ForEachCounter([&s](const std::string& name, const Counter& c) {
    s.counters.emplace(name, c.value());
  });
  stats_.ForEachHistogram([&s](const std::string& name, const Histogram& h) {
    s.hists.emplace(name, h.GetState());
  });
  return s;
}

bool FastForwardController::PeriodicDelta(const Snapshot& s0, const Snapshot& s1,
                                          const Snapshot& s2) {
  if (s0.counters.size() != s1.counters.size() ||
      s1.counters.size() != s2.counters.size() ||
      s0.hists.size() != s1.hists.size() || s1.hists.size() != s2.hists.size()) {
    return false;  // registry grew mid-iteration: not steady state yet
  }
  auto i0 = s0.counters.begin();
  auto i1 = s1.counters.begin();
  for (const auto& [name, v2] : s2.counters) {
    if (i0->first != name || i1->first != name) return false;
    if (v2 - i1->second != i1->second - i0->second) return false;
    ++i0;
    ++i1;
  }
  auto h0 = s0.hists.begin();
  auto h1 = s1.hists.begin();
  for (const auto& [name, v2] : s2.hists) {
    if (h0->first != name || h1->first != name) return false;
    const Histogram::State& v0 = h0->second;
    const Histogram::State& v1 = h1->second;
    if (v2.count - v1.count != v1.count - v0.count) return false;
    if (v2.sum - v1.sum != v1.sum - v0.sum) return false;
    if (v2.min_raw != v1.min_raw || v2.max_raw != v1.max_raw) return false;
    for (std::size_t b = 0; b < v2.buckets.size(); ++b) {
      if (v2.buckets[b] - v1.buckets[b] != v1.buckets[b] - v0.buckets[b]) {
        return false;
      }
    }
    ++h0;
    ++h1;
  }
  return true;
}

void FastForwardController::ApplyExpected(std::uint64_t k) const {
  // Overwrite with engage + k * delta: a no-op for everything the live
  // barrier machinery still ticks, and the exact would-have-been value
  // for the stats of the skipped phase bodies.
  for (const auto& [name, base] : base_.counters) {
    stats_.GetCounter(name)->Set(base + k * iter_delta_.counters.at(name));
  }
  for (const auto& [name, bs] : base_.hists) {
    const Histogram::State& d = iter_delta_.hists.at(name);
    Histogram::State s = bs;
    s.count += k * d.count;
    s.sum += k * d.sum;
    for (std::size_t b = 0; b < s.buckets.size(); ++b) {
      s.buckets[b] += k * d.buckets[b];
    }
    stats_.GetHistogram(name)->SetState(s);
  }
}

}  // namespace glb::cmp
