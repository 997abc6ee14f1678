#include "core/core.h"

namespace glb::core {

Core::Core(sim::Engine& engine, coherence::L1Controller& l1, CoreId id,
           const CoreConfig& cfg, StatSet& stats)
    : engine_(engine), l1_(l1), id_(id), rank_(id), cfg_(cfg),
      trace_track_("core " + std::to_string(id) + "/timeline") {
  loads_ = stats.GetCounter("core.loads");
  stores_ = stats.GetCounter("core.stores");
  amos_ = stats.GetCounter("core.amos");
  barriers_ = stats.GetCounter("core.barriers");
}

void Core::Run(Task program, std::function<void()> on_done) {
  GLB_CHECK(program.valid()) << "Run() on an empty task";
  GLB_CHECK(!program_.has_value() || done_) << "core " << id_ << " already running";
  done_ = false;
  started_at_ = engine_.Now();
  on_done_ = std::move(on_done);
  program_.emplace(std::move(program));
  auto& promise = program_->handle().promise();
  promise.done_flag = &done_;
  promise.on_complete = [this]() {
    finished_at_ = engine_.Now();
    if (on_done_) on_done_();
  };
  // Kick the program off as a same-cycle event so that Run() can be
  // called for all cores before any of them starts executing.
  engine_.ScheduleIn(0, [this]() {
    prof::Scope prof_scope(prof::Cat::kWorkload);
    program_->handle().resume();
  });
}

void Core::BeginSpin(const Spin& spin) {
  spin_ = spin;
  BeginOp(TimeCat::kRead);
  loads_->Inc();
  l1_.Load(spin_.addr, [this](Word v) { OnSpinValue(v); });
}

void Core::OnSpinValue(Word v) {
  if (spin_.passes(spin_.awaiter, v)) {
    EndOp();
    // The resumed coroutine body is workload code until its next
    // suspension point (host profiler; docs/OBSERVABILITY.md).
    prof::Scope prof_scope(prof::Cat::kWorkload);
    spin_.waiter.resume();
    return;
  }
  Repoll();
}

void Core::Repoll() {
  // The finished poll's time is charged as its own op would have been;
  // the next poll starts now.
  breakdown_[op_cat_] += engine_.Now() - op_start_;
  op_start_ = engine_.Now();
  loads_->Inc();
  // A hit re-reads the value that just failed (the line cannot change
  // while cached), so it parks; a miss is a real load.
  if (!l1_.Watch(spin_.addr, spin_slot_)) {
    l1_.Load(spin_.addr, [this](Word v) { OnSpinValue(v); });
  }
}

void Core::SettleSpin() {
  // The slot's latest hop re-issued the poll at due - period: polls up
  // to that cycle were issued and every one before it has returned.
  const Cycle last = spin_slot_.due() - spin_slot_.period();
  if (last == op_start_) return;
  const std::uint64_t skipped = (last - op_start_) / spin_slot_.period();
  loads_->Inc(skipped);
  l1_.CreditWatchedHits(skipped);
  breakdown_[op_cat_] += last - op_start_;
  op_start_ = last;
}

void Core::SpinSlot::Fire() {
  // The line went away: the poll issued one period ago returns its
  // (failing) value now, and the loop's next load misses.
  core_.SettleSpin();
  core_.Repoll();
}

}  // namespace glb::core
