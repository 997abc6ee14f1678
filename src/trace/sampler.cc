#include "trace/sampler.h"

#include <utility>

namespace glb::trace {

void Sampler::AddGauge(std::string name, std::function<std::uint64_t()> fn) {
  if (!enabled()) return;
  gauges_.emplace_back(std::move(name), std::move(fn));
}

void Sampler::Start() {
  if (!enabled()) return;
  engine_.ScheduleIn(interval_, [this]() { Tick(); });
}

void Sampler::Snapshot() {
  // Parked spinners credit their skipped polls lazily; bring every
  // counter and time breakdown up to this point of the run first.
  engine_.SettleSlots();
  Sample s;
  s.t = engine_.Now();
  const auto visit = [&](const std::string& name, std::uint64_t value) {
    const auto it = last_.find(name);
    if (it == last_.end()) {
      if (value == 0) return;  // never-touched series stay out entirely
      last_.emplace(name, value);
    } else {
      if (it->second == value) return;
      it->second = value;
    }
    s.values.emplace_back(name, value);
  };
  stats_.ForEachCounter(
      [&](const std::string& name, const Counter& c) { visit(name, c.value()); });
  for (const auto& [name, fn] : gauges_) visit(name, fn());
  if (!s.values.empty()) samples_.push_back(std::move(s));
}

void Sampler::Tick() {
  Snapshot();
  // The engine pops an event before running it, so pending_events()
  // here excludes this tick: a nonzero count means the simulation is
  // still live. Not rescheduling on zero is what lets the engine go
  // idle — a self-perpetuating tick would run forever.
  if (engine_.pending_events() > 0) {
    engine_.ScheduleIn(interval_, [this]() { Tick(); });
  }
}

void Sampler::FinalSample() {
  if (!enabled()) return;
  Snapshot();
}

}  // namespace glb::trace
