#include "gline/gline.h"

#include <algorithm>
#include <utility>

namespace glb::gline {

GLine::GLine(sim::Engine& engine, std::string name, std::uint32_t num_transmitters,
             std::uint32_t max_transmitters, TxPolicy policy, Counter* signal_counter)
    : engine_(engine),
      name_(std::move(name)),
      num_transmitters_(num_transmitters),
      signals_(signal_counter) {
  GLB_CHECK(max_transmitters > 0) << "G-line needs a transmitter budget";
  if (num_transmitters <= max_transmitters) {
    latency_ = 1;
  } else {
    GLB_CHECK(policy == TxPolicy::kRelaxed)
        << "G-line '" << name_ << "' has " << num_transmitters
        << " transmitters, exceeding the limit of " << max_transmitters
        << " (use TxPolicy::kRelaxed for longer-latency/segmented lines)";
    latency_ = (num_transmitters + max_transmitters - 1) / max_transmitters;
  }
}

void GLine::Assert() {
  const Cycle now = engine_.Now();
  if (signals_ != nullptr) signals_->Inc();
  auto [it, fresh] = pending_.try_emplace(now, 0u);
  ++it->second;
  GLB_CHECK(it->second <= std::max(num_transmitters_, 1u))
      << "more simultaneous assertions than transmitters on " << name_;
  if (fresh) {
    engine_.ScheduleIn(latency_, [this, now, ep = epoch_]() { Flush(now, ep); });
  }
}

void GLine::CancelPending() {
  ++epoch_;
  pending_.clear();
}

void GLine::Flush(Cycle asserted_at, std::uint64_t epoch) {
  if (epoch != epoch_) return;  // batch was cancelled by a reset
  auto it = pending_.find(asserted_at);
  GLB_CHECK(it != pending_.end()) << "lost G-line batch on " << name_;
  std::uint32_t count = it->second;
  pending_.erase(it);
  if (fault_ != nullptr) {
    count = fault_(*this, count);
    if (count == 0) return;  // the whole batch was lost on the wire
  }
  for (auto& r : receivers_) {
    // A receiver's reaction may reset the line (a recovery or probe
    // end triggered by this very count); the reset gates the remaining
    // deliveries of this batch.
    if (epoch != epoch_) break;
    r(count);
  }
}

}  // namespace glb::gline
