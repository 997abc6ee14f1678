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
  pending_.resize(latency_ + 1);
  for (Batch& b : pending_) {
    b.line = this;
    b.run = &GLine::RunFlush;
  }
}

void GLine::Assert() {
  const Cycle now = engine_.Now();
  if (signals_ != nullptr) signals_->Inc();
  Batch& b = pending_[now % pending_.size()];
  if (b.at != now) {
    // First assertion this cycle: the slot's last batch was flushed or
    // cancelled (it was asserted latency+1 or more cycles ago).
    b.at = now;
    b.count = 0;
    if (!b.queued) {
      b.queued = true;
      b.flush_epoch = epoch_;
      engine_.JoinIn(latency_, b);
    } else {
      // A reset earlier this cycle cancelled the slot's batch while its
      // flush is still queued: this batch gets a flush event of its own.
      engine_.ScheduleIn(latency_, [this, &b, ep = epoch_] {
        if (ep == epoch_) Flush(b);
      });
    }
  }
  ++b.count;
  GLB_CHECK(b.count <= std::max(num_transmitters_, 1u))
      << "more simultaneous assertions than transmitters on " << name_;
}

void GLine::CancelPending() {
  ++epoch_;
  for (Batch& b : pending_) {
    b.at = kCycleNever;
    b.count = 0;
  }
}

bool GLine::has_pending() const {
  for (const Batch& b : pending_) {
    if (b.count > 0) return true;
  }
  return false;
}

void GLine::RunFlush(sim::Engine::Member& m) {
  Batch& b = static_cast<Batch&>(m);
  b.queued = false;
  if (b.flush_epoch != b.line->epoch_) return;  // cancelled by a reset
  b.line->Flush(b);
}

void GLine::Flush(Batch& b) {
  GLB_CHECK(b.count > 0) << "lost G-line batch on " << name_;
  const std::uint64_t epoch = epoch_;
  std::uint32_t count = b.count;
  b.at = kCycleNever;
  b.count = 0;
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
