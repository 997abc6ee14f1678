#include "core/barrier_device.h"

#include <utility>

#include "common/check.h"

namespace glb::core {

BarrierDevice::CallbackWaiter::CallbackWaiter() {
  run = [](sim::Engine::Member& m) {
    // Moved out first: the callback may arrive again with a new one.
    auto on_release = std::move(static_cast<CallbackWaiter&>(m).fn);
    on_release();
  };
}

BarrierDevice::~BarrierDevice() = default;

void BarrierDevice::Arrive(CoreId core, std::function<void()> on_release) {
  GLB_CHECK(on_release != nullptr) << "arrival without release callback";
  if (core >= callbacks_.size()) callbacks_.resize(core + 1);
  if (callbacks_[core] == nullptr) callbacks_[core] = std::make_unique<CallbackWaiter>();
  CallbackWaiter& w = *callbacks_[core];
  w.fn = std::move(on_release);
  Arrive(core, w);
}

}  // namespace glb::core
