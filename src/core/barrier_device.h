// Interface between a core's bar_reg register and a hardware barrier
// implementation (the G-line barrier network, the HYB unit).
//
// Architecturally (paper §3.3) the core writes bar_reg := 1 to announce
// arrival and spins on `bnz bar_reg, loop`; the barrier hardware clears
// bar_reg when the global synchronization completes. In the simulator
// the spin is represented by blocking the core's coroutine: Arrive() is
// the bar_reg write, and the waiter's Release() models the cleared
// register being observed on the next loop iteration.
//
// The waiter is intrusive and allocation-free: it lives in the core's
// awaiter on the coroutine frame (or, for a hierarchy node arriving at
// its parent, in the node), and the device keeps only a pointer to it
// from the arrival to the release. Its link and entry point are an
// engine batch Member, so the same node carries a core's notify and
// resume hops through sim::Engine batches (docs/PERFORMANCE.md §11).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/types.h"
#include "sim/engine.h"

namespace glb::core {

/// A place in a barrier. Whoever holds it owns `next`; the device calls
/// Release() exactly once, at the cycle the hardware resets bar_reg,
/// and does not touch the waiter afterwards (Release may re-arrive).
struct BarrierWaiter : sim::Engine::Member {
  void Release() { run(*this); }
};

class BarrierDevice {
 public:
  virtual ~BarrierDevice();

  /// Core `core` wrote bar_reg := 1. The device must eventually call
  /// `waiter.Release()` (once) at the cycle the hardware resets bar_reg.
  virtual void Arrive(CoreId core, BarrierWaiter& waiter) = 0;

  /// For tests and tools that drive a device without a core:
  /// `on_release` runs once, at the release. The device keeps one
  /// reusable waiter per core id for this.
  void Arrive(CoreId core, std::function<void()> on_release);

 private:
  struct CallbackWaiter : BarrierWaiter {
    CallbackWaiter();
    std::function<void()> fn;
  };
  std::vector<std::unique_ptr<CallbackWaiter>> callbacks_;
};

}  // namespace glb::core
