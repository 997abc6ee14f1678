#include "sync/spinlock.h"

#include <algorithm>

#include "coherence/protocol.h"
#include "core/timebreak.h"

namespace glb::sync {

using coherence::AmoOp;
using core::CategoryScope;
using core::Core;
using core::Task;
using core::TimeCat;

Task SpinLock::Acquire(Core& core) {
  CategoryScope scope(core, TimeCat::kLock);
  Cycle backoff = kBackoffBase;
  while (true) {
    // Test: spin in S without bus traffic until the lock looks free.
    co_await core.SpinUntil(addr_, [](Word v) { return v == 0; });
    // Test-and-set: one shot at the exclusive copy.
    const Word old = co_await core.Amo(addr_, AmoOp::kTestAndSet, 1);
    if (old == 0) co_return;
    // Lost the race; back off to damp the GetX storm.
    co_await core.Compute(backoff);
    backoff = std::min<Cycle>(backoff * 2, kBackoffMax);
  }
}

Task SpinLock::Release(Core& core) {
  CategoryScope scope(core, TimeCat::kLock);
  co_await core.Store(addr_, 0);
}

}  // namespace glb::sync
