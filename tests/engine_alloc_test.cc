// Asserts the engine's bucket fast path is allocation-free in steady
// state: event nodes come from the recycled free list and sim::Task
// stores typical captures inline, so scheduling + dispatching
// near-future events never touches the heap. Global operator new is
// replaced in this binary to count allocations.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "sim/engine.h"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, std::align_val_t al) {
  ++g_allocs;
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(al), n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace glb::sim {
namespace {

TEST(EngineAlloc, BucketFastPathIsAllocationFree) {
  Engine e;
  std::uint64_t sink = 0;

  // The exact pattern of the hot loop: short-delta events whose
  // captures (a reference + a cycle) fit sim::Task's inline buffer,
  // scheduled from callbacks and from outside, drained to idle.
  const auto pattern = [&]() {
    for (int rep = 0; rep < 64; ++rep) {
      for (Cycle d = 0; d < 8; ++d) {
        e.ScheduleIn(d, [&sink, d]() { sink += d; });
      }
      e.ScheduleIn(1, [&e, &sink]() {
        e.ScheduleIn(0, [&sink]() { ++sink; });  // zero-delay chain
      });
      e.RunUntilIdle();
    }
  };

  pattern();  // warm: free list and vector capacities reach steady state
  const std::uint64_t before = g_allocs.load();
  pattern();
  EXPECT_EQ(g_allocs.load(), before)
      << "bucket fast path allocated " << (g_allocs.load() - before) << " times";
  EXPECT_GT(sink, 0u);
}

TEST(EngineAlloc, RecyclesNodesAcrossEpisodes) {
  // Many small episodes must not grow memory: after warmup, thousands
  // of further events reuse the same nodes.
  Engine e;
  std::uint64_t fired = 0;
  for (int i = 0; i < 32; ++i) {
    e.ScheduleIn(3, [&fired]() { ++fired; });
    e.RunUntilIdle();
  }
  const std::uint64_t before = g_allocs.load();
  for (int i = 0; i < 10000; ++i) {
    e.ScheduleIn(static_cast<Cycle>(i % 7), [&fired]() { ++fired; });
    e.RunUntilIdle();
  }
  EXPECT_EQ(g_allocs.load(), before);
  EXPECT_EQ(fired, 32u + 10000u);
}

class ReparkingSlot final : public Engine::Slot {
 public:
  explicit ReparkingSlot(Engine& e) : e_(e) {}
  int fired = 0;

 private:
  void Fire() override {
    if (++fired % 2 == 1) e_.Park(*this, 3);  // park again from Fire
  }
  void Settle() override {}
  Engine& e_;
};

TEST(EngineAlloc, SlotParkHopAndFireAreAllocationFree) {
  Engine e;
  ReparkingSlot slot(e);
  std::uint64_t sink = 0;
  const auto pattern = [&]() {
    e.ScheduleIn(0, [&]() { e.Park(slot, 1); });
    e.ScheduleIn(40, [&]() { slot.Disarm(); });
    e.ScheduleIn(60, [&]() { slot.Disarm(); });
    for (Cycle d = 0; d < 64; ++d) e.ScheduleIn(d, [&sink, d]() { sink += d; });
    e.RunUntilIdle();
  };
  pattern();  // warm
  const std::uint64_t before = g_allocs.load();
  for (int rep = 0; rep < 16; ++rep) pattern();
  EXPECT_EQ(g_allocs.load(), before)
      << "slot park/hop/fire allocated " << (g_allocs.load() - before) << " times";
  EXPECT_EQ(slot.fired, 2 * 17);
  EXPECT_GT(sink, 0u);
}

}  // namespace
}  // namespace glb::sim
