// Gates the run phase of whole simulations on allocation counts: once a
// machine is built and its workload initialised, running it must cost a
// bounded number of heap allocations that does not grow with the
// events it runs. Each perfbench workload runs at 16 cores. The pools
// that remain (coroutine frames, message and payload buffers, directory
// transaction nodes) grow only to the peak number in use at once, so
// Synthetic on the G-line hierarchy and OCEAN on the DSW software
// barrier make exactly as many allocations at two iteration counts
// past their first; EM3D on the hierarchy stays under a fixed budget.
// Every run is measured on a fresh thread, so it starts with empty
// coroutine-frame caches; coroutine frames are counted apart from the
// rest, because sanitizer builds bypass the frame cache (there, every
// frame is an allocation, and only the rest must stay flat). Global
// operator new is replaced in this binary to count allocations.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>

#include "cmp/cmp_system.h"
#include "core/task.h"
#include "harness/experiment.h"
#include "harness/spec.h"
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

namespace glb {
namespace {

constexpr std::uint32_t kCores = 16;

struct RunCount {
  /// Allocations other than coroutine frames, and the frames.
  std::uint64_t allocs = 0;
  std::uint64_t frames = 0;
  std::uint64_t events = 0;
};

/// Builds and initialises the machine, then counts the allocations of
/// the run alone (on a fresh thread).
RunCount CountRun(const std::string& workload, harness::BarrierKind kind,
                  std::uint32_t iters) {
  RunCount out;
  std::thread worker([&] {
    harness::Scale scale = harness::Scale::ForCores(kCores);
    scale.synthetic_iters = iters;
    scale.ocean_iters = iters;
    scale.em3d_steps = iters;
    cmp::CmpConfig cfg = cmp::CmpConfig::WithCores(kCores);
    if (kind == harness::BarrierKind::kGLH) cfg.hier.enabled = true;
    cmp::CmpSystem sys(cfg.ForBarrier(kind));
    auto wl = harness::MakeWorkload(workload, scale);
    ASSERT_NE(wl, nullptr);
    wl->Init(sys);
    auto barrier = harness::MakeBarrier(kind, sys);
    const std::uint64_t before = g_allocs.load();
    const std::uint64_t frames_before = core::FrameAllocations();
    const sim::RunStatus status = sys.RunProgramsStatus(
        [&](core::Core& c, CoreId id) { return wl->Body(c, id, *barrier); }, kCycleNever);
    out.frames = core::FrameAllocations() - frames_before;
    out.allocs = g_allocs.load() - before - out.frames;
    out.events = sys.engine().events_processed();
    ASSERT_TRUE(status.idle) << status.DescribeStall();
    EXPECT_EQ(wl->Validate(sys), "");
  });
  worker.join();
  return out;
}

TEST(RunAlloc, SyntheticGlhAllocationsDoNotGrowWithIterations) {
  const RunCount small = CountRun("Synthetic", harness::BarrierKind::kGLH, 50);
  const RunCount large = CountRun("Synthetic", harness::BarrierKind::kGLH, 200);
  EXPECT_GT(large.events, small.events);
  EXPECT_EQ(large.allocs, small.allocs)
      << small.allocs << " allocations at 50 iterations, " << large.allocs << " at 200";
  if (core::FrameCacheEnabled()) {
    EXPECT_EQ(large.frames, small.frames);
  }
}

// OCEAN's first iteration warms the pools up (cold L2 misses, the
// first messages in flight). Later iterations can still meet a new peak
// of lines in flight: 20 iterations make one allocation more than 4
// and 8 do, which the last bound allows for.
TEST(RunAlloc, OceanDswAllocationsDoNotGrowWithIterations) {
  const RunCount small = CountRun("OCEAN", harness::BarrierKind::kDSW, 4);
  const RunCount large = CountRun("OCEAN", harness::BarrierKind::kDSW, 8);
  EXPECT_GT(large.events, small.events);
  EXPECT_EQ(large.allocs, small.allocs)
      << small.allocs << " allocations at 4 iterations, " << large.allocs << " at 8";
  if (core::FrameCacheEnabled()) {
    EXPECT_EQ(large.frames, small.frames);
  }
  const RunCount longest = CountRun("OCEAN", harness::BarrierKind::kDSW, 20);
  EXPECT_LE(longest.allocs, small.allocs + 4)
      << longest.allocs << " allocations at 20 iterations, " << small.allocs << " at 4";
}

// 702 allocations at 4 time steps, the same at 2 to 20: cold L2 misses,
// the pools' warm-up and the final flush. The budget adds 10% headroom.
TEST(RunAlloc, Em3dGlhRunUnderBudget) {
  constexpr std::uint64_t kBudget = 780;
  const RunCount run = CountRun("EM3D", harness::BarrierKind::kGLH, 4);
  const std::uint64_t frames = core::FrameCacheEnabled() ? run.frames : 0;
  EXPECT_GT(run.events, 100'000u);
  EXPECT_LE(run.allocs + frames, kBudget)
      << run.allocs << " allocations and " << frames << " frames, " << run.events
      << " events";
}

}  // namespace
}  // namespace glb
