// Micro-benchmarks of the simulator substrate itself (google-benchmark):
// event-queue throughput (bucket ring vs far heap, allocations per
// event), cache array operations, NoC message cost, coherent load hits,
// and full G-line barrier episodes. These set the wall-clock
// expectations for the bigger harnesses; docs/PERFORMANCE.md explains
// how to read them and BENCH_glbsim.json records the trajectory.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>

#include "cmp/cmp_system.h"
#include "common/stats.h"
#include "gline/barrier_network.h"
#include "mem/cache_array.h"
#include "noc/mesh.h"
#include "sim/engine.h"

// Global allocation counter so the engine benchmarks can report
// allocs/op as a user counter. Counting every path that can allocate
// (scalar, array, aligned) is enough here; sized deletes just free.
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

// GCC pairs these replaced operators against inlined call sites in the
// benchmark library headers and mis-reports a new/free mismatch; every
// replaced operator here uses the malloc family consistently.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align), size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop

namespace {

using namespace glb;

void BM_EngineScheduleRun(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  const std::uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    sim::Engine e;
    for (std::uint64_t i = 0; i < n; ++i) {
      e.ScheduleAt(i % 1024, []() {});
    }
    e.RunUntilIdle();
    benchmark::DoNotOptimize(e.events_processed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
  state.counters["allocs_per_event"] = benchmark::Counter(
      static_cast<double>(g_allocs.load(std::memory_order_relaxed) -
                          allocs_before) /
      (static_cast<double>(n) * static_cast<double>(state.iterations())));
}
BENCHMARK(BM_EngineScheduleRun)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

// Bucket-ring fast path in isolation: one warm Engine, every event
// within the kRingCycles window, nodes recycled through the free list.
// Steady-state this is allocation-free (allocs_per_event ~ 0).
void BM_EngineNearEvents(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  sim::Engine e;
  // Warm the node pool so the timed loop measures recycling, not growth.
  for (std::uint64_t i = 0; i < n; ++i) e.ScheduleIn(i % 1024, []() {});
  e.RunUntilIdle();
  const std::uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    for (std::uint64_t i = 0; i < n; ++i) {
      e.ScheduleIn(i % 1024, []() {});
    }
    e.RunUntilIdle();
    benchmark::DoNotOptimize(e.events_processed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
  state.counters["allocs_per_event"] = benchmark::Counter(
      static_cast<double>(g_allocs.load(std::memory_order_relaxed) -
                          allocs_before) /
      (static_cast<double>(n) * static_cast<double>(state.iterations())));
}
BENCHMARK(BM_EngineNearEvents)->Arg(1 << 14);

// Far-heap slow path: every event beyond the ring window, so each one
// takes the push_heap/pop_heap route before landing in a bucket.
void BM_EngineFarEvents(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine e;
    for (std::uint64_t i = 0; i < n; ++i) {
      e.ScheduleIn(sim::Engine::kRingCycles + i % 4096, []() {});
    }
    e.RunUntilIdle();
    benchmark::DoNotOptimize(e.events_processed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_EngineFarEvents)->Arg(1 << 14);

void BM_CacheArrayLookupHit(benchmark::State& state) {
  struct Meta {
    int s = 0;
  };
  mem::CacheArray<Meta> cache(mem::CacheGeometry{32 * 1024, 4, 64});
  for (Addr a = 0; a < 16 * 1024; a += 64) cache.Install(cache.VictimFor(a), a);
  Addr a = 0;
  for (auto _ : state) {
    auto* line = cache.Lookup(a);
    benchmark::DoNotOptimize(line);
    a = (a + 64) % (16 * 1024);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheArrayLookupHit);

void BM_MeshMessage(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    sim::Engine engine;
    StatSet stats;
    noc::MeshConfig cfg;
    cfg.rows = 4;
    cfg.cols = 8;
    noc::Mesh mesh(engine, cfg, stats);
    state.ResumeTiming();
    for (int i = 0; i < 256; ++i) {
      noc::Packet p;
      p.src = static_cast<CoreId>(i % 32);
      p.dst = static_cast<CoreId>((i * 7) % 32);
      p.bytes = 75;
      p.deliver = []() {};
      mesh.Send(std::move(p));
    }
    engine.RunUntilIdle();
  }
  state.SetItemsProcessed(256 * state.iterations());
}
BENCHMARK(BM_MeshMessage);

void BM_CoherentLoadHit(benchmark::State& state) {
  cmp::CmpSystem sys(cmp::CmpConfig::WithCores(4));
  // Warm one line into the L1.
  bool done = false;
  sys.fabric().l1(0).Load(0x1000, [&](Word) { done = true; });
  sys.engine().RunUntilIdle();
  GLB_CHECK(done) << "warmup failed";
  for (auto _ : state) {
    bool hit = false;
    sys.fabric().l1(0).Load(0x1000, [&](Word) { hit = true; });
    sys.engine().RunUntilIdle();
    benchmark::DoNotOptimize(hit);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CoherentLoadHit);

void BM_GlineBarrierEpisode(benchmark::State& state) {
  const auto cores = static_cast<std::uint32_t>(state.range(0));
  const auto cfg = cmp::CmpConfig::WithCores(cores);
  sim::Engine engine;
  StatSet stats;
  gline::BarrierNetwork net(engine, cfg.rows, cfg.cols, cfg.gline, stats);
  for (auto _ : state) {
    const Cycle t = engine.Now() + 1;
    engine.ScheduleAt(t, [&]() {
      for (CoreId c = 0; c < cores; ++c) {
        net.Arrive(c, []() {});
      }
    });
    engine.RunUntilIdle();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GlineBarrierEpisode)->Arg(4)->Arg(16)->Arg(32);

}  // namespace

BENCHMARK_MAIN();
