// Gates the NoC message path on allocation counts: once the mesh's
// in-flight slab has grown to the peak, carrying a packet costs no heap
// allocation, and a whole coherence-traffic run stays under a fixed
// budget. Global operator new is replaced in this binary to count
// allocations.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "cmp/cmp_system.h"
#include "common/stats.h"
#include "core/task.h"
#include "harness/experiment.h"
#include "harness/spec.h"
#include "noc/mesh.h"
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

constexpr std::uint32_t kSide = 8;
constexpr std::uint32_t kNodes = kSide * kSide;

struct Traffic {
  sim::Engine& engine;
  noc::Mesh& mesh;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;

  void Send(CoreId src, CoreId dst, noc::VNet vnet, std::uint32_t bytes, bool reply) {
    noc::Packet p;
    p.src = src;
    p.dst = dst;
    p.vnet = vnet;
    p.traffic = reply ? noc::TrafficClass::kRequest : noc::TrafficClass::kReply;
    p.bytes = bytes;
    // A request's delivery sends its reply, as a coherence controller
    // does from inside OnMessage.
    p.deliver = [this, src, dst, reply] {
      ++delivered;
      if (reply) Send(dst, src, noc::VNet::kResponse, 75, false);
    };
    mesh.Send(std::move(p));
    ++sent;
  }

  /// One wave per source: a packet on every virtual network, a
  /// tile-local packet, and a packet to the node-0 hot spot (so links
  /// near it are contended); requests are answered from their delivery.
  void Wave() {
    for (CoreId s = 0; s < kNodes; ++s) {
      const CoreId far = (s * 13 + 7) % kNodes;
      Send(s, far, noc::VNet::kRequest, 11, /*reply=*/true);
      Send(s, far, noc::VNet::kForward, 11, /*reply=*/s % 2 == 0);
      Send(s, (s + kSide) % kNodes, noc::VNet::kResponse, 150, false);
      Send(s, s, noc::VNet::kRequest, 11, /*reply=*/true);
      Send(s, 0, noc::VNet::kRequest, 75, false);
    }
    engine.RunUntilIdle();
  }
};

TEST(NocAlloc, WarmMeshCarriesPacketsWithoutAllocating) {
  sim::Engine engine;
  StatSet stats;
  noc::MeshConfig cfg;
  cfg.rows = kSide;
  cfg.cols = kSide;
  noc::Mesh mesh(engine, cfg, stats);
  Traffic traffic{engine, mesh};

  traffic.Wave();  // warm: the slab and the engine reach their peak
  const std::uint64_t sent_before = traffic.sent;
  const std::uint64_t before = g_allocs.load();
  for (int w = 0; w < 8; ++w) traffic.Wave();
  const std::uint64_t allocs = g_allocs.load() - before;

  const std::uint64_t sent = traffic.sent - sent_before;
  EXPECT_GT(sent, 3000u);
  EXPECT_EQ(traffic.delivered, traffic.sent);
  EXPECT_GT(stats.CounterValue("noc.local_msgs"), 0u);
  EXPECT_EQ(allocs, 0u) << allocs << " allocations carrying " << sent << " packets";
}

// A whole 16-core EM3D run on the G-line hierarchy: set-up, remote
// graph reads over the NoC, coherence replies and barriers. Before the
// in-flight slab, the message pool, recycled payloads and inline
// directory continuations, this run made 1,464,202 allocations; with
// them, 51,674, most of them one transaction-table node per directory
// request. With recycled table nodes and coroutine frames it makes
// 2,133, mostly set-up. The budget is that with 10% headroom. Builds
// that bypass the coroutine-frame cache (sanitizers) allocate every
// frame; those frames are not counted.
TEST(NocAlloc, Em3dGlh16CoreRunUnderBudget) {
  constexpr std::uint64_t kBudget = 2'350;
  cmp::CmpConfig cfg = cmp::CmpConfig::WithCores(16);
  cfg.hier.enabled = true;
  const harness::WorkloadFactory factory =
      harness::MakeWorkloadFactory("EM3D", harness::Scale::ForCores(16));
  ASSERT_NE(factory, nullptr);
  const std::uint64_t before = g_allocs.load();
  const std::uint64_t frames_before = core::FrameAllocations();
  const harness::RunMetrics m =
      harness::RunExperiment(factory, harness::BarrierKind::kGLH, cfg);
  const std::uint64_t uncached_frames =
      core::FrameCacheEnabled() ? 0 : core::FrameAllocations() - frames_before;
  const std::uint64_t allocs = g_allocs.load() - before - uncached_frames;
  ASSERT_TRUE(m.completed) << m.stall;
  EXPECT_EQ(m.validation, "");
  EXPECT_GT(m.msgs_request + m.msgs_reply + m.msgs_coherence, 10'000u);
  EXPECT_LE(allocs, kBudget) << allocs << " allocations in a 16-core EM3D run";
}

}  // namespace
}  // namespace glb
