// NoC tests: XY routing, latency model, serialization, contention,
// per-VN FIFO ordering, traffic accounting, and deliveries that send
// (the in-flight slab growing under a running delivery).
#include <gtest/gtest.h>

#include <tuple>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "noc/mesh.h"
#include "sim/engine.h"
#include "trace/trace.h"

namespace glb::noc {
namespace {

struct Fixture {
  sim::Engine engine;
  StatSet stats;
  MeshConfig cfg;
  std::unique_ptr<Mesh> mesh;

  explicit Fixture(std::uint32_t rows = 4, std::uint32_t cols = 4,
                   std::uint32_t link_bytes = 75) {
    cfg.rows = rows;
    cfg.cols = cols;
    cfg.link_bytes = link_bytes;
    mesh = std::make_unique<Mesh>(engine, cfg, stats);
  }

  /// Sends a packet and returns its delivery cycle.
  Cycle SendAndMeasure(CoreId src, CoreId dst, std::uint32_t bytes,
                       VNet vnet = VNet::kRequest) {
    Cycle delivered = kCycleNever;
    Packet p;
    p.src = src;
    p.dst = dst;
    p.vnet = vnet;
    p.traffic = TrafficClass::kRequest;
    p.bytes = bytes;
    p.deliver = [&delivered, this]() { delivered = engine.Now(); };
    mesh->Send(std::move(p));
    engine.RunUntilIdle();
    return delivered;
  }

  /// Unloaded end-to-end latency per the timing model.
  Cycle ExpectedLatency(CoreId src, CoreId dst, std::uint32_t bytes) const {
    if (src == dst) return cfg.local_latency;  // never enters the mesh
    const auto h = mesh->Hops(src, dst);
    const auto flits = mesh->FlitsOf(bytes);
    return cfg.router_latency +
           h * (flits + cfg.link_latency + cfg.router_latency);
  }
};

TEST(MeshGeometry, RowColMapping) {
  Fixture f(3, 5);
  EXPECT_EQ(f.mesh->RowOf(0), 0u);
  EXPECT_EQ(f.mesh->ColOf(0), 0u);
  EXPECT_EQ(f.mesh->RowOf(7), 1u);
  EXPECT_EQ(f.mesh->ColOf(7), 2u);
  EXPECT_EQ(f.mesh->NodeAt(2, 4), 14u);
}

TEST(MeshGeometry, ManhattanHops) {
  Fixture f(4, 4);
  EXPECT_EQ(f.mesh->Hops(0, 0), 0u);
  EXPECT_EQ(f.mesh->Hops(0, 3), 3u);
  EXPECT_EQ(f.mesh->Hops(0, 15), 6u);
  EXPECT_EQ(f.mesh->Hops(5, 10), 2u);
}

TEST(MeshGeometry, FlitCounts) {
  Fixture f(2, 2, /*link_bytes=*/75);
  EXPECT_EQ(f.mesh->FlitsOf(11), 1u);
  EXPECT_EQ(f.mesh->FlitsOf(75), 1u);
  EXPECT_EQ(f.mesh->FlitsOf(76), 2u);
  EXPECT_EQ(f.mesh->FlitsOf(150), 2u);
  EXPECT_EQ(f.mesh->FlitsOf(0), 1u);
}

TEST(MeshTiming, LocalDelivery) {
  Fixture f;
  EXPECT_EQ(f.SendAndMeasure(5, 5, 16), f.cfg.local_latency);
  EXPECT_EQ(f.stats.CounterValue("noc.local_msgs"), 1u);
  EXPECT_EQ(f.stats.SumCountersWithPrefix("noc.msgs."), 0u);
}

TEST(MeshTiming, SingleHopUnloadedLatency) {
  Fixture f;
  EXPECT_EQ(f.SendAndMeasure(0, 1, 16), f.ExpectedLatency(0, 1, 16));
}

TEST(MeshTiming, MultiHopUnloadedLatency) {
  Fixture f;
  EXPECT_EQ(f.SendAndMeasure(0, 15, 16), f.ExpectedLatency(0, 15, 16));
}

TEST(MeshTiming, MultiFlitSerialization) {
  Fixture f(2, 2, /*link_bytes=*/16);
  // 64-byte payload = 4 flits: each hop costs 4 serialization cycles.
  EXPECT_EQ(f.SendAndMeasure(0, 3, 64), f.ExpectedLatency(0, 3, 64));
  EXPECT_GT(f.ExpectedLatency(0, 3, 64), f.ExpectedLatency(0, 3, 8));
}

// Exhaustive sweep: every (src, dst) pair in a 4x4 mesh observes exactly
// the analytic unloaded latency (routing and pipeline are correct).
class AllPairsLatency : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(AllPairsLatency, MatchesModel) {
  const auto [src, dst] = GetParam();
  Fixture f;
  EXPECT_EQ(f.SendAndMeasure(static_cast<CoreId>(src), static_cast<CoreId>(dst), 16),
            f.ExpectedLatency(static_cast<CoreId>(src), static_cast<CoreId>(dst), 16));
}

INSTANTIATE_TEST_SUITE_P(Mesh4x4, AllPairsLatency,
                         ::testing::Combine(::testing::Range(0, 16),
                                            ::testing::Range(0, 16)));

TEST(MeshContention, SharedLinkSerializes) {
  // Two single-flit packets injected the same cycle traverse 0->1; the
  // second must arrive at least one serialization slot later.
  Fixture f(1, 4);
  std::vector<Cycle> arrivals;
  for (int i = 0; i < 2; ++i) {
    Packet p;
    p.src = 0;
    p.dst = 3;
    p.vnet = VNet::kRequest;
    p.traffic = TrafficClass::kRequest;
    p.bytes = 16;
    p.deliver = [&]() { arrivals.push_back(f.engine.Now()); };
    f.mesh->Send(std::move(p));
  }
  f.engine.RunUntilIdle();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[1] - arrivals[0], 1u) << "pipelined packets should be 1 cycle apart";
}

TEST(MeshContention, HotSpotQueueingGrows) {
  // Many cores converge on node 0 with more demand than the incoming
  // links can carry: the tail arrival suffers real queueing delay well
  // above the unloaded latency of the farthest source.
  Fixture f(4, 4);
  std::vector<Cycle> arrivals;
  constexpr int kPerSource = 4;
  for (int k = 0; k < kPerSource; ++k) {
    for (CoreId src = 1; src < 16; ++src) {
      Packet p;
      p.src = src;
      p.dst = 0;
      p.vnet = VNet::kRequest;
      p.traffic = TrafficClass::kRequest;
      p.bytes = 75;
      p.deliver = [&]() { arrivals.push_back(f.engine.Now()); };
      f.mesh->Send(std::move(p));
    }
  }
  f.engine.RunUntilIdle();
  ASSERT_EQ(arrivals.size(), 15u * kPerSource);
  const Cycle unloaded_max = f.ExpectedLatency(15, 0, 75);
  // 12 sources (48 packets) funnel through the single link 4->0 at one
  // flit per cycle, so the tail must be far beyond the unloaded path.
  EXPECT_GT(arrivals.back(), unloaded_max + 20)
      << "hot-spot convergence must show queueing delay";
}

TEST(MeshOrdering, SameVnetSameFlowIsFifo) {
  Fixture f(2, 4);
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    Packet p;
    p.src = 0;
    p.dst = 7;
    p.vnet = VNet::kResponse;
    p.traffic = TrafficClass::kReply;
    p.bytes = 75;
    p.deliver = [&order, i]() { order.push_back(i); };
    f.mesh->Send(std::move(p));
  }
  f.engine.RunUntilIdle();
  ASSERT_EQ(order.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(MeshStats, TrafficClassAccounting) {
  Fixture f;
  f.SendAndMeasure(0, 1, 20, VNet::kRequest);
  {
    Packet p;
    p.src = 1;
    p.dst = 2;
    p.vnet = VNet::kResponse;
    p.traffic = TrafficClass::kReply;
    p.bytes = 75;
    p.deliver = []() {};
    f.mesh->Send(std::move(p));
    Packet q;
    q.src = 2;
    q.dst = 3;
    q.vnet = VNet::kForward;
    q.traffic = TrafficClass::kCoherence;
    q.bytes = 11;
    q.deliver = []() {};
    f.mesh->Send(std::move(q));
  }
  f.engine.RunUntilIdle();
  EXPECT_EQ(f.stats.CounterValue("noc.msgs.request"), 1u);
  EXPECT_EQ(f.stats.CounterValue("noc.msgs.reply"), 1u);
  EXPECT_EQ(f.stats.CounterValue("noc.msgs.coherence"), 1u);
  EXPECT_EQ(f.stats.CounterValue("noc.bytes.request"), 20u);
  EXPECT_EQ(f.stats.CounterValue("noc.bytes.reply"), 75u);
}

TEST(MeshStats, LatencyHistogramPopulated) {
  Fixture f;
  f.SendAndMeasure(0, 15, 16);
  const Histogram* h = f.stats.FindHistogram("noc.msg_latency");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 1u);
  EXPECT_EQ(h->min(), f.ExpectedLatency(0, 15, 16));
}

TEST(MeshHeatmap, SingleRouteChargesEachCrossedLink) {
  Fixture f;  // 4x4
  // 0 -> 3: three eastward hops; 100 bytes = 2 flits per link crossing.
  f.SendAndMeasure(0, 3, 100);
  const std::uint64_t flits = f.mesh->FlitsOf(100);
  EXPECT_EQ(flits, 2u);
  EXPECT_EQ(f.mesh->LinkFlits(0, 0), flits);  // 0E
  EXPECT_EQ(f.mesh->LinkFlits(1, 0), flits);  // 1E
  EXPECT_EQ(f.mesh->LinkFlits(2, 0), flits);  // 2E
  EXPECT_EQ(f.mesh->LinkFlits(3, 0), 0u);     // dst ejects, no further hop
  // Router pipeline: traversed at source, intermediates, and destination.
  for (CoreId n = 0; n <= 3; ++n) EXPECT_EQ(f.mesh->RouterFlits(n), flits);
  EXPECT_EQ(f.mesh->RouterFlits(4), 0u);
}

TEST(MeshHeatmap, LinkFlitsSumToFlitsSent) {
  Fixture f(4, 4);
  // A mixed batch: multi-hop X+Y routes, a reverse route, a multi-flit
  // payload, and a local delivery (which must not touch the mesh).
  f.SendAndMeasure(0, 15, 16);
  f.SendAndMeasure(15, 0, 200);
  f.SendAndMeasure(5, 6, 75);
  f.SendAndMeasure(9, 9, 64);  // local
  std::uint64_t link_sum = 0;
  for (CoreId n = 0; n < 16; ++n) {
    for (int d = 0; d < Mesh::kNumLinkDirs; ++d) link_sum += f.mesh->LinkFlits(n, d);
  }
  EXPECT_GT(link_sum, 0u);
  // Every flit crosses exactly Hops(src, dst) links (the mesh.h
  // invariant the heatmap block inherits).
  EXPECT_EQ(link_sum, f.stats.CounterValue("noc.flits_sent"));
}


// A chain of packets in which every delivery sends the next link and,
// every 97th, a burst of 100 one-shot packets on all three virtual
// networks: the bursts outgrow the slab's reserve, so the slab
// reallocates while a delivery is running. Each delivery reads its own
// capture only after its sends, so a delivery run in place inside the
// slab would read freed memory (ASan) or a wrong index. Some links are
// tile-local, and the bursts contend with the chain for links.
struct Chain {
  static constexpr int kLinks = 10'000;
  static constexpr int kBurstEvery = 97;
  static constexpr int kBurst = 100;

  Fixture& f;
  /// (link, delivery cycle) in delivery order.
  std::vector<std::pair<int, Cycle>> links;
  int burst_sent = 0;
  int burst_delivered = 0;

  explicit Chain(Fixture& fixture) : f(fixture) {}

  void SendLink(int k) {
    const auto n = f.cfg.num_nodes();
    Packet p;
    p.src = static_cast<CoreId>(k) % n;
    p.dst = k % 5 == 0 ? p.src : static_cast<CoreId>(k * 7 + 3) % n;
    p.vnet = static_cast<VNet>(k % kNumVNets);
    p.traffic = TrafficClass::kCoherence;
    p.bytes = 11 + static_cast<std::uint32_t>(k % 4) * 40;
    p.deliver = [this, k] {
      if (k + 1 < kLinks) SendLink(k + 1);
      if (k % kBurstEvery == 0) {
        for (int b = 0; b < kBurst; ++b) SendBurst(k + b);
      }
      links.emplace_back(k, f.engine.Now());
    };
    f.mesh->Send(std::move(p));
  }

  void SendBurst(int seed) {
    const auto n = f.cfg.num_nodes();
    Packet p;
    p.src = static_cast<CoreId>(seed * 5) % n;
    p.dst = static_cast<CoreId>(seed * 11 + 1) % n;
    p.vnet = static_cast<VNet>(seed % kNumVNets);
    p.traffic = TrafficClass::kReply;
    p.bytes = 75;
    p.deliver = [this] { ++burst_delivered; };
    f.mesh->Send(std::move(p));
    ++burst_sent;
  }

  /// Runs the whole chain and checks that every packet arrived once and
  /// the chain in order.
  void Run() {
    SendLink(0);
    f.engine.RunUntilIdle();
    ASSERT_EQ(links.size(), static_cast<std::size_t>(kLinks));
    for (int k = 0; k < kLinks; ++k) {
      ASSERT_EQ(links[static_cast<std::size_t>(k)].first, k) << "chain out of order";
    }
    EXPECT_EQ(burst_delivered, burst_sent);
    EXPECT_EQ(burst_sent, (kLinks + kBurstEvery - 1) / kBurstEvery * kBurst);
  }
};

TEST(MeshReentrancy, ChainGrowsSlabMidDelivery) {
  Fixture f;  // 4x4: the slab reserves 64 slots
  Chain chain(f);
  chain.Run();
  EXPECT_GT(f.mesh->SlabSlots(), std::size_t{Chain::kBurst})
      << "the bursts must outgrow the reserve while a delivery runs";
  EXPECT_EQ(f.stats.CounterValue("noc.local_msgs") +
                f.stats.SumCountersWithPrefix("noc.msgs."),
            static_cast<std::uint64_t>(Chain::kLinks + chain.burst_sent));
}

// PumpLink and RouteAt read the parked packet for trace args: tracing
// must see every packet and link crossing, and change no timing.
TEST(MeshReentrancy, ChainUnderTracing) {
  Fixture plain_f;
  Chain plain(plain_f);
  plain.Run();

  Fixture f;
  Chain traced(f);
  trace::TraceSink sink;
  trace::SetSink(&sink);
  traced.Run();
  trace::SetSink(nullptr);
  EXPECT_EQ(traced.links, plain.links) << "tracing changed delivery timing";
  // An async begin/end pair per mesh packet plus one span per link
  // crossing; tile-local packets are not traced.
  EXPECT_EQ(sink.num_events(), 2 * f.stats.SumCountersWithPrefix("noc.msgs.") +
                                   f.stats.CounterValue("noc.total_hops"));
}

// A penalty delays a packet at injection and holds its source's later
// packets behind it; the chain still arrives whole and in order.
TEST(MeshReentrancy, ChainUnderFaultPenalty) {
  Fixture plain_f;
  Chain plain(plain_f);
  plain.Run();

  Fixture f;
  std::uint64_t penalized = 0;
  f.mesh->SetFaultHook([&penalized](const Packet& p) -> Cycle {
    if (p.bytes % 3 != 0) return 0;
    ++penalized;
    return 7;
  });
  Chain chain(f);
  chain.Run();
  EXPECT_GT(penalized, 0u);
  ASSERT_FALSE(chain.links.empty());
  EXPECT_GT(chain.links.back().second, plain.links.back().second);
}

}  // namespace
}  // namespace glb::noc
