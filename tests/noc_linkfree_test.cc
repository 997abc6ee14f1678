// The mesh schedules a link-free event only when something could meet
// the link busy (noc/mesh.h). This test runs seeded random traffic
// through noc::Mesh and through a copy, local to this file, of the
// mesh that schedules that event after every transmission, and checks
// that every packet is delivered at the same cycle and in the same
// global order. The traffic mixes virtual networks, multi-flit sizes,
// tile-local packets and replies sent from deliveries, over router
// latencies 1-3, with a fault hook that delays some packets.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <random>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "noc/mesh.h"
#include "sim/engine.h"

namespace glb::noc {
namespace {

/// The mesh timing model with a link-free event after every
/// transmission (no stats, no tracing).
class AlwaysScheduleMesh {
 public:
  AlwaysScheduleMesh(sim::Engine& engine, const MeshConfig& cfg)
      : engine_(engine),
        cfg_(cfg),
        links_(cfg.num_nodes()),
        inject_floor_(cfg.num_nodes(), 0),
        local_floor_(cfg.num_nodes(), 0) {}

  void SetFaultHook(Mesh::FaultHook hook) { fault_ = std::move(hook); }

  void Send(Packet pkt) {
    const Cycle penalty = fault_ != nullptr ? fault_(pkt) : 0;
    const CoreId src = pkt.src;
    auto* f = new Packet(std::move(pkt));
    if (src == f->dst) {
      engine_.ScheduleAt(Book(local_floor_[src], engine_.Now() + cfg_.local_latency + penalty),
                         [f] { Deliver(f); });
      return;
    }
    engine_.ScheduleAt(Book(inject_floor_[src], engine_.Now() + cfg_.router_latency + penalty),
                       [this, src, f] { RouteAt(src, f); });
  }

 private:
  struct Link {
    std::array<std::deque<Packet*>, kNumVNets> queues;
    bool transmitting = false;
    int rr_next = 0;
  };

  static Cycle Book(Cycle& floor, Cycle earliest) {
    floor = std::max(floor, earliest);
    return floor;
  }

  static void Deliver(Packet* f) {
    std::unique_ptr<Packet> owned(f);
    sim::Task deliver = std::move(owned->deliver);
    owned.reset();
    deliver();
  }

  int NextDir(CoreId node, CoreId dst) const {
    const std::uint32_t col = node % cfg_.cols, dcol = dst % cfg_.cols;
    if (col < dcol) return 0;
    if (col > dcol) return 1;
    return node / cfg_.cols > dst / cfg_.cols ? 2 : 3;
  }

  CoreId Neighbour(CoreId node, int d) const {
    switch (d) {
      case 0: return node + 1;
      case 1: return node - 1;
      case 2: return node - cfg_.cols;
      default: return node + cfg_.cols;
    }
  }

  void RouteAt(CoreId node, Packet* f) {
    if (node == f->dst) {
      Deliver(f);
      return;
    }
    const int d = NextDir(node, f->dst);
    links_[node][static_cast<std::size_t>(d)].queues[static_cast<std::size_t>(f->vnet)]
        .push_back(f);
    PumpLink(node, d);
  }

  void PumpLink(CoreId node, int d) {
    Link& link = links_[node][static_cast<std::size_t>(d)];
    if (link.transmitting) return;
    int chosen = -1;
    for (int i = 0; i < kNumVNets; ++i) {
      const int q = (link.rr_next + i) % kNumVNets;
      if (!link.queues[static_cast<std::size_t>(q)].empty()) {
        chosen = q;
        break;
      }
    }
    if (chosen < 0) return;
    link.rr_next = (chosen + 1) % kNumVNets;
    auto& queue = link.queues[static_cast<std::size_t>(chosen)];
    Packet* f = queue.front();
    queue.pop_front();
    link.transmitting = true;
    const Cycle flits =
        f->bytes == 0 ? 1 : (f->bytes + cfg_.link_bytes - 1) / cfg_.link_bytes;
    const CoreId next = Neighbour(node, d);
    engine_.ScheduleIn(flits, [this, node, d] {
      links_[node][static_cast<std::size_t>(d)].transmitting = false;
      PumpLink(node, d);
    });
    engine_.ScheduleIn(flits + cfg_.link_latency + cfg_.router_latency,
                       [this, next, f] { RouteAt(next, f); });
  }

  sim::Engine& engine_;
  MeshConfig cfg_;
  std::vector<std::array<Link, 4>> links_;
  std::vector<Cycle> inject_floor_;
  std::vector<Cycle> local_floor_;
  Mesh::FaultHook fault_;
};

struct Delivery {
  int id;
  Cycle at;
  bool operator==(const Delivery&) const = default;
};

/// Seeded random traffic over `MeshT`; returns every delivery in order.
template <typename MeshT>
std::vector<Delivery> RunTraffic(std::uint64_t seed, const MeshConfig& cfg,
                                 std::uint64_t* events) {
  sim::Engine engine;
  StatSet stats;
  std::unique_ptr<MeshT> mesh;
  if constexpr (std::is_same_v<MeshT, Mesh>) {
    mesh = std::make_unique<Mesh>(engine, cfg, stats);
  } else {
    mesh = std::make_unique<MeshT>(engine, cfg);
  }
  std::mt19937_64 rng(seed);
  std::uint64_t hook_calls = 0;
  mesh->SetFaultHook([&hook_calls, seed](const Packet& p) -> Cycle {
    const std::uint64_t h = (++hook_calls * 0x9e3779b97f4a7c15ull) ^ (seed << 17) ^ p.bytes;
    return (h >> 7) % 5 == 0 ? 1 + (h >> 13) % 6 : 0;
  });
  std::vector<Delivery> log;
  int next_id = 0;
  const std::array<std::uint32_t, 5> kSizes = {0, 11, 75, 150, 300};
  const std::uint32_t n = cfg.num_nodes();

  std::function<void(CoreId, CoreId, int)> send = [&](CoreId src, CoreId dst, int replies) {
    Packet p;
    p.src = src;
    p.dst = dst;
    p.vnet = static_cast<VNet>(rng() % kNumVNets);
    p.bytes = kSizes[rng() % kSizes.size()];
    const int id = next_id++;
    p.deliver = [&log, &engine, &send, id, src, dst, replies] {
      log.push_back({id, engine.Now()});
      // A delivery may send, as every coherence reply does.
      if (replies > 0) send(dst, src, replies - 1);
    };
    mesh->Send(std::move(p));
  };

  for (int burst = 0; burst < 40; ++burst) {
    const Cycle at = rng() % 600;
    const int count = 1 + static_cast<int>(rng() % 12);
    std::vector<std::pair<CoreId, CoreId>> pairs;
    for (int i = 0; i < count; ++i) {
      const CoreId src = static_cast<CoreId>(rng() % n);
      // One packet in eight stays on its tile.
      const CoreId dst = rng() % 8 == 0 ? src : static_cast<CoreId>(rng() % n);
      pairs.emplace_back(src, dst);
    }
    const int replies = static_cast<int>(rng() % 3);
    engine.ScheduleAt(at, [&send, pairs, replies] {
      for (const auto& [src, dst] : pairs) send(src, dst, replies);
    });
  }
  EXPECT_TRUE(engine.RunUntilIdle());
  *events = engine.events_processed();
  return log;
}

TEST(NocLinkFree, ElidedLinkFreeEventsKeepEveryDeliveryCycleAndOrder) {
  std::uint64_t saved = 0;
  for (Cycle router_latency = 1; router_latency <= 3; ++router_latency) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      SCOPED_TRACE(testing::Message() << "router_latency " << router_latency << " seed "
                                      << seed);
      MeshConfig cfg;
      cfg.rows = 4;
      cfg.cols = 5;
      cfg.router_latency = router_latency;
      cfg.link_latency = 1 + seed % 2;
      std::uint64_t mesh_events = 0, ref_events = 0;
      const std::vector<Delivery> got = RunTraffic<Mesh>(seed, cfg, &mesh_events);
      const std::vector<Delivery> want = RunTraffic<AlwaysScheduleMesh>(seed, cfg, &ref_events);
      ASSERT_GT(want.size(), 100u);
      EXPECT_EQ(got, want);
      EXPECT_LE(mesh_events, ref_events);
      saved += ref_events - mesh_events;
    }
  }
  EXPECT_GT(saved, 0u) << "no link-free event was ever elided";
}

}  // namespace
}  // namespace glb::noc
