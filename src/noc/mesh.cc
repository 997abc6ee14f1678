#include "noc/mesh.h"

#include <cstdlib>
#include <string>
#include <utility>

#include "common/log.h"
#include "common/prof.h"
#include "trace/trace.h"

namespace glb::noc {

namespace {

/// Name shared by the AsyncBegin/AsyncEnd pair of one packet's
/// in-flight span (the id does the correlation; the name is for the
/// viewer).
std::string PacketTraceName(const Packet& p) {
  return std::string(ToString(p.traffic)) + ' ' + std::to_string(p.src) + "->" +
         std::to_string(p.dst);
}

constexpr const char* kDirName[] = {"E", "W", "N", "S"};

}  // namespace

Mesh::Mesh(sim::Engine& engine, const MeshConfig& cfg, StatSet& stats)
    : engine_(engine),
      cfg_(cfg),
      routers_(cfg.num_nodes()),
      inject_floor_(cfg.num_nodes(), 0),
      local_floor_(cfg.num_nodes(), 0),
      link_flits_(cfg.num_nodes()),
      router_flits_(cfg.num_nodes()) {
  GLB_CHECK(cfg.rows > 0 && cfg.cols > 0) << "empty mesh";
  GLB_CHECK(cfg.link_bytes > 0) << "zero-width links";
  for (int c = 0; c < kNumTrafficClasses; ++c) {
    const std::string name = ToString(static_cast<TrafficClass>(c));
    msgs_by_class_[static_cast<std::size_t>(c)] = stats.GetCounter("noc.msgs." + name);
    bytes_by_class_[static_cast<std::size_t>(c)] = stats.GetCounter("noc.bytes." + name);
  }
  local_msgs_ = stats.GetCounter("noc.local_msgs");
  total_hops_ = stats.GetCounter("noc.total_hops");
  flits_sent_ = stats.GetCounter("noc.flits_sent");
  latency_ = stats.GetHistogram("noc.msg_latency");
}

std::uint32_t Mesh::Hops(CoreId a, CoreId b) const {
  const auto dr = static_cast<std::int64_t>(RowOf(a)) - static_cast<std::int64_t>(RowOf(b));
  const auto dc = static_cast<std::int64_t>(ColOf(a)) - static_cast<std::int64_t>(ColOf(b));
  return static_cast<std::uint32_t>(std::llabs(dr) + std::llabs(dc));
}

Mesh::Dir Mesh::NextDir(CoreId node, CoreId dst) const {
  const std::uint32_t col = ColOf(node), dcol = ColOf(dst);
  if (col < dcol) return kEast;
  if (col > dcol) return kWest;
  const std::uint32_t row = RowOf(node), drow = RowOf(dst);
  if (row < drow) return kSouth;
  GLB_CHECK(row > drow) << "NextDir called at destination";
  return kNorth;
}

CoreId Mesh::Neighbour(CoreId node, Dir d) const {
  switch (d) {
    case kEast: return node + 1;
    case kWest: return node - 1;
    case kSouth: return node + cfg_.cols;
    case kNorth: return node - cfg_.cols;
    default: GLB_UNREACHABLE("bad direction");
  }
}

void Mesh::Send(Packet pkt) {
  prof::Scope prof_scope(prof::Cat::kNoc);
  GLB_CHECK(pkt.src < cfg_.num_nodes() && pkt.dst < cfg_.num_nodes())
      << "packet endpoints out of range: " << pkt.src << "->" << pkt.dst;
  GLB_CHECK(pkt.deliver != nullptr) << "packet without delivery closure";
  const Cycle penalty = fault_ != nullptr ? fault_(pkt) : 0;
  sim::Engine& eng = engine_;
  InFlight flight{std::move(pkt), eng.Now()};
  if (flight.pkt.src == flight.pkt.dst) {
    local_msgs_->Inc();
    DeliverLocal(std::move(flight), penalty);
    return;
  }
  const auto cls = static_cast<std::size_t>(flight.pkt.traffic);
  msgs_by_class_[cls]->Inc();
  bytes_by_class_[cls]->Inc(flight.pkt.bytes);
  flits_sent_->Inc(static_cast<std::uint64_t>(FlitsOf(flight.pkt.bytes)) *
                   Hops(flight.pkt.src, flight.pkt.dst));
  total_hops_->Inc(Hops(flight.pkt.src, flight.pkt.dst));
  if (trace::Active()) {
    flight.trace_id = trace::Sink().NextId();
    trace::Sink().AsyncBegin(
        "noc/packets", PacketTraceName(flight.pkt), flight.trace_id, eng.Now(),
        trace::Args()
            .Add("bytes", flight.pkt.bytes)
            .Add("hops", Hops(flight.pkt.src, flight.pkt.dst))
            .Add("class", ToString(flight.pkt.traffic))
            .json());
  }
  const CoreId src = flight.pkt.src;
  eng.ScheduleAt(Book(inject_floor_[src], eng.Now() + cfg_.router_latency + penalty),
                 [this, src, f = std::move(flight)]() mutable {
                   RouteAt(src, std::move(f));
                 });
}

void Mesh::DeliverLocal(InFlight flight, Cycle penalty) {
  const Cycle at =
      Book(local_floor_[flight.pkt.src], engine_.Now() + cfg_.local_latency + penalty);
  engine_.ScheduleAt(at, [f = std::move(flight)]() mutable { f.pkt.deliver(); });
}

void Mesh::RouteAt(CoreId node, InFlight flight) {
  prof::Scope prof_scope(prof::Cat::kNoc);
  sim::Engine& eng = engine_;
  router_flits_[node] += FlitsOf(flight.pkt.bytes);
  if (node == flight.pkt.dst) {
    latency_->Record(eng.Now() - flight.injected_at);
    GLB_TRACE(eng.Now(), "noc",
              "deliver " << flight.pkt.src << "->" << flight.pkt.dst << " ("
                         << ToString(flight.pkt.traffic) << ", " << flight.pkt.bytes
                         << "B)");
    if (trace::Active() && flight.trace_id != 0) {
      trace::Sink().AsyncEnd("noc/packets", PacketTraceName(flight.pkt),
                             flight.trace_id, eng.Now());
    }
    flight.pkt.deliver();
    return;
  }
  const Dir d = NextDir(node, flight.pkt.dst);
  OutLink& link = routers_[node].out[d];
  flight.enqueued_at = eng.Now();
  link.queues[static_cast<std::size_t>(flight.pkt.vnet)].push_back(std::move(flight));
  PumpLink(node, d);
}

void Mesh::PumpLink(CoreId node, Dir d) {
  prof::Scope prof_scope(prof::Cat::kNoc);
  sim::Engine& eng = engine_;
  OutLink& link = routers_[node].out[d];
  if (link.transmitting) return;

  // Round-robin across virtual-network queues.
  int chosen = -1;
  for (int i = 0; i < kNumVNets; ++i) {
    const auto q = static_cast<std::size_t>((link.rr_next + i) % kNumVNets);
    if (!link.queues[q].empty()) {
      chosen = static_cast<int>(q);
      break;
    }
  }
  if (chosen < 0) return;
  link.rr_next = static_cast<std::uint8_t>((chosen + 1) % kNumVNets);

  InFlight flight = std::move(link.queues[static_cast<std::size_t>(chosen)].front());
  link.queues[static_cast<std::size_t>(chosen)].pop_front();
  link.transmitting = true;

  const Cycle serialization = FlitsOf(flight.pkt.bytes);
  const CoreId next = Neighbour(node, d);
  link_flits_[node][d] += serialization;

  if (trace::Active()) {
    // One span per link occupancy: start = head flit on the wire,
    // dur = serialization; `queued` shows arbitration/backpressure wait.
    trace::Sink().Complete(
        "noc/link " + std::to_string(node) + kDirName[d], PacketTraceName(flight.pkt),
        eng.Now(), eng.Now() + serialization,
        trace::Args()
            .Add("queued", eng.Now() - flight.enqueued_at)
            .Add("bytes", flight.pkt.bytes)
            .json());
  }

  // Link becomes free once the tail flit has left this router.
  eng.ScheduleIn(serialization, [this, node, d]() {
    routers_[node].out[d].transmitting = false;
    PumpLink(node, d);
  });
  // Packet appears at the neighbour's routing stage after serialization,
  // wire propagation, and that router's pipeline.
  eng.ScheduleIn(serialization + cfg_.link_latency + cfg_.router_latency,
                 [this, next, f = std::move(flight)]() mutable {
                   RouteAt(next, std::move(f));
                 });
}

}  // namespace glb::noc
