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
  // Room for a few packets per tile up front, so a mesh meets its
  // first burst without growing (reserved memory stays non-resident
  // until a packet lands in it); busier runs grow the slab.
  slab_.reserve(std::size_t{kSlabSlotsPerNode} * cfg.num_nodes());
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
  GLB_CHECK(pkt.deliver) << "packet without a deliver task";
  const Cycle penalty = fault_ != nullptr ? fault_(pkt) : 0;
  sim::Engine& eng = engine_;
  const CoreId src = pkt.src;
  if (src == pkt.dst) {
    local_msgs_->Inc();
    const Handle h = Park(std::move(pkt));
    eng.ScheduleAt(Book(local_floor_[src], eng.Now() + cfg_.local_latency + penalty),
                   [this, h] { Deliver(h); });
    return;
  }
  const auto cls = static_cast<std::size_t>(pkt.traffic);
  const std::uint32_t hops = Hops(src, pkt.dst);
  msgs_by_class_[cls]->Inc();
  bytes_by_class_[cls]->Inc(pkt.bytes);
  flits_sent_->Inc(static_cast<std::uint64_t>(FlitsOf(pkt.bytes)) * hops);
  total_hops_->Inc(hops);
  const Handle h = Park(std::move(pkt));
  if (trace::Active()) {
    InFlight& f = slab_[h];
    f.trace_id = trace::Sink().NextId();
    trace::Sink().AsyncBegin("noc/packets", PacketTraceName(f.pkt), f.trace_id, eng.Now(),
                             trace::Args()
                                 .Add("bytes", f.pkt.bytes)
                                 .Add("hops", hops)
                                 .Add("class", ToString(f.pkt.traffic))
                                 .json());
  }
  ScheduleRoute(Book(inject_floor_[src], eng.Now() + cfg_.router_latency + penalty), src, h);
}

void Mesh::ScheduleRoute(Cycle at, CoreId node, Handle h) {
  const CoreId dst = slab_[h].pkt.dst;
  if (node != dst) ++routers_[node].out[NextDir(node, dst)].inbound;
  engine_.ScheduleAt(at, [this, node, h] { RouteAt(node, h); });
}

Mesh::Handle Mesh::Park(Packet pkt) {
  Handle h = free_;
  if (h == kNoPacket) {
    GLB_CHECK(slab_.size() < kNoPacket) << "more packets in flight than handles";
    h = static_cast<Handle>(slab_.size());
    slab_.emplace_back();
  } else {
    free_ = slab_[h].next;
  }
  InFlight& f = slab_[h];
  f.pkt = std::move(pkt);
  f.injected_at = engine_.Now();
  f.trace_id = 0;
  f.enqueued_at = 0;
  f.next = kNoPacket;
  return h;
}

void Mesh::Deliver(Handle h) {
  // Moved out before the slot is freed and run: the delivery may send,
  // reusing this slot or growing the slab under it.
  sim::Task deliver = std::move(slab_[h].pkt.deliver);
  slab_[h].next = free_;
  free_ = h;
  deliver();
}

void Mesh::Push(Fifo& q, Handle h) {
  slab_[h].next = kNoPacket;
  if (q.empty()) {
    q.head = h;
  } else {
    slab_[q.tail].next = h;
  }
  q.tail = h;
}

Mesh::Handle Mesh::Pop(Fifo& q) {
  const Handle h = q.head;
  q.head = slab_[h].next;
  if (q.head == kNoPacket) q.tail = kNoPacket;
  return h;
}

void Mesh::RouteAt(CoreId node, Handle h) {
  prof::Scope prof_scope(prof::Cat::kNoc);
  sim::Engine& eng = engine_;
  InFlight& f = slab_[h];
  router_flits_[node] += FlitsOf(f.pkt.bytes);
  if (node == f.pkt.dst) {
    latency_->Record(eng.Now() - f.injected_at);
    GLB_TRACE(eng.Now(), "noc",
              "deliver " << f.pkt.src << "->" << f.pkt.dst << " ("
                         << ToString(f.pkt.traffic) << ", " << f.pkt.bytes << "B)");
    if (trace::Active() && f.trace_id != 0) {
      trace::Sink().AsyncEnd("noc/packets", PacketTraceName(f.pkt), f.trace_id, eng.Now());
    }
    Deliver(h);
    return;
  }
  const Dir d = NextDir(node, f.pkt.dst);
  f.enqueued_at = eng.Now();
  OutLink& link = routers_[node].out[d];
  --link.inbound;
  Push(link.queues[static_cast<std::size_t>(f.pkt.vnet)], h);
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

  const Handle h = Pop(link.queues[static_cast<std::size_t>(chosen)]);

  const InFlight& f = slab_[h];
  const Cycle serialization = FlitsOf(f.pkt.bytes);
  const CoreId next = Neighbour(node, d);
  link_flits_[node][d] += serialization;

  if (trace::Active()) {
    // One span per link occupancy: start = head flit on the wire,
    // dur = serialization; `queued` shows arbitration/backpressure wait.
    trace::Sink().Complete(
        "noc/link " + std::to_string(node) + kDirName[d], PacketTraceName(f.pkt),
        eng.Now(), eng.Now() + serialization,
        trace::Args()
            .Add("queued", eng.Now() - f.enqueued_at)
            .Add("bytes", f.pkt.bytes)
            .json());
  }

  // Link becomes free once the tail flit has left this router. Only
  // something that could meet it busy needs that event (header comment).
  bool queued = false;
  for (const Fifo& q : link.queues) queued = queued || !q.empty();
  if (queued || link.inbound > 0 || serialization >= cfg_.router_latency) {
    link.transmitting = true;
    eng.ScheduleIn(serialization, [this, node, d]() {
      routers_[node].out[d].transmitting = false;
      PumpLink(node, d);
    });
  }
  // Packet appears at the neighbour's routing stage after serialization,
  // wire propagation, and that router's pipeline.
  ScheduleRoute(eng.Now() + serialization + cfg_.link_latency + cfg_.router_latency, next, h);
}

}  // namespace glb::noc
