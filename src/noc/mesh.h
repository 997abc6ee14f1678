// 2D-mesh network-on-chip timing model.
//
// Topology: rows x cols routers, one per tile, with bidirectional links
// between mesh neighbours. Routing is deterministic dimension-order
// (X first, then Y), which together with per-link FIFO queues preserves
// point-to-point ordering within a virtual network — a property the
// coherence protocol relies on.
//
// Timing per hop: `router_latency` cycles of pipeline traversal, then
// the packet queues for the output link; a link moves one flit per cycle
// (flits = ceil(bytes / link_bytes)) and adds `link_latency` cycles of
// propagation. Queueing delay emerges from link occupancy, which is how
// software-barrier hot-spots show up as latency in the paper.
//
// A link schedules its link-free event only when something could meet
// it busy: a packet queued behind, a packet already on its way to that
// router and bound for that link (`inbound_`), or a transmission at
// least `router_latency` cycles long. Otherwise every later arrival is
// scheduled at least `router_latency` cycles ahead and so lands after
// the cycle the link frees: the event would find nothing to do, and
// skipping it leaves the order of every other event unchanged
// (docs/PERFORMANCE.md §11).
// Buffers are unbounded, so the network itself cannot deadlock; virtual
// networks exist for protocol-class separation and fair arbitration
// (round-robin across VNets per link).
//
// Packets in flight live in one recycled slab addressed by 32-bit
// handles, and every link FIFO is a list of handles threaded through
// the slab, so once the slab has grown to the peak in-flight count a
// message costs no allocation. A delivery may send (every coherence
// reply does) and so grow the slab: no reference into it is held
// across `deliver` or a Park.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "noc/message.h"
#include "sim/engine.h"

namespace glb::noc {

struct MeshConfig {
  std::uint32_t rows = 4;
  std::uint32_t cols = 8;
  /// Cycles to traverse one router pipeline.
  Cycle router_latency = 2;
  /// Wire propagation cycles per link.
  Cycle link_latency = 1;
  /// Link width in bytes (Table 1: 75 bytes).
  std::uint32_t link_bytes = 75;
  /// Latency for a message whose source and destination share a tile
  /// (never enters the mesh).
  Cycle local_latency = 1;

  std::uint32_t num_nodes() const { return rows * cols; }
};

class Mesh {
 public:
  Mesh(sim::Engine& engine, const MeshConfig& cfg, StatSet& stats);

  Mesh(const Mesh&) = delete;
  Mesh& operator=(const Mesh&) = delete;

  /// Injects a packet at its source tile. The packet's `deliver`
  /// closure runs at the destination at arrival time.
  void Send(Packet pkt);

  /// Fault hook consulted once per Send (fault injection). The returned
  /// cycle count is added to the packet's injection latency, modeling a
  /// slow link or a CRC-detected corruption that forces a retransmit.
  /// Packets are never silently lost: the coherence protocol has no
  /// end-to-end timeout, so link-level recovery is the contract. Nor
  /// are they reordered: a packet never enters the network (or, sent
  /// to its own tile, is never delivered) before an earlier packet from
  /// the same source, so a penalty delays the packets queued behind it
  /// and every source/destination pair stays FIFO, as the directory
  /// protocol needs. Without penalties that floor never binds.
  /// nullptr clears.
  using FaultHook = std::function<Cycle(const Packet&)>;
  void SetFaultHook(FaultHook hook) { fault_ = std::move(hook); }

  const MeshConfig& config() const { return cfg_; }

  std::uint32_t RowOf(CoreId n) const { return n / cfg_.cols; }
  std::uint32_t ColOf(CoreId n) const { return n % cfg_.cols; }
  CoreId NodeAt(std::uint32_t row, std::uint32_t col) const {
    return row * cfg_.cols + col;
  }
  /// Manhattan hop count between two nodes.
  std::uint32_t Hops(CoreId a, CoreId b) const;

  /// Number of flits a packet of `bytes` occupies on a link.
  std::uint32_t FlitsOf(std::uint32_t bytes) const {
    return bytes == 0 ? 1 : (bytes + cfg_.link_bytes - 1) / cfg_.link_bytes;
  }

  // --- spatial utilization (heatmaps, docs/OBSERVABILITY.md) ----------
  // Cumulative per-link and per-router flit counts, kept as plain
  // members rather than StatSet counters so default glb.run manifests
  // stay byte-identical (a heatmap block is emitted only on request).
  // Invariant: the link counts sum to noc.flits_sent — every flit
  // crosses exactly Hops(src, dst) links (asserted by noc_test.cc).

  /// Directed-link output directions, indexing LinkFlits' second axis.
  static constexpr int kNumLinkDirs = 4;  // E, W, N, S
  static constexpr const char* kLinkDirNames[kNumLinkDirs] = {"E", "W", "N", "S"};

  /// Flits transmitted on node's outgoing link in direction `dir`.
  std::uint64_t LinkFlits(CoreId node, int dir) const {
    return link_flits_[node][static_cast<std::size_t>(dir)];
  }
  /// Flits that traversed node's router pipeline (through-traffic plus
  /// ejection; locally delivered messages never enter the mesh).
  std::uint64_t RouterFlits(CoreId node) const { return router_flits_[node]; }

  /// Slots the in-flight slab holds: the peak number of packets in
  /// flight at once so far (tests watch it grow).
  std::size_t SlabSlots() const { return slab_.size(); }

 private:
  // Output directions from a router.
  enum Dir : std::uint8_t { kEast = 0, kWest = 1, kNorth = 2, kSouth = 3, kNumDirs = 4 };

  /// Slab slots reserved per tile at construction.
  static constexpr std::uint32_t kSlabSlotsPerNode = 4;
  /// Index of a packet's slot in the slab.
  using Handle = std::uint32_t;
  static constexpr Handle kNoPacket = std::numeric_limits<Handle>::max();

  struct InFlight {
    Packet pkt;
    Cycle injected_at = 0;
    /// Trace correlation id for the packet-lifetime async span
    /// (0 = tracing was off at injection).
    std::uint64_t trace_id = 0;
    /// When the packet entered its current output-link queue (tracing
    /// only; exposes queueing vs. serialization delay per hop).
    Cycle enqueued_at = 0;
    /// The packet behind this one in its link FIFO, or the next free
    /// slot while this one is free.
    Handle next = kNoPacket;
  };

  /// Intrusive FIFO of slab handles.
  struct Fifo {
    Handle head = kNoPacket;
    Handle tail = kNoPacket;
    bool empty() const { return head == kNoPacket; }
  };

  // One directed link: per-VNet FIFO + round-robin arbitration; the link
  // transmits one flit per cycle while any queue is non-empty.
  struct OutLink {
    std::array<Fifo, kNumVNets> queues;
    /// A link-free event is scheduled (see the header comment).
    bool transmitting = false;
    std::uint8_t rr_next = 0;
    /// Packets whose RouteAt at this link's router is scheduled and
    /// whose next hop is this link.
    std::uint32_t inbound = 0;
  };

  struct Router {
    std::array<OutLink, kNumDirs> out;
  };

  // Computes the next direction for a packet at `node` heading to `dst`
  // with X-then-Y dimension-order routing.
  Dir NextDir(CoreId node, CoreId dst) const;
  CoreId Neighbour(CoreId node, Dir d) const;

  /// Moves `pkt` into a free slab slot, injected now.
  Handle Park(Packet pkt);
  /// Schedules the packet's RouteAt at `node`, counting it inbound on
  /// its next link there.
  void ScheduleRoute(Cycle at, CoreId node, Handle h);
  /// Frees the packet's slot and runs its `deliver`.
  void Deliver(Handle h);
  void Push(Fifo& q, Handle h);
  Handle Pop(Fifo& q);

  // Packet has finished the router pipeline at `node`; either ejects or
  // enqueues on the proper output link.
  void RouteAt(CoreId node, Handle h);
  // Starts transmitting the next queued packet on (node, dir) if idle.
  void PumpLink(CoreId node, Dir d);
  /// `earliest`, raised to the last cycle booked in `floor`, which it
  /// then becomes: the per-source FIFO rule of SetFaultHook.
  static Cycle Book(Cycle& floor, Cycle earliest) {
    floor = std::max(floor, earliest);
    return floor;
  }

  sim::Engine& engine_;
  MeshConfig cfg_;
  std::vector<Router> routers_;
  /// Every packet in flight, by handle; free slots chain from `free_`.
  std::vector<InFlight> slab_;
  Handle free_ = kNoPacket;
  FaultHook fault_;
  /// Per source: the cycle its latest packet enters the network, and
  /// the cycle its latest tile-local packet is delivered.
  std::vector<Cycle> inject_floor_;
  std::vector<Cycle> local_floor_;
  std::vector<std::array<std::uint64_t, kNumDirs>> link_flits_;
  std::vector<std::uint64_t> router_flits_;

  // Stats (owned by the caller's StatSet; pointers are stable).
  std::array<Counter*, kNumTrafficClasses> msgs_by_class_{};
  std::array<Counter*, kNumTrafficClasses> bytes_by_class_{};
  Counter* local_msgs_ = nullptr;
  Counter* total_hops_ = nullptr;
  Counter* flits_sent_ = nullptr;
  Histogram* latency_ = nullptr;
};

}  // namespace glb::noc
