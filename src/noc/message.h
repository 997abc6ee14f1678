// NoC packet vocabulary.
//
// The mesh is payload-agnostic: a Packet carries routing metadata plus a
// `deliver` task that the destination's network interface runs when the
// last flit arrives. Protocol content therefore never leaks into the
// network layer; the network only needs sizes and classes for timing and
// accounting. `deliver` is a move-only sim::Task, so a capture that fits
// its 48-byte buffer (a `this` plus a few ids or a pool handle, as the
// coherence fabric sends) costs no allocation.
#pragma once

#include <cstdint>

#include "common/types.h"
#include "sim/task.h"

namespace glb::noc {

/// Virtual networks. Three classes (request / forward / response) is the
/// canonical minimum for deadlock-free directory protocols; each link
/// keeps an independent FIFO per virtual network.
enum class VNet : std::uint8_t { kRequest = 0, kForward = 1, kResponse = 2 };
inline constexpr int kNumVNets = 3;

/// Traffic accounting classes matching the paper's Figure 7 breakdown:
///   Request   — load/store requests travelling to the home L2 bank,
///   Reply     — messages carrying requested data back,
///   Coherence — protocol-generated traffic (forwards, invalidations,
///               acks, writebacks).
enum class TrafficClass : std::uint8_t { kRequest = 0, kReply = 1, kCoherence = 2 };
inline constexpr int kNumTrafficClasses = 3;

inline const char* ToString(TrafficClass c) {
  switch (c) {
    case TrafficClass::kRequest: return "request";
    case TrafficClass::kReply: return "reply";
    case TrafficClass::kCoherence: return "coherence";
  }
  return "?";
}

struct Packet {
  CoreId src = kInvalidCore;
  CoreId dst = kInvalidCore;
  VNet vnet = VNet::kRequest;
  TrafficClass traffic = TrafficClass::kRequest;
  /// Total size on the wire including header.
  std::uint32_t bytes = 0;
  /// Runs at the destination when the packet fully arrives.
  sim::Task deliver;
};

}  // namespace glb::noc
