// Directory-based MESI protocol vocabulary.
//
// Roles: every tile hosts an L1 controller (backing its core) and one
// bank of the shared, address-interleaved L2 with an embedded directory.
// The home bank of a line serializes all transactions on that line
// (blocking directory): while a transaction is open, later requests for
// the same line queue at home. Invalidation acknowledgements are
// collected at home, so a requester only ever waits for a single Data
// message. Cores are in-order with one outstanding data miss, which
// bounds the transient-state space:
//
//   L1 MSHR states:   IS_D, IM_D, SM_D  (fill pending)
//   L1 WB buffer:     MI_A, EI_A, II_A  (eviction awaiting PutAck)
//
// The races that remain, and their resolutions (following the classic
// treatment in Sorin/Hill/Wood, "A Primer on Memory Consistency and
// Cache Coherence"):
//   * Fwd/Inv overtaking a Data fill (different virtual networks):
//     a forward that hits an IM_D/SM_D MSHR is buffered and replayed
//     right after the fill; an Inv that hits IS_D is acked and the
//     fill is used once and dropped; an Inv that hits IM_D/SM_D is
//     acked (it belongs to an older transaction) and SM_D falls back
//     to IM_D.
//   * Eviction racing a forward: the victim lives in the write-back
//     buffer until PutAck; forwards are served from the buffer and the
//     eventually-processed PutM from a by-then non-owner is acked
//     without effect.
//   * Invalidations to silent evictors: any L1 acks an Inv it has no
//     copy for.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "noc/message.h"

namespace glb::coherence {

enum class MsgType : std::uint8_t {
  // L1 -> home, request virtual network.
  kGetS,     // read miss
  kGetX,     // write miss or S->M upgrade
  kPutM,     // eviction of a dirty line (carries data)
  kPutE,     // eviction of a clean-exclusive line
  // home -> L1, forward virtual network.
  kFwdGetS,  // owner must send data home and downgrade to S
  kFwdGetX,  // owner must send data home and invalidate
  kInv,      // sharer must invalidate and ack to home
  // response virtual network.
  kData,     // home -> requester: line fill with a grant level
  kDataWB,   // owner -> home: data in response to a forward/recall
  kInvAck,   // sharer -> home
  kPutAck,   // home -> evictor: write-back retired
};

/// Number of MsgType values (dense, starting at 0) — sizes per-type
/// lookup tables such as the fabric's cached send counters.
inline constexpr std::size_t kNumMsgTypes =
    static_cast<std::size_t>(MsgType::kPutAck) + 1;

inline const char* ToString(MsgType t) {
  switch (t) {
    case MsgType::kGetS: return "GetS";
    case MsgType::kGetX: return "GetX";
    case MsgType::kPutM: return "PutM";
    case MsgType::kPutE: return "PutE";
    case MsgType::kFwdGetS: return "FwdGetS";
    case MsgType::kFwdGetX: return "FwdGetX";
    case MsgType::kInv: return "Inv";
    case MsgType::kData: return "Data";
    case MsgType::kDataWB: return "DataWB";
    case MsgType::kInvAck: return "InvAck";
    case MsgType::kPutAck: return "PutAck";
  }
  return "?";
}

/// Access permission granted by a Data fill.
enum class Grant : std::uint8_t { kShared, kExclusive, kModified };

/// Read-modify-write operations supported by the L1 (executed atomically
/// while the line is held in M).
enum class AmoOp : std::uint8_t { kFetchAdd, kSwap, kTestAndSet, kCompareAndSwap };

/// Field order packs the header into 16 bytes, so a `[this, msg]`
/// capture fits sim::Task's inline buffer.
struct Message {
  MsgType type = MsgType::kGetS;
  Grant grant = Grant::kShared;
  CoreId from = kInvalidCore;
  Addr line_addr = 0;
  /// Full line payload for kData / kDataWB / kPutM; senders take it from
  /// Fabric::LineBuffer, and the fabric recycles it after delivery.
  std::vector<Word> data;
};
static_assert(sizeof(Message) + sizeof(void*) <= sim::Task::kInlineBytes);

/// Timing and sizing knobs (defaults follow Table 1 of the paper).
struct CoherenceConfig {
  Cycle l1_latency = 1;       // L1 hit / tag access
  Cycle l2_latency = 8;       // home bank access, "6+2 cycles"
  Cycle dram_latency = 400;   // memory access time
  std::uint32_t control_bytes = 11;  // header-only message size
  std::uint32_t line_bytes = 64;     // cache line (Table 1)

  std::uint32_t data_bytes() const { return control_bytes + line_bytes; }
};

/// NoC accounting class for each protocol message (paper Figure 7):
/// requests to home are "Request", fills are "Reply", everything the
/// protocol generates on its own is "Coherence".
inline noc::TrafficClass TrafficOf(MsgType t) {
  switch (t) {
    case MsgType::kGetS:
    case MsgType::kGetX:
      return noc::TrafficClass::kRequest;
    case MsgType::kData:
      return noc::TrafficClass::kReply;
    default:
      return noc::TrafficClass::kCoherence;
  }
}

/// Virtual network assignment; three classes break request->forward->
/// response cycles.
inline noc::VNet VNetOf(MsgType t) {
  switch (t) {
    case MsgType::kGetS:
    case MsgType::kGetX:
    case MsgType::kPutM:
    case MsgType::kPutE:
      return noc::VNet::kRequest;
    case MsgType::kFwdGetS:
    case MsgType::kFwdGetX:
    case MsgType::kInv:
      return noc::VNet::kForward;
    default:
      return noc::VNet::kResponse;
  }
}

}  // namespace glb::coherence
