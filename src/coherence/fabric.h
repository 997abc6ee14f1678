// Coherence fabric: constructs and wires one L1 controller and one home
// L2/directory bank per tile, routes protocol messages over the mesh,
// and exposes the per-core L1 interface that the core model drives.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "coherence/dir_controller.h"
#include "coherence/l1_controller.h"
#include "coherence/protocol.h"
#include "mem/backing_store.h"
#include "mem/cache_array.h"
#include "noc/mesh.h"
#include "sim/engine.h"

namespace glb::coherence {

class Fabric {
 public:
  Fabric(sim::Engine& engine, noc::Mesh& mesh, mem::BackingStore& backing,
         const CoherenceConfig& cfg, const mem::CacheGeometry& l1_geo,
         const mem::CacheGeometry& l2_geo, StatSet& stats);

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  L1Controller& l1(CoreId c) { return *l1s_[c]; }
  DirController& home(CoreId c) { return *dirs_[c]; }
  const L1Controller& l1(CoreId c) const { return *l1s_[c]; }
  const DirController& home(CoreId c) const { return *dirs_[c]; }
  std::uint32_t num_cores() const { return static_cast<std::uint32_t>(l1s_.size()); }

  /// Home tile of a line: low-order line-address interleaving across
  /// all banks, the standard tiled-CMP mapping.
  CoreId HomeOf(Addr line_addr) const {
    return static_cast<CoreId>((line_addr / cfg_.line_bytes) % num_cores());
  }

  /// Ships a protocol message; the destination controller type is
  /// implied by the message type (requests/responses-to-home go to the
  /// directory bank, forwards/fills go to the L1). The message waits in
  /// a recycled pool and its packet carries only the pool handle, so a
  /// send allocates nothing once the pool has grown.
  void Send(CoreId from, CoreId to, Message msg);

  /// An empty payload buffer to fill (CacheArray::CopyWords) for
  /// Message::data: a delivered message's, recycled, when one is spare,
  /// so a line payload costs no allocation in steady state.
  std::vector<Word> LineBuffer() {
    if (spare_lines_.empty()) return {};
    std::vector<Word> buf = std::move(spare_lines_.back());
    spare_lines_.pop_back();
    return buf;
  }
  /// Transaction-table nodes of closed directory transactions, ready
  /// for any bank's next one (DirController::TxnNode).
  std::vector<DirController::TxnNode>& SpareTxns() { return spare_txns_; }

  /// Takes back a payload buffer whose contents are no longer needed.
  void Recycle(std::vector<Word>&& buf) {
    if (buf.capacity() == 0) return;
    buf.clear();
    spare_lines_.push_back(std::move(buf));
  }

  /// Functional drain for post-run inspection: dirty L2 lines first,
  /// then Modified L1 lines (the freshest copy wins). The simulated
  /// machine must be quiescent.
  void DrainToBacking() {
    for (auto& d : dirs_) d->FlushToBacking(backing_);
    for (auto& l : l1s_) l->FlushToBacking(backing_);
  }

  sim::Engine& engine() { return engine_; }
  mem::BackingStore& backing() { return backing_; }
  const CoherenceConfig& config() const { return cfg_; }
  StatSet& stats() { return stats_; }

 private:
  static bool GoesToHome(MsgType t) {
    switch (t) {
      case MsgType::kGetS:
      case MsgType::kGetX:
      case MsgType::kPutM:
      case MsgType::kPutE:
      case MsgType::kDataWB:
      case MsgType::kInvAck:
        return true;
      default:
        return false;
    }
  }

  /// Hands in-flight message `h` to `to`'s controller.
  void Deliver(CoreId to, std::uint32_t h);

  sim::Engine& engine_;
  noc::Mesh& mesh_;
  mem::BackingStore& backing_;
  CoherenceConfig cfg_;
  StatSet& stats_;
  std::vector<std::unique_ptr<L1Controller>> l1s_;
  std::vector<std::unique_ptr<DirController>> dirs_;
  /// Per-MsgType send counters, resolved once instead of a
  /// string-concat + map lookup per message (the coherence hot path).
  /// Bound lazily so the manifest lists only the types actually sent.
  std::array<Counter*, kNumMsgTypes> sent_by_type_{};
  /// Messages in flight, by the handle their packet's deliver task
  /// captures; the handles of free slots wait in free_msgs_.
  std::vector<Message> in_flight_;
  std::vector<std::uint32_t> free_msgs_;
  /// Delivered payload buffers, ready for LineBuffer.
  std::vector<std::vector<Word>> spare_lines_;
  std::vector<DirController::TxnNode> spare_txns_;
};

}  // namespace glb::coherence
