// Home L2 bank with embedded directory (blocking, collect-acks-at-home).
//
// Each tile owns one bank of the shared L2; lines are interleaved across
// banks by line address. The bank is the serialization point for its
// lines: while a transaction is open on a line, later requests for the
// same line queue in arrival order. The L2 is inclusive of the L1s, so
// evicting an L2 line first recalls every L1 copy (a nested transaction
// on the victim address).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <unordered_map>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "coherence/protocol.h"
#include "coherence/sharer_set.h"
#include "mem/backing_store.h"
#include "mem/cache_array.h"
#include "sim/engine.h"
#include "sim/task.h"

namespace glb::coherence {

class Fabric;

class DirController {
 public:
  /// Directory view of who caches a line.
  enum class DirState : std::uint8_t { kUncached, kShared, kExclusive };

  /// Lives in calloc'd cache frames: these defaults are written by
  /// CacheArray::Install, never at construction.
  struct DirMeta {
    DirState state = DirState::kUncached;
    SharerSet sharers;  // full-map sharer vector (kShared)
    CoreId owner = kInvalidCore;  // kExclusive
    bool dirty = false;  // L2 copy newer than DRAM
  };

  DirController(Fabric& fabric, CoreId tile, const mem::CacheGeometry& geo);

  DirController(const DirController&) = delete;
  DirController& operator=(const DirController&) = delete;

  void OnMessage(const Message& msg);

  // --- Introspection for tests and the coherence checker ---
  bool LineBusy(Addr line_addr) const { return txns_.count(line_addr) > 0; }
  std::size_t open_transactions() const { return txns_.size(); }
  /// Directory metadata for a resident line; nullptr if not in this bank.
  const DirMeta* Probe(Addr line_addr) const;
  /// Diagnostic snapshot of every open transaction (for deadlock
  /// debugging and tests).
  void DumpTransactions(std::ostream& os) const;
  /// L2-cached word value (line must be resident).
  Word PeekWord(Addr addr) const;
  template <typename Fn>
  void ForEachValidLine(Fn&& fn) const {
    array_.ForEachValid([&](const auto& line) { fn(line.line_addr, line.meta); });
  }

  /// Functionally spills every dirty L2 line into the backing store.
  /// Only legal when the bank has no open transactions.
  void FlushToBacking(mem::BackingStore& backing) const {
    GLB_CHECK(txns_.empty()) << "flush while bank " << tile_ << " is busy";
    array_.ForEachValid([&](const auto& line) {
      if (line.meta.dirty) backing.WriteLine(line.line_addr, array_.Words(&line).data());
    });
  }

 private:
  using Cache = mem::CacheArray<DirMeta>;
  static constexpr std::uint32_t kNoQueued = 0xFFFFFFFFu;
  /// Open transactions a bank's table holds before it rehashes.
  static constexpr std::size_t kReservedTxns = 16;

  /// A request waiting behind an open transaction; `next` links the
  /// line's queue, or the free slots.
  struct Queued {
    Message msg;
    std::uint32_t next = kNoQueued;
  };

  struct Txn {
    MsgType type = MsgType::kGetS;  // kGetS / kGetX; recalls use is_recall
    CoreId requester = kInvalidCore;
    bool is_recall = false;
    std::uint32_t acks_left = 0;
    /// Requests that arrived while this transaction was open, oldest
    /// first: a list through the bank's queued_ slab.
    std::uint32_t queue_head = kNoQueued;
    std::uint32_t queue_tail = kNoQueued;
    std::uint32_t num_queued = 0;
    /// Recall continuation: resumes the parent allocation.
    sim::Task on_recall_done;
    /// Trace correlation id of the transaction's async span (0 =
    /// tracing was off when it opened).
    std::uint64_t trace_id = 0;
  };

  // Entry points of the per-line state machine.
  void Open(const Message& msg);
  void Process(const Message& msg);
  void ProcessPut(const Message& msg);
  void ProcessGet(const Message& msg);
  /// Runs `cont` once the line is resident in this bank (allocating,
  /// recalling a victim and fetching DRAM as needed).
  void EnsureResident(Addr line_addr, sim::Task cont);
  /// Finds a frame for `line_addr` (recalling or retrying as needed),
  /// installs the fetched DRAM image, then runs `cont`.
  void TryInstall(Addr line_addr, std::vector<Word> data, sim::Task cont);
  /// Recalls all L1 copies of `victim`, writes it back to DRAM and
  /// invalidates it, then runs `cont`.
  void StartRecall(Cache::Line* victim, sim::Task cont);
  void FinishRecall(Addr line_addr);

  void OnInvAck(const Message& msg);
  void OnOwnerData(const Message& msg);

  /// Adds the open transaction of `line_addr`, in a recycled table node
  /// when the fabric has one.
  void Insert(Addr line_addr, Txn txn);
  /// Queues `msg` behind `txn`.
  void Enqueue(Txn& txn, const Message& msg);
  /// Completes the open transaction on `line_addr` and pumps the queue.
  void Close(Addr line_addr);

  void SendData(CoreId to, const Cache::Line* line, Grant grant);
  void SendCtl(CoreId to, MsgType type, Addr line_addr);
  void WriteLineToBacking(const Cache::Line* line);

  Fabric& fabric_;
  /// The fabric's engine (see L1Controller::engine_).
  sim::Engine& engine_;
  const CoreId tile_;
  Cache array_;
  std::unordered_map<Addr, Txn> txns_;

 public:
  /// A transaction-table node. Closed transactions leave theirs with
  /// the fabric (Fabric::SpareTxns), shared by every bank, and Insert
  /// reuses them, so a request costs no allocation once the chip has
  /// reached its peak number of open transactions.
  using TxnNode = std::unordered_map<Addr, Txn>::node_type;

 private:
  /// Every queued request of the bank; it grows only to the peak number
  /// queued at once.
  std::vector<Queued> queued_;
  std::uint32_t free_queued_ = kNoQueued;

  Counter* requests_ = nullptr;
  Counter* l2_misses_ = nullptr;
  Counter* dram_fetches_ = nullptr;
  Counter* recalls_ = nullptr;
  Counter* alloc_retries_ = nullptr;
  Counter* invs_sent_ = nullptr;
  Counter* fwds_sent_ = nullptr;
};

}  // namespace glb::coherence
