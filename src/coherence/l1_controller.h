// Private L1 data-cache controller (MESI, write-back, write-allocate).
//
// Services exactly one core with at most one outstanding data miss (the
// cores are in-order, Table 1), plus a write-back buffer holding evicted
// dirty/exclusive lines until the home directory acknowledges them.
// Cached lines are always in a stable state (S/E/M); transient state
// lives in the single MSHR and in write-back buffer entries.
#pragma once

#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "coherence/protocol.h"
#include "mem/backing_store.h"
#include "mem/cache_array.h"
#include "sim/engine.h"

namespace glb::coherence {

class Fabric;

class L1Controller {
 public:
  /// Stable MESI states of a cached line.
  enum class LineState : std::uint8_t { kI, kS, kE, kM };

  using LoadCallback = std::function<void(Word)>;
  using StoreCallback = std::function<void()>;

  L1Controller(Fabric& fabric, CoreId core, const mem::CacheGeometry& geo);

  L1Controller(const L1Controller&) = delete;
  L1Controller& operator=(const L1Controller&) = delete;

  /// Architectural operations (one at a time per core; enforced).
  /// Callbacks run at the cycle the operation completes.
  void Load(Addr addr, LoadCallback done);
  void Store(Addr addr, Word value, StoreCallback done);
  /// Atomic read-modify-write; `done` receives the pre-op value.
  /// For kCompareAndSwap, `operand` is the expected value and
  /// `operand2` the desired one; for other ops `operand2` is ignored.
  void Amo(Addr addr, AmoOp op, Word operand, Word operand2, LoadCallback done);

  /// One poll of a spin wait (core::Core::SpinUntil) whose previous
  /// poll returned a value that failed the wait. On a hit it counts and
  /// touches like Load, then, instead of scheduling the result, parks
  /// `watcher` where that result's event would go and watches the line:
  /// the line holds the same value for as long as it stays cached, so
  /// every further poll would hit and fail too. Losing the line (an Inv,
  /// a FwdGetX, an eviction) disarms `watcher`. Returns false, counting
  /// nothing, on a miss: the caller then issues a real Load.
  bool Watch(Addr addr, sim::Engine::Slot& watcher);
  /// Credits `n` more hits on the line of the last Watch — polls its
  /// parked spinner skipped — including their LRU touches.
  void CreditWatchedHits(std::uint64_t n);

  /// Incoming protocol message from the NoC.
  void OnMessage(const Message& msg);

  /// True while a miss is outstanding (no new core op may be issued).
  bool busy() const { return mshr_.valid; }

  // --- Introspection for tests and the coherence checker ---
  LineState StateOf(Addr addr) const;
  bool HasWritebackInFlight() const { return !wb_buffer_.empty(); }
  /// True if this controller has transient state (MSHR or write-back)
  /// on the given line — the coherence checker skips such lines.
  bool HasPendingOn(Addr line_addr) const {
    return (mshr_.valid && mshr_.line_addr == line_addr) ||
           wb_buffer_.count(line_addr) > 0;
  }
  /// Peeks the cached value of a word; only valid when StateOf != kI.
  Word PeekWord(Addr addr) const;
  CoreId core() const { return core_; }

  template <typename Fn>
  void ForEachValidLine(Fn&& fn) const {
    cache_.ForEachValid([&](const auto& line) { fn(line.line_addr, line.meta.state); });
  }

  /// Functionally spills every Modified line into the backing store so
  /// post-run inspection (validation, examples) sees the architectural
  /// memory image. Only legal when the machine is quiescent.
  void FlushToBacking(mem::BackingStore& backing) const {
    GLB_CHECK(!mshr_.valid && wb_buffer_.empty())
        << "flush while core " << core_ << " has transient state";
    cache_.ForEachValid([&](const auto& line) {
      if (line.meta.state == LineState::kM) {
        backing.WriteLine(line.line_addr, cache_.Words(&line).data());
      }
    });
  }

 private:
  struct LineMeta {
    LineState state = kDefaultState;
    static constexpr LineState kDefaultState = LineState::kI;
  };
  using Cache = mem::CacheArray<LineMeta>;

  // The one-entry miss-status holding register.
  struct Mshr {
    bool valid = false;
    enum class Wait : std::uint8_t { kIS_D, kIM_D, kSM_D } wait = Wait::kIS_D;
    enum class Op : std::uint8_t { kLoad, kStore, kAmo } op = Op::kLoad;
    Addr addr = 0;       // word address of the access
    Addr line_addr = 0;  // line under transaction
    Word operand = 0;
    Word operand2 = 0;
    AmoOp amo = AmoOp::kFetchAdd;
    LoadCallback on_value;
    StoreCallback on_done;
    /// Set when an Inv overtook the pending fill: use the fill once,
    /// then drop to I.
    bool inv_after_fill = false;
    /// A forward belonging to the transaction right after ours,
    /// buffered until our fill lands (at most one can exist).
    std::optional<Message> buffered_fwd;
    /// Cycle the miss started (tracing only; the miss span is emitted
    /// when the MSHR retires).
    Cycle trace_start = 0;
  };

  // Evicted E/M line awaiting PutAck.
  struct WbEntry {
    enum class State : std::uint8_t {
      kMI_A,          // PutM sent, still owner as far as we know
      kEI_A,          // PutE sent
      kRelinquished,  // answered a forward meanwhile; just awaiting PutAck
    } state;
    std::vector<Word> data;
  };

  void StartMiss(Mshr::Op op, Addr addr, AmoOp amo, Word operand, Word operand2,
                 LoadCallback on_value, StoreCallback on_done, bool had_s_copy);
  void OnData(const Message& msg);
  void OnFwd(const Message& msg);
  void OnInv(const Message& msg);
  void OnPutAck(const Message& msg);

  /// Applies the core operation recorded in the MSHR to `line`, fires
  /// the completion callback, and retires the MSHR (including any
  /// buffered forward / pending drop).
  void CompleteMiss(Cache::Line* line);

  /// Performs a read-modify-write on a word held in M.
  Word ApplyAmo(Cache::Line* line, Addr addr, AmoOp op, Word operand, Word operand2);

  /// Invalidates `line`, disarming its spin watcher if it has one.
  void Drop(Cache::Line* line);

  /// Makes room for `line_addr`, spilling a dirty/exclusive victim into
  /// the write-back buffer. Returns the line to install into.
  Cache::Line* AllocateFor(Addr line_addr);

  void Send(Message msg);
  /// A copy of a valid line's data in a recycled payload buffer.
  std::vector<Word> CopyLine(const Cache::Line* line);

  Fabric& fabric_;
  /// The fabric's engine, cached at construction: the L1 hot path
  /// schedules on it constantly.
  sim::Engine& engine_;
  const CoreId core_;
  Cache cache_;
  Mshr mshr_;
  std::unordered_map<Addr, WbEntry> wb_buffer_;
  /// The line of the last Watch (its frame stays valid to touch until
  /// the core's next miss) and, while that line stays cached, the
  /// parked spinner to disarm when it goes.
  Cache::Line* watched_ = nullptr;
  sim::Engine::Slot* watcher_ = nullptr;

  Counter* hits_ = nullptr;
  Counter* misses_ = nullptr;
  Counter* upgrades_ = nullptr;
  Counter* writebacks_ = nullptr;
  Counter* fwds_served_ = nullptr;
  Counter* invs_received_ = nullptr;
  // Race-path observability (asserted on by the stress tests).
  Counter* fwd_buffered_ = nullptr;
  Counter* inv_during_fill_ = nullptr;
  Counter* wb_fwd_served_ = nullptr;
  Counter* stale_puts_ = nullptr;
};

}  // namespace glb::coherence
