// Deterministic discrete-event simulation engine.
//
// All glbarrier components (cores, cache controllers, routers, G-line
// controllers) advance by scheduling callbacks on one shared Engine.
// Determinism guarantee: events fire in (cycle, insertion-sequence)
// order, so two runs with identical inputs produce identical event
// interleavings regardless of host platform.
//
// Hot-path design (docs/PERFORMANCE.md): a power-of-two ring of
// per-cycle FIFO buckets absorbs near-future events — the common case,
// since mesh serialization, cache latencies and G-line flushes all
// schedule within a few dozen cycles — while far-future events (DRAM
// fills, watchdog timeouts) overflow into a min-heap. Event nodes are
// recycled through a free list and callbacks are sim::Task (48-byte
// inline storage), so the bucket fast path performs zero heap
// allocations in steady state.
//
// A Slot is the one node that is not an event: a parked poll loop's
// place in line (docs/PERFORMANCE.md §9). While armed it hops from
// bucket to bucket without running anything, so a core that polls an
// unchanging cached value costs one relink per poll instead of one
// event, and event order stays exactly what the poll events gave.
//
// A batch is one event that runs a list of intrusive Members in order
// (docs/PERFORMANCE.md §11). JoinAt appends a member to the batch at
// the tail of its cycle's bucket, and starts a new batch there when the
// tail is anything else. So a batch only ever replaces a run of events
// that no other insertion separates, and the order stays exact: the
// notify and resume hops of a whole G-line release, and the line
// flushes among them, cost one event instead of one per core.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "sim/task.h"

namespace glb::sim {

/// Outcome of a RunUntilIdle call, with enough context to report a
/// stalled simulation loudly instead of a bare `false`.
struct RunStatus {
  /// True if the event queue drained (the simulated machine went idle).
  bool idle = true;
  /// Simulated clock when the run stopped.
  Cycle now = 0;
  /// Events still queued (0 when idle).
  std::size_t pending_events = 0;
  /// Cycle of the earliest still-queued event (kCycleNever when idle).
  Cycle next_event_at = kCycleNever;

  explicit operator bool() const { return idle; }
  /// "simulation stalled at cycle N, pending events: M (earliest
  /// pending at cycle K)" — empty when idle. Defined in run_status.cc so
  /// the string formatting machinery stays out of the engine's
  /// translation unit.
  std::string DescribeStall() const;
};

class Engine {
 public:
  using Callback = Task;
  class Slot;

  Engine();
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated cycle. During an event callback this is the
  /// cycle the event was scheduled for.
  Cycle Now() const { return now_; }

  /// Schedules `fn` to run at absolute cycle `at` (>= Now()).
  /// Events scheduled for the same cycle run in scheduling order.
  void ScheduleAt(Cycle at, Callback fn);

  /// Schedules `fn` to run `delta` cycles from now (delta may be 0:
  /// the event runs later this same cycle, after already-queued
  /// same-cycle events).
  void ScheduleIn(Cycle delta, Callback fn) { ScheduleAt(now_ + delta, std::move(fn)); }

  /// One member of a batch: an intrusive link and an entry point,
  /// embedded in its owner (a core's barrier waiter, a G-line's pending
  /// batch). A member sits in at most one batch at a time, must outlive
  /// its run, and may join again from inside its own `run`.
  struct Member {
    Member* next = nullptr;
    void (*run)(Member&) = nullptr;
  };

  /// Runs `m->run` at cycle `at` (>= Now()), in exactly the place
  /// ScheduleAt(at, ...) would give it. When the tail of that cycle's
  /// bucket is a batch that has not started to run, `m` joins it and
  /// costs no event; otherwise `m` starts a new batch there. A batch
  /// being dispatched has left its bucket, so it takes no new member.
  void JoinAt(Cycle at, Member& m);
  void JoinIn(Cycle delta, Member& m) { JoinAt(now_ + delta, m); }

  /// Links `slot` at the tail of the bucket `period` cycles ahead,
  /// armed: exactly where an event that re-issues a `period`-cycle
  /// operation would append its successor if scheduled now. Until it is
  /// disarmed, every dispatch relinks it `period` cycles further on
  /// without running anything. 1 <= period < kRingCycles.
  void Park(Slot& slot, Cycle period);

  /// Calls Settle() on every linked slot, so state the slots' owners
  /// credit lazily is exact. The run loops do this before they return
  /// with slots still linked; a mid-run observer (the interval sampler)
  /// calls it before it reads.
  void SettleSlots();

  /// Runs events until the queue empties or the simulated clock passes
  /// `max_cycles`. Returns true if the queue drained (the simulated
  /// machine went idle), false on cycle-limit timeout.
  bool RunUntilIdle(Cycle max_cycles = kCycleNever) {
    return RunUntilIdleStatus(max_cycles).idle;
  }

  /// Like RunUntilIdle, but reports how far the run got; on a
  /// cycle-limit timeout the status describes the stall (cycle reached,
  /// queued events, earliest pending cycle) so callers can surface it.
  RunStatus RunUntilIdleStatus(Cycle max_cycles = kCycleNever);

  /// Runs all events with cycle <= `until`, then sets Now() to `until`.
  void RunUntil(Cycle until);

  std::uint64_t events_processed() const { return events_processed_; }
  std::size_t pending_events() const { return pending_; }
  bool idle() const { return pending_ == 0; }

  /// Cycle of the earliest pending event (kCycleNever when idle).
  Cycle NextEventCycle() const;

  /// Events currently waiting in the far-future overflow heap rather
  /// than the bucket ring (introspection for tests/benches).
  std::size_t far_pending() const { return far_.size(); }

  /// Near-future horizon: ScheduleIn(delta) with delta < kRingCycles
  /// takes the allocation-free bucket path. Sized to cover every
  /// memory-system latency (DRAM is ~400 cycles) so only watchdog-scale
  /// timeouts overflow to the heap.
  static constexpr Cycle kRingCycles = 1024;

 private:
  static constexpr Cycle kRingMask = kRingCycles - 1;
  static constexpr std::size_t kOccWords = kRingCycles / 64;
  static constexpr std::size_t kNodesPerChunk = 1024;

  /// An event, or (with `fn` empty) the node of a parked Slot.
  struct Node {
    Node* next = nullptr;
    Task fn;
  };

  /// The callable of a batch event: its members, in join order.
  struct Batch {
    Member* head;
    Member* tail;
    void operator()() const {
      for (Member* m = head; m != nullptr;) {
        // Read the link first: a member's run may free or re-join it.
        Member* next = m->next;
        m->run(*m);
        m = next;
      }
    }
  };

 public:
  /// A recurring place in the event order that costs no event while it
  /// recurs. The owner Park()s it where a poll loop's next event would
  /// go; each dispatch of an armed slot is a hop to the tail of the
  /// bucket `period` cycles ahead — where that event would have
  /// appended its successor — and is not counted as an event. A linked
  /// slot counts as one pending event, so the engine never goes idle
  /// under it. Once Disarm()ed, its next dispatch unlinks it and runs
  /// Fire() as an ordinary event, in the place the poll's event would
  /// have had.
  class Slot : Node {  // its Node's fn stays empty: dispatch's mark
   public:
    Slot() = default;
    Slot(const Slot&) = delete;
    Slot& operator=(const Slot&) = delete;

    /// Ends the hops: the next dispatch fires the slot.
    void Disarm() { armed_ = false; }
    /// Cycle of the next dispatch and the hop length (while linked).
    Cycle due() const { return due_; }
    Cycle period() const { return period_; }

   protected:
    virtual ~Slot() = default;
    /// Runs when a disarmed slot is dispatched; the slot is already
    /// unlinked, so it may Park itself again.
    virtual void Fire() = 0;
    /// Credits the hops made so far to whatever the owner accounts
    /// lazily (Engine::SettleSlots).
    virtual void Settle() = 0;

   private:
    friend class Engine;
    Cycle due_ = 0;
    Cycle period_ = 1;
    bool armed_ = false;
    bool linked_ = false;
    /// Neighbours in the engine's list of linked slots (SettleSlots).
    Slot* prev_ = nullptr;
    Slot* next_ = nullptr;
  };

 private:
  /// Singly-linked FIFO of same-(cycle mod ring) events.
  struct Bucket {
    Node* head = nullptr;
    Node* tail = nullptr;
  };

  /// Far-heap entry: ordering keys inline so heap sifts never chase the
  /// node pointer.
  struct FarEvent {
    Cycle at;
    std::uint64_t seq;
    Node* node;
  };

  // Min-heap comparator expressed as "a ordered after b" for std::*_heap.
  static bool After(const FarEvent& a, const FarEvent& b) {
    if (a.at != b.at) return a.at > b.at;
    return a.seq > b.seq;
  }

  Node* AllocNode();
  /// Appends `n` to the FIFO bucket of ring cycle `at`.
  void LinkRing(Node* n, Cycle at) {
    const std::size_t idx = static_cast<std::size_t>(at & kRingMask);
    Bucket& bkt = ring_[idx];
    n->next = nullptr;
    if (bkt.tail != nullptr) {
      bkt.tail->next = n;
    } else {
      bkt.head = n;
      occupied_[idx >> 6] |= 1ull << (idx & 63);
    }
    bkt.tail = n;
  }
  /// Dispatches a slot's node: a hop while armed, else unlink and Fire.
  void DispatchSlot(Node* n);
  void FreeNode(Node* n) {
    n->next = free_;
    free_ = n;
  }

  /// Runs every event due at `now_` — far-heap events first (they are
  /// always older than bucket events at the same cycle), then the
  /// bucket FIFO, including events appended to it mid-drain.
  void RunCurrentCycle();

  Cycle NextRingCycle() const;  // requires a non-empty ring

  Bucket ring_[kRingCycles];
  /// Occupancy bitmap over ring_: bit (c & kRingMask) set iff that
  /// bucket is non-empty. Makes next-event search a few ctz ops.
  std::uint64_t occupied_[kOccWords] = {};
  /// Far-future overflow (at - now >= kRingCycles), a (cycle, seq)
  /// min-heap.
  std::vector<FarEvent> far_;
  /// Recycled event nodes; chunks_ owns the raw memory they are carved
  /// from. Chunks are uninitialized storage and nodes are
  /// placement-constructed one at a time as the pool grows (a bump
  /// pointer into the newest chunk), so a fresh node's cache line is
  /// touched exactly once — by the schedule that first uses it — rather
  /// than by an up-front construction-and-free-listing pass over the
  /// whole chunk. The destructor destroys carved nodes: every chunk but
  /// the last is fully carved, the last up to carved_.
  Node* free_ = nullptr;
  std::vector<std::unique_ptr<std::byte[]>> chunks_;
  std::size_t carved_ = kNodesPerChunk;

  Cycle now_ = 0;
  std::size_t pending_ = 0;
  /// Subset of pending_ sitting in ring buckets (saves scanning the
  /// occupancy bitmap to learn the ring is empty).
  std::size_t ring_count_ = 0;
  /// Far-heap tie-break. Bucket FIFOs encode insertion order
  /// structurally, so only far events consume sequence numbers; the
  /// heap-before-bucket dispatch rule covers cross-queue ties (see
  /// RunCurrentCycle).
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  /// Linked slots (a doubly-linked list through Slot::prev_/next_).
  Slot* slots_ = nullptr;
};

}  // namespace glb::sim
