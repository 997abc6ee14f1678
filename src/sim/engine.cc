// Engine hot path. Deliberately free of string/stream machinery: the
// stall formatter lives in run_status.cc, and the per-event invariants
// are GLB_DCHECKs (active in Debug/sanitizer builds only).
#include "sim/engine.h"

#include <algorithm>
#include <new>
#include <utility>

#include "common/prof.h"

namespace glb::sim {

Engine::Engine() {
  // Reserve up front so steady-state scheduling never reallocates: the
  // far heap gets vector capacity, the node pool a first (uncarved)
  // chunk.
  far_.reserve(1024);
  chunks_.reserve(16);
  chunks_.push_back(std::make_unique_for_overwrite<std::byte[]>(kNodesPerChunk * sizeof(Node)));
  carved_ = 0;
}

Engine::~Engine() {
  // Destroy every carved node — free-listed ones hold moved-from Tasks,
  // the rest are still-pending events whose Tasks die with the engine.
  for (std::size_t c = 0; c < chunks_.size(); ++c) {
    const std::size_t n = (c + 1 == chunks_.size()) ? carved_ : kNodesPerChunk;
    Node* base = reinterpret_cast<Node*>(chunks_[c].get());
    for (std::size_t i = 0; i < n; ++i) base[i].~Node();
  }
}

Engine::Node* Engine::AllocNode() {
  if (free_ != nullptr) {
    Node* n = free_;
    free_ = n->next;
    return n;
  }
  if (carved_ == kNodesPerChunk) {
    chunks_.push_back(std::make_unique_for_overwrite<std::byte[]>(kNodesPerChunk * sizeof(Node)));
    carved_ = 0;
  }
  return new (chunks_.back().get() + carved_++ * sizeof(Node)) Node;
}

void Engine::ScheduleAt(Cycle at, Callback fn) {
  GLB_DCHECK(at >= now_) << "scheduling into the past: at=" << at
                         << " now=" << now_;
  GLB_DCHECK(static_cast<bool>(fn)) << "null event callback";
  Node* n = AllocNode();
  n->fn = std::move(fn);
  ++pending_;
  if (at - now_ < kRingCycles) {
    // Near future: append to the cycle's FIFO bucket. No allocation, no
    // heap sift — the common case (mesh hops, cache latencies, G-line
    // flushes, even DRAM fills are all inside the ring window).
    LinkRing(n, at);
    ++ring_count_;
  } else {
    n->next = nullptr;
    far_.push_back(FarEvent{at, next_seq_++, n});
    std::push_heap(far_.begin(), far_.end(), After);
  }
}

void Engine::JoinAt(Cycle at, Member& m) {
  GLB_DCHECK(at >= now_) << "joining a batch in the past: at=" << at << " now=" << now_;
  m.next = nullptr;
  if (at - now_ < kRingCycles) {
    // The tail of a bucket is its latest insertion for that cycle (far
    // events at the same cycle all run before it), so extending a tail
    // batch puts `m` exactly where a fresh event would go.
    Node* tail = ring_[static_cast<std::size_t>(at & kRingMask)].tail;
    if (tail != nullptr) {
      if (Batch* batch = tail->fn.target<Batch>()) {
        batch->tail->next = &m;
        batch->tail = &m;
        return;
      }
    }
  }
  ScheduleAt(at, Batch{&m, &m});
}

void Engine::Park(Slot& slot, Cycle period) {
  GLB_CHECK(!slot.linked_) << "parking a slot that is already linked";
  GLB_CHECK(period >= 1 && period < kRingCycles) << "slot period " << period;
  slot.period_ = period;
  slot.due_ = now_ + period;
  slot.armed_ = true;
  slot.linked_ = true;
  slot.prev_ = nullptr;
  slot.next_ = slots_;
  if (slots_ != nullptr) slots_->prev_ = &slot;
  slots_ = &slot;
  ++pending_;
  ++ring_count_;
  LinkRing(&slot, slot.due_);
}

void Engine::SettleSlots() {
  for (Slot* s = slots_; s != nullptr; s = s->next_) s->Settle();
}

void Engine::DispatchSlot(Node* n) {
  Slot* s = static_cast<Slot*>(n);
  if (s->armed_) {
    // A hop: the place the poll's next event would take, one period on.
    s->due_ = now_ + s->period_;
    LinkRing(n, s->due_);
    return;
  }
  s->linked_ = false;
  if (s->prev_ != nullptr) {
    s->prev_->next_ = s->next_;
  } else {
    slots_ = s->next_;
  }
  if (s->next_ != nullptr) s->next_->prev_ = s->prev_;
  --pending_;
  --ring_count_;
  ++events_processed_;
  s->Fire();
}

Cycle Engine::NextRingCycle() const {
  // Circular scan of the occupancy bitmap starting at now_'s slot: the
  // first set bit, walking forward, is the earliest pending ring cycle
  // (every bucket holds exactly one cycle of the [now_, now_+ring)
  // window). kOccWords full words plus a wrapped re-check of the start
  // word's low bits.
  const std::uint32_t start = static_cast<std::uint32_t>(now_ & kRingMask);
  std::size_t w = start >> 6;
  const std::uint32_t b = start & 63;
  std::uint64_t word = occupied_[w] & (~0ull << b);
  for (std::size_t i = 0;; ++i) {
    if (word != 0) {
      const Cycle p = static_cast<Cycle>((w << 6) +
                                         static_cast<std::size_t>(__builtin_ctzll(word)));
      return now_ + ((p - start) & kRingMask);
    }
    GLB_DCHECK(i < kOccWords) << "NextRingCycle on empty ring";
    w = (w + 1) & (kOccWords - 1);
    word = occupied_[w];
    if (i == kOccWords - 1) word &= ~(~0ull << b);  // wrapped: start word, bits < b
  }
}

Cycle Engine::NextEventCycle() const {
  Cycle best = kCycleNever;
  if (ring_count_ > 0) best = NextRingCycle();
  if (!far_.empty() && far_.front().at < best) best = far_.front().at;
  return best;
}

void Engine::RunCurrentCycle() {
  // Far-heap events due now run first: a cycle is only reachable from
  // the heap while it is outside the ring window, strictly before any
  // ring insertion for it, so every heap event at this cycle has a
  // smaller seq than every bucket event at it.
  while (!far_.empty() && far_.front().at == now_) {
    std::pop_heap(far_.begin(), far_.end(), After);
    Node* n = far_.back().node;
    far_.pop_back();
    Task fn = std::move(n->fn);
    FreeNode(n);
    --pending_;
    ++events_processed_;
    fn();
  }
  // Bucket FIFO preserves scheduling order; events appended mid-drain
  // (the ScheduleIn(0) pattern) are picked up by the same loop.
  const std::size_t idx = static_cast<std::size_t>(now_ & kRingMask);
  Bucket& bkt = ring_[idx];
  while (bkt.head != nullptr) {
    Node* n = bkt.head;
    bkt.head = n->next;
    if (bkt.head == nullptr) bkt.tail = nullptr;
    // With many events pending, successive nodes of one bucket can sit
    // a chunk-stride apart; fetch the successor while this event runs.
    if (bkt.head != nullptr) __builtin_prefetch(bkt.head);
    if (!n->fn) {
      DispatchSlot(n);
      continue;
    }
    Task fn = std::move(n->fn);
    FreeNode(n);
    --pending_;
    --ring_count_;
    ++events_processed_;
    fn();
  }
  occupied_[idx >> 6] &= ~(1ull << (idx & 63));
}

RunStatus Engine::RunUntilIdleStatus(Cycle max_cycles) {
  // Everything the event loop does that no component re-attributes via
  // a nested prof::Scope (queue maintenance, dispatch) lands in kEngine.
  // One scope per run, not per event: the loop itself stays scope-free.
  prof::Scope prof_scope(prof::Cat::kEngine);
  while (pending_ > 0) {
    const Cycle next = NextEventCycle();
    if (next > max_cycles) {
      SettleSlots();
      return RunStatus{.idle = false,
                       .now = now_,
                       .pending_events = pending_,
                       .next_event_at = next};
    }
    now_ = next;
    RunCurrentCycle();
  }
  return RunStatus{.idle = true, .now = now_, .pending_events = 0,
                   .next_event_at = kCycleNever};
}

void Engine::RunUntil(Cycle until) {
  GLB_CHECK(until >= now_) << "RunUntil into the past";
  while (pending_ > 0) {
    const Cycle next = NextEventCycle();
    if (next > until) break;
    now_ = next;
    RunCurrentCycle();
  }
  now_ = until;
  SettleSlots();
}

}  // namespace glb::sim
