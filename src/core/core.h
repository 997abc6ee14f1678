// In-order core model.
//
// A Core executes one simulated program (a coroutine) and exposes the
// architectural operations as awaitables. The Table-1 core is in-order
// 2-way superscalar: memory operations block until complete (one
// outstanding data miss), and pure computation is charged through
// Compute(cycles) — workload generators account for issue width when
// converting instruction counts to cycles.
//
// Every awaited operation attributes its latency to a Figure-6 time
// category (Busy / Read / Write / Lock / Barrier). The software
// synchronization runtime re-labels its internal memory traffic via
// CategoryScope, so a spin load inside a software barrier is charged to
// Barrier, not Read.
//
// A spin wait (SpinUntil) gives the same simulated results as a loop of
// Loads but costs no event per poll: while the polled line stays cached
// its value cannot change, so after the first failing hit the core
// parks in an engine Slot that keeps the poll loop's exact place in the
// event order, and the skipped polls are credited lazily (docs/
// PERFORMANCE.md §9).
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/prof.h"
#include "common/stats.h"
#include "common/types.h"
#include "coherence/l1_controller.h"
#include "coherence/protocol.h"
#include "core/barrier_device.h"
#include "core/task.h"
#include "core/timebreak.h"
#include "sim/engine.h"
#include "trace/trace.h"

namespace glb::core {

struct CoreConfig {
  /// Cycles between GL_Barrier() being called and the bar_reg write
  /// reaching the G-line controllers (models the call/`mov` overhead
  /// that gave the paper 13 instead of 4 cycles in Figure 5).
  Cycle gl_notify_overhead = 1;
  /// Cycles between bar_reg being cleared by the hardware and the core
  /// leaving its `bnz bar_reg` loop.
  Cycle gl_resume_overhead = 1;
};

class Core {
 public:
  Core(sim::Engine& engine, coherence::L1Controller& l1, CoreId id,
       const CoreConfig& cfg, StatSet& stats);

  Core(const Core&) = delete;
  Core& operator=(const Core&) = delete;

  /// Wires the hardware barrier (may be null if the program never uses
  /// GlBarrier()).
  void SetBarrierDevice(BarrierDevice* dev) { barrier_dev_ = dev; }

  /// Straggler hook: maps the nominal duration of a compute phase to
  /// the one actually charged (DVFS slowdown, skewed partitions — see
  /// fault::FaultInjector::StretchCompute). Unset = identity, and the
  /// Compute() fast path (cycles == 0 stays 0) is unchanged.
  using ComputeFaultHook = std::function<Cycle(CoreId, Cycle)>;
  void SetComputeFaultHook(ComputeFaultHook hook) {
    compute_fault_hook_ = std::move(hook);
  }

  /// Starts `program` now. `on_done` (optional) runs when it finishes.
  void Run(Task program, std::function<void()> on_done = nullptr);

  bool done() const { return done_; }
  Cycle started_at() const { return started_at_; }
  Cycle finished_at() const { return finished_at_; }
  CoreId id() const { return id_; }

  /// Dense participant index used by the software barriers: rank ==
  /// id() on a whole-chip run, but a space-shared partition renumbers
  /// its member cores 0..P-1 so tenant-local barrier state (flag
  /// arrays, tree slots) stays compact. The hardware paths (G-line
  /// devices, the HYB unit) keep addressing by global id.
  CoreId rank() const { return rank_; }
  void SetRank(CoreId rank) { rank_ = rank; }
  const TimeBreakdown& breakdown() const { return breakdown_; }
  coherence::L1Controller& l1() { return l1_; }
  sim::Engine& engine() { return engine_; }

  /// Category override used by the sync runtime (see CategoryScope).
  void PushCategory(TimeCat cat) { cat_stack_.push_back(cat); }
  void PopCategory() {
    GLB_CHECK(!cat_stack_.empty()) << "category stack underflow";
    cat_stack_.pop_back();
  }

  /// Bumps the per-run barrier counter (Table 2's #Barriers). The
  /// GlBarrier awaitable calls this itself; software barriers call it
  /// from the sync runtime.
  void NoteBarrier() { barriers_->Inc(); }

  // --- awaitables -----------------------------------------------------

  struct LoadAwaiter {
    Core& core;
    Addr addr;
    Word result = 0;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      core.BeginOp(TimeCat::kRead);
      core.loads_->Inc();
      core.l1_.Load(addr, [this, h](Word v) {
        result = v;
        core.EndOp();
        // The resumed coroutine body is workload code until its next
        // suspension point (host profiler; docs/OBSERVABILITY.md).
        prof::Scope prof_scope(prof::Cat::kWorkload);
        h.resume();
      });
    }
    Word await_resume() const noexcept { return result; }
  };

  struct StoreAwaiter {
    Core& core;
    Addr addr;
    Word value;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      core.BeginOp(TimeCat::kWrite);
      core.stores_->Inc();
      core.l1_.Store(addr, value, [this, h]() {
        core.EndOp();
        // The resumed coroutine body is workload code until its next
        // suspension point (host profiler; docs/OBSERVABILITY.md).
        prof::Scope prof_scope(prof::Cat::kWorkload);
        h.resume();
      });
    }
    void await_resume() const noexcept {}
  };

  struct AmoAwaiter {
    Core& core;
    Addr addr;
    coherence::AmoOp op;
    Word operand;
    Word operand2;
    Word result = 0;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      core.BeginOp(TimeCat::kWrite);
      core.amos_->Inc();
      core.l1_.Amo(addr, op, operand, operand2, [this, h](Word old) {
        result = old;
        core.EndOp();
        // The resumed coroutine body is workload code until its next
        // suspension point (host profiler; docs/OBSERVABILITY.md).
        prof::Scope prof_scope(prof::Cat::kWorkload);
        h.resume();
      });
    }
    Word await_resume() const noexcept { return result; }
  };

  struct ComputeAwaiter {
    Core& core;
    Cycle cycles;
    bool await_ready() const noexcept { return cycles == 0; }
    void await_suspend(std::coroutine_handle<> h) {
      core.BeginOp(TimeCat::kBusy);
      if (core.compute_fault_hook_) {
        cycles = core.compute_fault_hook_(core.id_, cycles);
      }
      core.engine_.ScheduleIn(cycles, [this, h]() {
        core.EndOp();
        // The resumed coroutine body is workload code until its next
        // suspension point (host profiler; docs/OBSERVABILITY.md).
        prof::Scope prof_scope(prof::Cat::kWorkload);
        h.resume();
      });
    }
    void await_resume() const noexcept {}
  };

  /// GlBarrier(): the bar_reg write reaches the controllers
  /// `gl_notify_overhead` cycles after the call, and the core leaves its
  /// `bnz bar_reg` loop `gl_resume_overhead` cycles after the release.
  /// The awaiter is its own waiter: both hops are engine batch members,
  /// so the cores of one release cost one event (docs/PERFORMANCE.md
  /// §11), in the places their events would have had.
  struct GlBarrierAwaiter : BarrierWaiter {
    explicit GlBarrierAwaiter(Core& c) : core(c) {}
    Core& core;
    std::coroutine_handle<> waiter;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      GLB_CHECK(core.barrier_dev_ != nullptr)
          << "GlBarrier() without a barrier device on core " << core.id_;
      core.BeginOp(TimeCat::kBarrier);
      core.NoteBarrier();
      waiter = h;
      run = &Notify;
      core.engine_.JoinIn(core.cfg_.gl_notify_overhead, *this);
    }
    void await_resume() const noexcept {}

   private:
    static void Notify(sim::Engine::Member& m) {
      auto& a = static_cast<GlBarrierAwaiter&>(m);
      a.run = &Released;
      a.core.barrier_dev_->Arrive(a.core.id_, a);
    }
    static void Released(sim::Engine::Member& m) {
      auto& a = static_cast<GlBarrierAwaiter&>(m);
      a.run = &Resume;
      a.core.engine_.JoinIn(a.core.cfg_.gl_resume_overhead, a);
    }
    static void Resume(sim::Engine::Member& m) {
      auto& a = static_cast<GlBarrierAwaiter&>(m);
      a.core.EndOp();
      // Post-release coroutine body is workload code (host profiler).
      prof::Scope prof_scope(prof::Cat::kWorkload);
      a.waiter.resume();
    }
  };

  /// WaitOn(dev, cat): arrives at `dev` now and resumes inside its
  /// release, with the wait charged to `cat` (subject to CategoryScope
  /// overrides). This is how a barrier device with no notify/resume
  /// overhead of its own, the memory-mapped HYB unit, blocks a core.
  struct DeviceAwaiter : BarrierWaiter {
    DeviceAwaiter(Core& c, BarrierDevice& d, TimeCat t) : core(c), dev(d), cat(t) {}
    Core& core;
    BarrierDevice& dev;
    TimeCat cat;
    std::coroutine_handle<> waiter;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      core.BeginOp(cat);
      waiter = h;
      run = &Resume;
      dev.Arrive(core.id_, *this);
    }
    void await_resume() const noexcept {}

   private:
    static void Resume(sim::Engine::Member& m) {
      auto& a = static_cast<DeviceAwaiter&>(m);
      a.core.EndOp();
      // The resumed coroutine body is workload code until its next
      // suspension point (host profiler; docs/OBSERVABILITY.md).
      prof::Scope prof_scope(prof::Cat::kWorkload);
      a.waiter.resume();
    }
  };

  /// The poll loop `Word v; do v = co_await Load(addr); while
  /// (!pred(v));` as one awaitable, resuming with the first value that
  /// passes. `pred` must be a pure function of the value. Every poll is
  /// still counted (core.loads, l1.hits, the line's LRU stamp, the time
  /// category), at the cycles and in the event order the loop gives;
  /// only polls that hit an unchanged line run no event.
  template <typename Pred>
  struct SpinAwaiter {
    Core& core;
    Addr addr;
    Pred pred;
    Word result = 0;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      core.BeginSpin(Spin{addr, &Passes, this, h});
    }
    Word await_resume() const noexcept { return result; }

    static bool Passes(void* self, Word v) {
      auto* a = static_cast<SpinAwaiter*>(self);
      if (!a->pred(v)) return false;
      a->result = v;
      return true;
    }
  };

  template <typename Pred>
  [[nodiscard]] SpinAwaiter<Pred> SpinUntil(Addr addr, Pred pred) {
    return SpinAwaiter<Pred>{*this, addr, std::move(pred)};
  }

  [[nodiscard]] DeviceAwaiter WaitOn(BarrierDevice& dev, TimeCat cat = TimeCat::kBusy) {
    return DeviceAwaiter(*this, dev, cat);
  }

  [[nodiscard]] LoadAwaiter Load(Addr addr) { return LoadAwaiter{*this, addr}; }
  [[nodiscard]] StoreAwaiter Store(Addr addr, Word v) {
    return StoreAwaiter{*this, addr, v};
  }
  [[nodiscard]] AmoAwaiter Amo(Addr addr, coherence::AmoOp op, Word operand,
                               Word operand2 = 0) {
    return AmoAwaiter{*this, addr, op, operand, operand2};
  }
  [[nodiscard]] ComputeAwaiter Compute(Cycle cycles) {
    return ComputeAwaiter{*this, cycles};
  }
  [[nodiscard]] GlBarrierAwaiter GlBarrier() { return GlBarrierAwaiter(*this); }

 private:
  friend struct LoadAwaiter;

  /// The spin in progress: what to poll and how to test and hand back
  /// a value (set by SpinAwaiter, which lives on the coroutine frame).
  struct Spin {
    Addr addr = 0;
    bool (*passes)(void* awaiter, Word v) = nullptr;
    void* awaiter = nullptr;
    std::coroutine_handle<> waiter;
  };

  /// The core's place in the event order while it is parked in a spin.
  class SpinSlot final : public sim::Engine::Slot {
   public:
    explicit SpinSlot(Core& core) : core_(core) {}

   private:
    void Fire() override;
    void Settle() override { core_.SettleSpin(); }
    Core& core_;
  };

  void BeginSpin(const Spin& spin);
  /// A poll's value arrives (real loads only).
  void OnSpinValue(Word v);
  /// The poll loop's next iteration, right after a failing value: the
  /// next Load, parked if it hits.
  void Repoll();
  /// Credits the polls a parked spin has skipped so far.
  void SettleSpin();

  void BeginOp(TimeCat def) {
    GLB_CHECK(!op_pending_) << "overlapping operations on core " << id_;
    op_pending_ = true;
    op_cat_ = cat_stack_.empty() ? def : cat_stack_.back();
    op_start_ = engine_.Now();
    span_start_ = op_start_;
  }
  void EndOp() {
    GLB_CHECK(op_pending_) << "EndOp without BeginOp";
    op_pending_ = false;
    breakdown_[op_cat_] += engine_.Now() - op_start_;
    if (trace::Active() && engine_.Now() > span_start_) {
      // Per-tile compute-vs-barrier timeline. Ops are strictly
      // sequential per core (checked above), so plain spans suffice;
      // zero-length ops are skipped to keep traces small. A spin wait
      // is one span.
      trace::Sink().Complete(trace_track_, ToString(op_cat_), span_start_,
                             engine_.Now());
    }
  }

  sim::Engine& engine_;
  coherence::L1Controller& l1_;
  const CoreId id_;
  CoreId rank_;  // == id_ until a partition renumbers this core
  CoreConfig cfg_;
  BarrierDevice* barrier_dev_ = nullptr;
  ComputeFaultHook compute_fault_hook_;

  std::optional<Task> program_;
  std::function<void()> on_done_;
  bool done_ = false;
  Cycle started_at_ = 0;
  Cycle finished_at_ = 0;

  TimeBreakdown breakdown_;
  std::vector<TimeCat> cat_stack_;
  /// Cached trace track name ("core <id>/timeline"); built once so the
  /// enabled path does not rebuild it per event.
  std::string trace_track_;
  bool op_pending_ = false;
  TimeCat op_cat_ = TimeCat::kBusy;
  /// Start of the time not yet in breakdown_: the op's start, or in a
  /// spin the issue cycle of its latest poll.
  Cycle op_start_ = 0;
  /// Start of the op's trace span (the whole spin, in a spin wait).
  Cycle span_start_ = 0;

  Spin spin_;
  SpinSlot spin_slot_{*this};

  Counter* loads_ = nullptr;
  Counter* stores_ = nullptr;
  Counter* amos_ = nullptr;
  Counter* barriers_ = nullptr;
};

/// RAII re-labeling of memory-operation time, usable inside coroutines
/// (the scope object lives in the coroutine frame across suspensions).
class CategoryScope {
 public:
  CategoryScope(Core& core, TimeCat cat) : core_(core) { core_.PushCategory(cat); }
  ~CategoryScope() { core_.PopCategory(); }
  CategoryScope(const CategoryScope&) = delete;
  CategoryScope& operator=(const CategoryScope&) = delete;

 private:
  Core& core_;
};

}  // namespace glb::core
