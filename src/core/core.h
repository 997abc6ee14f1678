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

  struct GlBarrierAwaiter {
    Core& core;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      GLB_CHECK(core.barrier_dev_ != nullptr)
          << "GlBarrier() without a barrier device on core " << core.id_;
      core.BeginOp(TimeCat::kBarrier);
      core.NoteBarrier();
      // `mov 1, bar_reg` reaches the controllers after the notify
      // overhead; the release is observed after the resume overhead.
      core.engine_.ScheduleIn(core.cfg_.gl_notify_overhead, [this, h]() {
        core.barrier_dev_->Arrive(core.id_, [this, h]() {
          core.engine_.ScheduleIn(core.cfg_.gl_resume_overhead, [this, h]() {
            core.EndOp();
            // Post-release coroutine body is workload code (host profiler).
            prof::Scope prof_scope(prof::Cat::kWorkload);
            h.resume();
          });
        });
      });
    }
    void await_resume() const noexcept {}
  };

  /// Generic suspension: `arm(resume)` is called at suspension time and
  /// must eventually invoke `resume` exactly once (from an engine
  /// event). Latency is attributed to `cat` (subject to CategoryScope
  /// overrides). This is how devices other than the cache hierarchy —
  /// e.g. memory-mapped barrier units — block a core.
  struct WaitForAwaiter {
    Core& core;
    std::function<void(std::function<void()>)> arm;
    TimeCat cat;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      core.BeginOp(cat);
      arm([this, h]() {
        core.EndOp();
        // The resumed coroutine body is workload code until its next
        // suspension point (host profiler; docs/OBSERVABILITY.md).
        prof::Scope prof_scope(prof::Cat::kWorkload);
        h.resume();
      });
    }
    void await_resume() const noexcept {}
  };

  [[nodiscard]] WaitForAwaiter WaitFor(std::function<void(std::function<void()>)> arm,
                                       TimeCat cat = TimeCat::kBusy) {
    return WaitForAwaiter{*this, std::move(arm), cat};
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
  [[nodiscard]] GlBarrierAwaiter GlBarrier() { return GlBarrierAwaiter{*this}; }

 private:
  friend struct LoadAwaiter;

  void BeginOp(TimeCat def) {
    GLB_CHECK(!op_pending_) << "overlapping operations on core " << id_;
    op_pending_ = true;
    op_cat_ = cat_stack_.empty() ? def : cat_stack_.back();
    op_start_ = engine_.Now();
  }
  void EndOp() {
    GLB_CHECK(op_pending_) << "EndOp without BeginOp";
    op_pending_ = false;
    breakdown_[op_cat_] += engine_.Now() - op_start_;
    if (trace::Active() && engine_.Now() > op_start_) {
      // Per-tile compute-vs-barrier timeline. Ops are strictly
      // sequential per core (checked above), so plain spans suffice;
      // zero-length ops are skipped to keep traces small.
      trace::Sink().Complete(trace_track_, ToString(op_cat_), op_start_,
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
  Cycle op_start_ = 0;

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
