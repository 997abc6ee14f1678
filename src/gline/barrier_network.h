// The G-line-based barrier network (the paper's contribution, §3): one
// Figure-1 network over a rows x cols mesh. It is the node type of the
// chip's one G-line device, gline::HierarchicalBarrierNetwork: the flat
// network (kGL) is that device with a single node spanning the mesh, and
// the §5 hierarchy (kGLH) chains one node per cluster. Cores never
// arrive here directly; every arrival enters through the device, which
// owns the injected core-freeze stall.
//
// Architecture (Figure 1), one whole-mesh barrier per network:
//   * every mesh row has two G-lines: SglineH (slaves -> master, arrival)
//     and MglineH (master -> slaves, release);
//   * the first column has two more: SglineV and MglineV;
//   * the node in column 0 of each row hosts a MasterH controller, all
//     other nodes host a SlaveH; nodes in column 0 of rows > 0 also host
//     a SlaveV, and node (0,0) hosts the MasterV.
// Total lines: 2 x (rows + 1) — the paper's 2x(sqrt(N)+1) for square
// meshes.
//
// Synchronization (Figure 2, all-arrived at cycle T):
//   T   : each arriving SlaveH asserts its row's SglineH; MasterH nodes
//         set Mcnt on their own core's bar_reg write.
//   T+1 : each MasterH has ScntH == row slave count and Mcnt == 1; it
//         raises `flag`, which its co-located SlaveV answers by
//         asserting SglineV (node 0's flag feeds MasterV directly).
//   T+2 : MasterV has ScntV == rows-1 and node-0 flag; the release
//         starts: MasterV asserts MglineV and resets its counters.
//   T+3 : column-0 nodes see MglineV: SlaveVs and MasterHs reset,
//         MasterHs assert MglineH and clear their own core's bar_reg.
//   T+4 : remaining nodes see MglineH; SlaveHs reset and clear bar_reg.
//
// The controllers below implement the Figure-4 automata literally
// (states Signaling/Waiting for slaves, Accounting/Waiting for masters),
// with every transition CHECK-guarded.
//
// Every core of the mesh takes part in every episode, so the expected
// S-CSMA counts are constants: cols-1 per row, rows-1 for MasterV. A
// barrier over a subset of cores is a separate network over that
// subset's rectangle (see cmp::PartitionManager).
//
// Stat, line and trace names keep a "ctx0" infix ("gl.ctx0.sglineH0",
// track "gl/ctx0") from when one network could carry several barriers,
// so stat dumps and traces stay comparable across versions.
//
// Resilience extension (off by default; see BarrierNetConfig, the one
// config every node of a device shares): the paper assumes perfect
// wires and a perfect S-CSMA count. With
// `watchdog_timeout` set, the network gains an episode watchdog that
// detects a stuck episode (lost assertion, miscount, frozen core),
// retries in hardware up to `max_retries` times (full controller reset +
// re-signal of every outstanding arrival — legal because arrivals are
// level-coded in bar_reg, not edge-coded on the wire), and finally
// trips a `degraded` flag that routes this and all later episodes
// through the one software fallback: the node counts arrivals in
// software and completes through the healthy gather's path. A node with
// a parent hands the batch to it and releases it in TriggerRelease; the
// root releases it kFallbackLatency cycles later (see gline/hierarchy.h).
// A release wave that is itself partially lost is re-driven directly:
// the gather had legitimately completed, so the releases are owed
// unconditionally. The invariant maintained under any fault plan:
// every episode completes (possibly degraded) and no core is released
// before all cores arrived.
//
// Self-healing v2 (both opt-in, defaults preserve v1 behavior bit-for-
// bit):
//   * Adaptive watchdog: with `watchdog_mult` > 0 the window tracks an
//     EWMA of observed episode spans —
//       window = clamp(mult * ewma, watchdog_timeout,
//                      kWatchdogCapFactor * watchdog_timeout)
//     — so DVFS stragglers and skewed partitions stretch the window
//     instead of tripping spurious degradation, while the floor keeps
//     real drops recovering as fast as v1.
//   * Hardware rejoin: with `probe_after` > 0 the degraded flag is no
//     longer sticky. Every `probe_after` fallback episodes the network
//     shadow-probes the idle hardware gather path: arrivals keep
//     completing through the fallback, but are also re-signaled through
//     the G-line automata; if the hardware count matches the core count
//     within one watchdog window the probe is clean. After
//     `probe_successes` consecutive clean probes the network rejoins
//     the hardware path. Its health walks
//       healthy -> retrying -> degraded -> probing -> rejoined
//     and the probe can never release a core (the fallback owns every
//     in-flight episode until the rejoin takes effect).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "core/barrier_device.h"
#include "gline/gline.h"
#include "sim/engine.h"

namespace glb::gline {

/// Cost of one degraded-mode episode at the root: the software fallback
/// releases the whole batch this many cycles after its last arrival.
/// A modelling choice: the cost does not grow with the core count, and
/// no paper figure or baseline runs degraded.
inline constexpr Cycle kFallbackLatency = 32;
/// Adaptive watchdog: EWMA weight of the newest episode span, and the
/// window ceiling as a multiple of the (level's) watchdog_timeout.
inline constexpr double kWatchdogAlpha = 0.25;
inline constexpr Cycle kWatchdogCapFactor = 64;

struct BarrierNetConfig {
  /// Transmitter budget per line (paper: six).
  std::uint32_t max_transmitters = 6;
  TxPolicy policy = TxPolicy::kRelaxed;
  /// Root of every stat/line/trace-track name this network registers
  /// ("gl" -> "gl.barriers_completed", "gl.ctx0.sglineH0", track
  /// "gl/ctx0"). A clustered device gives each node its own prefix
  /// ("glh.l1.c3") so per-network counters never alias in the shared
  /// StatSet.
  std::string stat_prefix = "gl";

  // --- resilience (0 = off: the network behaves exactly as the paper's
  // fault-free design, with no extra events, stats or state) ----------
  /// Episode watchdog: if an episode (first arrival to last release) has
  /// not finished this many cycles after it started, the network assumes
  /// a transient fault and recovers instead of hanging. Must comfortably
  /// exceed the worst-case arrival skew of the workload.
  Cycle watchdog_timeout = 0;
  /// Hardware retries (reset + re-signal) per episode before the network
  /// trips its sticky `degraded` flag and falls back to software.
  std::uint32_t max_retries = 2;

  // --- self-healing v2 (0 = v1 behavior, bit-for-bit) ----------------
  /// Adaptive watchdog: window = clamp(watchdog_mult * EWMA(episode
  /// span), watchdog_timeout, kWatchdogCapFactor * watchdog_timeout).
  /// 0 keeps the fixed window.
  double watchdog_mult = 0.0;
  /// Hardware rejoin: fallback episodes between shadow-probes of the
  /// degraded hardware path. 0 keeps the v1 sticky degradation.
  std::uint32_t probe_after = 0;
  /// Consecutive clean probes required before the network rejoins.
  std::uint32_t probe_successes = 2;

  bool resilient() const { return watchdog_timeout > 0; }
  bool adaptive() const { return resilient() && watchdog_mult > 0; }
  bool rejoin_enabled() const { return resilient() && probe_after > 0; }
};

class BarrierNetwork final : public core::BarrierDevice {
 public:
  // Figure-4 automaton states.
  enum class SlaveState : std::uint8_t { kSignaling, kWaiting };
  enum class MasterState : std::uint8_t { kAccounting, kWaiting };

  /// Self-healing state machine (v2). kRejoined behaves like kHealthy
  /// but records that the network recovered the hardware path after a
  /// degradation.
  enum class Health : std::uint8_t {
    kHealthy,
    kRetrying,
    kDegraded,
    kProbing,
    kRejoined,
  };

  BarrierNetwork(sim::Engine& engine, std::uint32_t rows, std::uint32_t cols,
                 const BarrierNetConfig& cfg, StatSet& stats);

  BarrierNetwork(const BarrierNetwork&) = delete;
  BarrierNetwork& operator=(const BarrierNetwork&) = delete;

  using core::BarrierDevice::Arrive;
  /// Core `core` (local id) wrote bar_reg := 1; `waiter` is released
  /// when the hardware clears the register.
  void Arrive(CoreId core, core::BarrierWaiter& waiter) override;

  /// Chains this network under `parent` as its core `slot`: when the
  /// gather completes (in hardware or, degraded, in software) the
  /// network arrives at the parent instead of starting its release
  /// wave, and holds until the parent releases that slot. This is how
  /// hierarchical (multi-level) G-line networks chain cluster networks
  /// under a top-level one (paper §5 future work).
  void SetParent(BarrierNetwork& parent, CoreId slot);

  /// Releases a completed gather held for the upper level: the batch a
  /// degraded node gathered in software, else the hardware release wave.
  void TriggerRelease();

  /// Installs `hook` on every G-line (S-CSMA count corruption / batch
  /// loss; see fault::FaultInjector). nullptr clears.
  void SetLineFaultHook(GLine::DeliverFaultHook hook);

  /// True while episodes complete through the software fallback (sticky
  /// unless cfg.probe_after re-enables rejoin).
  bool degraded() const { return degraded_; }
  /// Hardware recovery attempts within the current episode.
  std::uint32_t episode_retries() const { return retries_this_episode_; }
  /// Current position in the healthy -> retrying -> degraded ->
  /// probing -> rejoined state machine.
  Health health() const { return health_; }
  /// Hardware rejoins so far.
  std::uint64_t rejoins() const { return rejoin_count_; }
  /// Current adaptive-watchdog window (== cfg.watchdog_timeout until
  /// the EWMA is seeded, or always in fixed mode).
  Cycle WatchdogWindow() const;

  std::uint32_t num_cores() const { return rows_ * cols_; }
  const std::string& stat_prefix() const { return cfg_.stat_prefix; }
  /// Total G-lines deployed: 2*(rows+1).
  std::uint32_t total_lines() const { return 2 * (rows_ + 1); }
  std::uint64_t barriers_completed() const { return completed_->value(); }

  // --- FSM introspection for tests -----------------------------------
  MasterState MasterHState(std::uint32_t row) const { return mh_.at(row).state; }
  MasterState MasterVState() const { return mv_.state; }
  SlaveState SlaveHState(CoreId core) const { return sh_.at(core).state; }
  SlaveState SlaveVState(std::uint32_t row) const { return sv_.at(row).state; }
  std::uint32_t ScntH(std::uint32_t row) const { return mh_.at(row).scnt; }
  std::uint32_t ScntV() const { return mv_.scnt; }
  bool McntH(std::uint32_t row) const { return mh_.at(row).mcnt; }

 private:
  struct MasterH {
    MasterState state = MasterState::kAccounting;
    std::uint32_t scnt = 0;
    bool mcnt = false;
    bool flag = false;
  };
  struct SlaveH {
    SlaveState state = SlaveState::kSignaling;
  };
  struct SlaveV {
    SlaveState state = SlaveState::kSignaling;
  };
  struct MasterV {
    MasterState state = MasterState::kAccounting;
    std::uint32_t scnt = 0;
    bool node0_flag = false;
  };

  /// A resilience counter registered under two names, the "ctx0." one
  /// and the network-wide one; they always move together.
  struct CounterPair {
    Counter* ctx = nullptr;
    Counter* net = nullptr;
    void Inc() {
      ctx->Inc();
      net->Inc();
    }
  };

  CoreId NodeAt(std::uint32_t row, std::uint32_t col) const { return row * cols_ + col; }
  std::uint32_t RowOf(CoreId c) const { return c / cols_; }
  std::uint32_t ColOf(CoreId c) const { return c % cols_; }

  void BuildLines(const std::string& pfx);
  /// Counts a spurious or over-counted S-CSMA delivery.
  void RecordMiscount();
  bool resilient() const { return cfg_.resilient(); }
  /// Returns every controller to its initial Figure-4 state and
  /// discards in-flight line batches.
  void ResetControllers();
  /// Schedules a fresh watchdog window for the current episode.
  void ArmWatchdog();
  void OnWatchdog(std::uint64_t token);
  /// Folds a finished episode's span into the adaptive-window EWMA.
  void RecordEpisodeSpan(Cycle span);
  /// Starts a shadow-probe of the degraded hardware gather path at a
  /// fresh fallback-episode boundary.
  void StartProbe();
  /// Re-signals one fallback arrival through the (tolerant) hardware
  /// automata while a probe is active.
  void ProbeSignalArrival(CoreId core);
  void OnProbeTimeout(std::uint64_t token);
  void EndProbe(bool clean);
  /// Clears the degraded flag: the hardware path is trusted again.
  void Rejoin();
  /// A fault was detected (watchdog expiry or S-CSMA miscount): retry
  /// in hardware while the budget lasts, then degrade.
  void HandleEpisodeFault();
  /// An over-counted line completed the gather before every core
  /// arrived: count it and recover instead of releasing.
  void HandleEarlyCompletion(const char* what);
  /// Hardware retry of the gather: reset + re-signal every outstanding
  /// arrival through the (possibly still faulty) lines.
  void RecoverGather();
  /// A release wave was (partially) lost after a legitimate completion:
  /// re-deliver the releases still owed directly.
  void RecoverRelease();
  /// Trips the sticky degraded flag and moves the network — outstanding
  /// arrivals included — onto the software fallback.
  void Degrade();
  /// Degraded-mode gather: adds `core` to the software batch and, once
  /// every core is in, hands the batch to the parent (SetParent)
  /// or schedules its release (root).
  void GatherInSoftware(CoreId core);
  /// Completes a degraded episode: releases the software batch.
  void ReleaseSoftwareBatch();
  /// Episode fully over (every owed release delivered).
  void OnEpisodeFullyReleased();
  /// Re-evaluates the MasterH completion condition for a row.
  void CheckRowComplete(std::uint32_t row);
  void CheckVerticalComplete();
  void StartRelease();
  /// MglineV observed at a column-0 node.
  void ReleaseColumnNode(std::uint32_t row);
  /// MglineH observed at a non-master node.
  void ReleaseRowNode(CoreId core);
  void ReleaseCore(CoreId core);
  /// Emits the finished episode's phase spans (arrive / combine /
  /// release) as nested async events on the trace track.
  void EmitEpisodeTrace();

  sim::Engine& engine_;
  std::uint32_t rows_;
  std::uint32_t cols_;
  BarrierNetConfig cfg_;

  // --- Figure-4 controllers and lines ---------------------------------
  std::vector<MasterH> mh_;  // one per row
  std::vector<SlaveH> sh_;   // one per core (unused at col 0)
  std::vector<SlaveV> sv_;   // one per row (unused at row 0)
  MasterV mv_;
  // Lines are heap-allocated: in-flight Flush events capture the
  // GLine's `this`, so lines must never move (see GLine).
  std::vector<std::unique_ptr<GLine>> sgline_h_;  // per row: slaves -> master
  std::vector<std::unique_ptr<GLine>> mgline_h_;  // per row: master -> slaves
  std::unique_ptr<GLine> sgline_v_;               // column 0: slaves -> master
  std::unique_ptr<GLine> mgline_v_;               // column 0: master -> slaves
  /// Per core: the waiter of its outstanding arrival, else null.
  std::vector<core::BarrierWaiter*> waiters_;
  std::uint32_t arrived_ = 0;
  Cycle last_arrival_ = 0;
  Cycle first_arrival_ = 0;
  /// When set, completion arrives here as core `parent_slot_` with
  /// `up_` as its waiter, and the release wave waits (SetParent).
  struct UpWaiter : core::BarrierWaiter {
    BarrierNetwork* self = nullptr;
  };
  BarrierNetwork* parent_ = nullptr;
  CoreId parent_slot_ = 0;
  UpWaiter up_;
  bool release_pending_ = false;

  // --- resilience state (inert unless cfg.resilient()) ----------------
  /// Invalidates in-flight watchdog events (bumped when the episode
  /// fully completes, on recovery re-arm and on degrade).
  std::uint64_t watchdog_token_ = 0;
  std::uint32_t retries_this_episode_ = 0;
  /// Releases still owed after a release wave started; > 0 means the
  /// episode is in its release phase.
  std::uint32_t to_release_ = 0;
  bool release_inflight_ = false;
  /// Per-core membership of the in-flight release wave. A core with a
  /// waiter but no owed release already re-arrived for the NEXT
  /// episode; recovery must never release it.
  std::vector<bool> release_owed_;
  /// All episodes complete through the software fallback while set
  /// (sticky in v1; cleared by a successful rejoin in v2).
  bool degraded_ = false;
  /// First fault detection of the current episode (kCycleNever =
  /// healthy); recovery latency is measured from here to completion.
  Cycle recovering_since_ = kCycleNever;
  /// Degraded-mode software gather, in arrival order. A full batch stays
  /// here until it is released: while it waits at the parent or for
  /// kFallbackLatency, and also across a rejoin that lands meanwhile.
  std::vector<CoreId> fb_batch_;

  // --- v2: adaptive watchdog + rejoin ---------------------------------
  Health health_ = Health::kHealthy;
  /// EWMA of observed episode spans (0 = unseeded; cycles).
  double ewma_span_ = 0.0;
  /// When the network last degraded; rejoin latency runs from here.
  Cycle degraded_since_ = 0;
  /// Arrivals seen by the fallback in the current episode (episode-
  /// boundary heuristic for seeding first_arrival while degraded).
  std::uint32_t fb_arrived_ = 0;
  /// Fallback episodes completed since the last probe (or degrade).
  std::uint32_t fb_episodes_since_probe_ = 0;
  /// A shadow-probe of the hardware gather path is in flight.
  bool probe_active_ = false;
  /// Arrivals re-signaled through the hardware during this probe.
  std::uint32_t probe_arrived_ = 0;
  /// Consecutive clean probes so far.
  std::uint32_t probe_streak_ = 0;
  /// Invalidates in-flight probe-timeout events.
  std::uint64_t probe_token_ = 0;
  std::uint64_t rejoin_count_ = 0;
  bool ever_rejoined_ = false;

  // --- tracing (only mutated under trace::Active(); the release-wave
  // snapshot is taken in StartRelease because the live gather fields
  // reset there while the wave is still in flight) --------------------
  struct EpisodeTrace {
    std::string track;  // "<stat_prefix>/ctx0", built once at construction
    /// Release-wave snapshot; valid while `releasing`.
    bool releasing = false;
    Cycle ep_first_arrival = 0;
    Cycle ep_last_arrival = 0;
    Cycle first_release = kCycleNever;
    std::uint32_t outstanding = 0;
    std::uint32_t arrivals = 0;
    std::uint32_t retries = 0;
    /// Degraded episodes span first fallback arrival -> last fallback
    /// release (approximate if arrivals for the next episode overlap
    /// the drain; see docs/OBSERVABILITY.md).
    bool deg_active = false;
    Cycle deg_first = 0;
  } trace_;

  Counter* completed_ = nullptr;
  Counter* signals_ = nullptr;
  Histogram* release_latency_ = nullptr;
  Histogram* episode_span_ = nullptr;
  // Resilience stats (created only in resilient mode; probe/rejoin
  // stats additionally need rejoin to be enabled).
  CounterPair timeouts_;
  CounterPair retries_;
  CounterPair miscounts_;
  CounterPair degraded_episodes_;
  Histogram* recovery_latency_ = nullptr;
  CounterPair probes_;
  CounterPair probe_failures_;
  CounterPair rejoins_;
  Histogram* rejoin_latency_ = nullptr;
};

const char* ToString(BarrierNetwork::Health health);

}  // namespace glb::gline
