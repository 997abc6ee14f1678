#include "gline/barrier_network.h"

#include <string>
#include <utility>

#include "common/check.h"
#include "common/log.h"
#include "common/prof.h"
#include "trace/trace.h"

namespace glb::gline {

BarrierNetwork::BarrierNetwork(sim::Engine& engine, std::uint32_t rows,
                               std::uint32_t cols, const BarrierNetConfig& cfg,
                               StatSet& stats)
    : engine_(engine), rows_(rows), cols_(cols), cfg_(cfg) {
  GLB_CHECK(rows > 0 && cols > 0) << "empty mesh";
  GLB_CHECK(!cfg.stat_prefix.empty()) << "empty stat prefix";
  const std::string& pfx = cfg_.stat_prefix;
  completed_ = stats.GetCounter(pfx + ".barriers_completed");
  signals_ = stats.GetCounter(pfx + ".signals");
  release_latency_ = stats.GetHistogram(pfx + ".release_latency");
  episode_span_ = stats.GetHistogram(pfx + ".episode_span");
  const std::string ctx_pfx = pfx + ".ctx0.";
  auto pair = [&](const std::string& name) {
    return CounterPair{stats.GetCounter(ctx_pfx + name),
                       stats.GetCounter(pfx + "." + name)};
  };
  if (cfg.resilient()) {
    timeouts_ = pair("timeouts");
    retries_ = pair("retries");
    miscounts_ = pair("miscounts");
    degraded_episodes_ = pair("degraded_episodes");
    recovery_latency_ = stats.GetHistogram(ctx_pfx + "recovery_latency");
  }
  if (cfg.rejoin_enabled()) {
    probes_ = pair("probes");
    probe_failures_ = pair("probe_failures");
    rejoins_ = pair("rejoins");
    rejoin_latency_ = stats.GetHistogram(ctx_pfx + "rejoin_latency");
  }

  mh_.resize(rows_);
  sh_.resize(num_cores());
  sv_.resize(rows_);
  waiters_.assign(num_cores(), nullptr);
  up_.self = this;
  up_.run = [](sim::Engine::Member& m) { static_cast<UpWaiter&>(m).self->TriggerRelease(); };
  release_owed_.assign(num_cores(), false);
  trace_.track = pfx + "/ctx0";
  BuildLines(ctx_pfx);
}

void BarrierNetwork::BuildLines(const std::string& pfx) {
  sgline_h_.reserve(rows_);
  mgline_h_.reserve(rows_);
  for (std::uint32_t row = 0; row < rows_; ++row) {
    // Arrival line: cols-1 slave transmitters, master receives counts.
    sgline_h_.push_back(std::make_unique<GLine>(
        engine_, pfx + "sglineH" + std::to_string(row), cols_ - 1,
        cfg_.max_transmitters, cfg_.policy, signals_));
    sgline_h_.back()->AddReceiver([this, row](std::uint32_t count) {
      // Stale wave from before the fallback took over — unless a
      // shadow-probe is deliberately exercising the gather path.
      if (degraded_ && !probe_active_) return;
      MasterH& mh = mh_[row];
      if (mh.state != MasterState::kAccounting) {
        GLB_CHECK(resilient())
            << "SglineH signal outside Accounting (row " << row << ")";
        RecordMiscount();
        return;  // spurious/late signal; the watchdog owns recovery
      }
      mh.scnt += count;
      if (mh.scnt > cols_ - 1) {
        GLB_CHECK(resilient()) << "ScntH overflow in row " << row;
        RecordMiscount();
        // Clamp: if the over-count completes the gather early, the
        // release guard in StartRelease detects it and recovers.
        mh.scnt = cols_ - 1;
      }
      CheckRowComplete(row);
    });
    // Release line: one master transmitter, every slave node listens.
    mgline_h_.push_back(std::make_unique<GLine>(
        engine_, pfx + "mglineH" + std::to_string(row), 1, cfg_.max_transmitters,
        cfg_.policy, signals_));
    for (std::uint32_t col = 1; col < cols_; ++col) {
      const CoreId node = NodeAt(row, col);
      mgline_h_.back()->AddReceiver([this, node](std::uint32_t) { ReleaseRowNode(node); });
    }
  }

  sgline_v_ = std::make_unique<GLine>(engine_, pfx + "sglineV", rows_ - 1,
                                      cfg_.max_transmitters, cfg_.policy, signals_);
  sgline_v_->AddReceiver([this](std::uint32_t count) {
    if (degraded_ && !probe_active_) return;
    if (mv_.state != MasterState::kAccounting) {
      GLB_CHECK(resilient()) << "SglineV signal outside Accounting";
      RecordMiscount();
      return;
    }
    mv_.scnt += count;
    if (mv_.scnt > rows_ - 1) {
      GLB_CHECK(resilient()) << "ScntV overflow";
      RecordMiscount();
      mv_.scnt = rows_ - 1;
    }
    CheckVerticalComplete();
  });

  mgline_v_ = std::make_unique<GLine>(engine_, pfx + "mglineV", 1,
                                      cfg_.max_transmitters, cfg_.policy, signals_);
  for (std::uint32_t row = 0; row < rows_; ++row) {
    mgline_v_->AddReceiver([this, row](std::uint32_t) { ReleaseColumnNode(row); });
  }
}

void BarrierNetwork::RecordMiscount() {
  miscounts_.Inc();
  GLB_TRACE_EVENT(trace::Sink().Instant(trace_.track, "miscount", engine_.Now()));
}

void BarrierNetwork::ResetControllers() {
  for (auto& mh : mh_) mh = MasterH{};
  for (auto& sh : sh_) sh = SlaveH{};
  for (auto& sv : sv_) sv = SlaveV{};
  mv_ = MasterV{};
  for (auto& l : sgline_h_) l->CancelPending();
  for (auto& l : mgline_h_) l->CancelPending();
  sgline_v_->CancelPending();
  mgline_v_->CancelPending();
}

// ---------------------------------------------------------------------------
// Fault hook
// ---------------------------------------------------------------------------

void BarrierNetwork::SetLineFaultHook(GLine::DeliverFaultHook hook) {
  for (auto& l : sgline_h_) l->SetDeliverFaultHook(hook);
  for (auto& l : mgline_h_) l->SetDeliverFaultHook(hook);
  sgline_v_->SetDeliverFaultHook(hook);
  mgline_v_->SetDeliverFaultHook(hook);
}

// ---------------------------------------------------------------------------
// Arrival / gather phase
// ---------------------------------------------------------------------------

void BarrierNetwork::Arrive(CoreId core, core::BarrierWaiter& waiter) {
  prof::Scope prof_scope(prof::Cat::kBarrier);
  GLB_CHECK(core < num_cores()) << "bad core id " << core;
  GLB_CHECK(waiters_[core] == nullptr)
      << "core " << core << " arrived twice at the same barrier";

  if (degraded_) {
    if (cfg_.rejoin_enabled() && !probe_active_ &&
        fb_episodes_since_probe_ >= cfg_.probe_after) {
      // Probe only from a fresh episode boundary: an empty software batch
      // means no arrival of this episode predates the probe, so the
      // hardware count can reach the full core count.
      if (fb_batch_.empty()) StartProbe();
    }
    waiters_[core] = &waiter;
    if (fb_arrived_++ == 0) first_arrival_ = engine_.Now();
    GLB_TRACE(engine_.Now(), "gl",
              "core " << core << " arrives (degraded, via fallback)");
    if (trace::Active() && !trace_.deg_active) {
      trace_.deg_active = true;
      trace_.deg_first = engine_.Now();
    }
    if (probe_active_) ProbeSignalArrival(core);
    GatherInSoftware(core);
    return;
  }

  waiters_[core] = &waiter;
  if (++arrived_ == 1) {
    first_arrival_ = engine_.Now();
    // The previous episode's watchdog stays responsible while its
    // release wave is still in flight; the fresh window is armed in
    // OnEpisodeFullyReleased.
    if (resilient() && !release_inflight_) ArmWatchdog();
  }
  last_arrival_ = engine_.Now();
  GLB_TRACE(engine_.Now(), "gl",
            "core " << core << " arrives (" << arrived_ << "/" << num_cores() << ")");

  const std::uint32_t row = RowOf(core);
  if (ColOf(core) == 0) {
    MasterH& mh = mh_[row];
    GLB_CHECK(mh.state == MasterState::kAccounting && !mh.mcnt)
        << "master-node arrival in a bad state (row " << row << ")";
    mh.mcnt = true;  // [Core(bar_reg=1)] / [Mcnt=1]
    CheckRowComplete(row);
  } else {
    SlaveH& sh = sh_[core];
    GLB_CHECK(sh.state == SlaveState::kSignaling)
        << "slave arrival while Waiting (core " << core << ")";
    sgline_h_[row]->Assert();  // [Core(bar_reg=1)] / [SglineH=ON]
    sh.state = SlaveState::kWaiting;
  }
}

void BarrierNetwork::CheckRowComplete(std::uint32_t row) {
  if (degraded_ && !probe_active_) return;
  MasterH& mh = mh_[row];
  if (mh.state != MasterState::kAccounting) return;
  if (!mh.mcnt || mh.scnt != cols_ - 1) return;
  // [Mcnt=1 & Scnt=Max] / [MasterH(flag=1)]
  mh.flag = true;
  mh.state = MasterState::kWaiting;
  if (row == 0) {
    mv_.node0_flag = true;  // MasterV sees MasterH(flag=1) directly
    CheckVerticalComplete();
  } else {
    SlaveV& sv = sv_[row];
    GLB_CHECK(sv.state == SlaveState::kSignaling) << "SlaveV already Waiting";
    sgline_v_->Assert();  // [MasterH(flag=1)] / [SglineV=ON]
    sv.state = SlaveState::kWaiting;
  }
}

void BarrierNetwork::CheckVerticalComplete() {
  if (mv_.state != MasterState::kAccounting) return;
  if (degraded_) {
    if (!probe_active_) return;
    // Shadow-probe completion: the hardware gather finished. It is
    // clean iff its count matches every core — and it must be
    // intercepted HERE, before the parent arrival or release wave,
    // because the fallback owns every in-flight episode.
    if (!mv_.node0_flag || mv_.scnt != rows_ - 1) return;
    EndProbe(probe_arrived_ == num_cores());
    return;
  }
  if (!mv_.node0_flag || mv_.scnt != rows_ - 1) return;
  if (resilient() && parent_ != nullptr && arrived_ != num_cores()) {
    // With a parent an early completion would propagate to an upper
    // hierarchy level and release OTHER clusters early, so it must be
    // stopped here, not in StartRelease.
    HandleEarlyCompletion("early hooked completion");
    return;
  }
  mv_.state = MasterState::kWaiting;
  if (parent_ != nullptr) {
    // Hierarchy: hold the release until the upper level says go.
    release_pending_ = true;
    parent_->Arrive(parent_slot_, up_);
    return;
  }
  StartRelease();
}

void BarrierNetwork::HandleEarlyCompletion(const char* what) {
  if (recovering_since_ == kCycleNever) recovering_since_ = engine_.Now();
  GLB_TRACE(engine_.Now(), "gl",
            what << " detected (" << arrived_ << "/" << num_cores()
                 << " arrived); recovering");
  RecordMiscount();
  HandleEpisodeFault();
}

void BarrierNetwork::SetParent(BarrierNetwork& parent, CoreId slot) {
  GLB_CHECK(!release_pending_) << "parent changed while release pending";
  GLB_CHECK(slot < parent.num_cores()) << "bad parent slot " << slot;
  parent_ = &parent;
  parent_slot_ = slot;
}

void BarrierNetwork::TriggerRelease() {
  GLB_CHECK(release_pending_) << "TriggerRelease without a deferred completion";
  release_pending_ = false;
  // The held batch decides, not degraded_: a clean probe can rejoin the
  // node while its software batch still waits at the parent.
  if (!fb_batch_.empty()) {
    ReleaseSoftwareBatch();
    return;
  }
  StartRelease();
}

// ---------------------------------------------------------------------------
// Release phase
// ---------------------------------------------------------------------------

void BarrierNetwork::StartRelease() {
  prof::Scope prof_scope(prof::Cat::kBarrier);
  if (resilient() && arrived_ != num_cores()) {
    // An over-counted line completed the gather before every core
    // arrived. The wave must not start — no core may be released early.
    HandleEarlyCompletion("early completion");
    return;
  }
  GLB_CHECK(arrived_ == num_cores())
      << "release with missing arrivals: " << arrived_ << "/" << num_cores();
  completed_->Inc();
  episode_span_->Record(engine_.Now() - first_arrival_);
  RecordEpisodeSpan(engine_.Now() - first_arrival_);
  GLB_TRACE(engine_.Now(), "gl", "release starts");
  if (trace::Active()) {
    // Snapshot the wave for EmitEpisodeTrace: the live gather fields
    // reset below while releases are still in flight.
    trace_.releasing = true;
    trace_.ep_first_arrival = first_arrival_;
    trace_.ep_last_arrival = last_arrival_;
    trace_.first_release = kCycleNever;
    trace_.outstanding = arrived_;
    trace_.arrivals = arrived_;
    trace_.retries = retries_this_episode_;
  }

  if (resilient()) {
    to_release_ = arrived_;
    release_inflight_ = true;
    // Snapshot the wave membership: exactly these cores are owed a
    // release. Cores re-arriving for the next episode while this wave
    // is still in flight must not be confused with them.
    for (CoreId core = 0; core < num_cores(); ++core) {
      release_owed_[core] = waiters_[core] != nullptr;
    }
  }
  // [Scnt=Max & MasterH(flag=1)] / [MglineV=ON], and MasterV resets.
  mv_ = MasterV{};
  arrived_ = 0;
  mgline_v_->Assert();
}

void BarrierNetwork::ReleaseColumnNode(std::uint32_t row) {
  if (degraded_) return;
  if (row > 0) {
    SlaveV& sv = sv_[row];
    if (sv.state != SlaveState::kWaiting) {
      GLB_CHECK(resilient()) << "MglineV to a Signaling SlaveV";
    }
    sv.state = SlaveState::kSignaling;  // [MglineV=ON] / back to Signaling
  }
  MasterH& mh = mh_[row];
  if (mh.state != MasterState::kWaiting) {
    GLB_CHECK(resilient()) << "release to an Accounting MasterH";
    return;  // spurious (duplicated) release signal; already re-armed
  }
  mh = MasterH{};
  mgline_h_[row]->Assert();  // [flag=0] / [MglineH=ON]
  ReleaseCore(NodeAt(row, 0));
}

void BarrierNetwork::ReleaseRowNode(CoreId core) {
  if (degraded_) return;
  SlaveH& sh = sh_[core];
  if (sh.state != SlaveState::kWaiting) {
    GLB_CHECK(resilient()) << "MglineH to a Signaling SlaveH (core " << core << ")";
    return;  // spurious release signal; this core was already released
  }
  sh.state = SlaveState::kSignaling;  // [MglineH=ON] / [bar_reg=0]
  ReleaseCore(core);
}

void BarrierNetwork::ReleaseCore(CoreId core) {
  if (waiters_[core] == nullptr) {
    GLB_CHECK(resilient()) << "releasing core " << core << " which never arrived";
    return;  // duplicated release signal; the core already left
  }
  if (resilient() && !release_owed_[core]) {
    // The waiter belongs to the core's NEXT episode: it re-arrived
    // while this wave was still in flight. Not ours to release.
    return;
  }
  release_latency_->Record(engine_.Now() - last_arrival_);
  if (trace::Active() && trace_.releasing) {
    if (trace_.first_release == kCycleNever) trace_.first_release = engine_.Now();
    if (--trace_.outstanding == 0) EmitEpisodeTrace();
  }
  core::BarrierWaiter* w = std::exchange(waiters_[core], nullptr);
  if (resilient()) {
    release_owed_[core] = false;
    GLB_CHECK(to_release_ > 0) << "release accounting underflow";
    if (--to_release_ == 0) OnEpisodeFullyReleased();
  }
  w->Release();
}

void BarrierNetwork::EmitEpisodeTrace() {
  auto& t = trace_;
  t.releasing = false;
  const Cycle last_release = engine_.Now();
  auto& sink = trace::Sink();
  // Async nestable events (one id per episode): consecutive episodes
  // may overlap — the first cores released re-arrive while the release
  // wave still drains — so plain "X" spans would nest badly.
  const std::uint64_t id = sink.NextId();
  sink.AsyncBegin(t.track, "episode", id, t.ep_first_arrival,
                  trace::Args()
                      .Add("n", num_cores())
                      .Add("retries", t.retries)
                      .Add("degraded", false)
                      .json());
  sink.AsyncBegin(t.track, "arrive", id, t.ep_first_arrival);
  sink.AsyncEnd(t.track, "arrive", id, t.ep_last_arrival);
  sink.AsyncBegin(t.track, "combine", id, t.ep_last_arrival);
  sink.AsyncEnd(t.track, "combine", id, t.first_release);
  sink.AsyncBegin(t.track, "release", id, t.first_release);
  sink.AsyncEnd(t.track, "release", id, last_release);
  sink.AsyncEnd(t.track, "episode", id, last_release);
}

// ---------------------------------------------------------------------------
// Resilience: watchdog, retry, degraded mode
// ---------------------------------------------------------------------------

Cycle BarrierNetwork::WatchdogWindow() const {
  if (!cfg_.adaptive() || ewma_span_ <= 0.0) return cfg_.watchdog_timeout;
  const Cycle cap = kWatchdogCapFactor * cfg_.watchdog_timeout;
  const double w = cfg_.watchdog_mult * ewma_span_;
  if (w <= static_cast<double>(cfg_.watchdog_timeout)) return cfg_.watchdog_timeout;
  if (w >= static_cast<double>(cap)) return cap;
  return static_cast<Cycle>(w);
}

void BarrierNetwork::RecordEpisodeSpan(Cycle span) {
  if (!cfg_.adaptive()) return;
  const double s = static_cast<double>(span);
  ewma_span_ = ewma_span_ == 0.0
                   ? s
                   : (1.0 - kWatchdogAlpha) * ewma_span_ + kWatchdogAlpha * s;
}

void BarrierNetwork::ArmWatchdog() {
  if (!resilient() || degraded_) return;
  const std::uint64_t token = ++watchdog_token_;
  engine_.ScheduleIn(WatchdogWindow(), [this, token]() { OnWatchdog(token); });
}

void BarrierNetwork::OnWatchdog(std::uint64_t token) {
  prof::Scope prof_scope(prof::Cat::kBarrier);
  if (degraded_ || token != watchdog_token_) return;  // episode finished
  timeouts_.Inc();
  if (recovering_since_ == kCycleNever) recovering_since_ = engine_.Now();
  GLB_TRACE(engine_.Now(), "gl",
            "BarrierTimeout: episode stuck (" << arrived_ << "/" << num_cores()
                                              << " arrived, " << to_release_
                                              << " releases owed)");
  GLB_TRACE_EVENT(trace::Sink().Instant(trace_.track, "BarrierTimeout", engine_.Now(),
                                        trace::Args()
                                            .Add("arrived", arrived_)
                                            .Add("expected", num_cores())
                                            .Add("releases_owed", to_release_)
                                            .json()));
  HandleEpisodeFault();
}

void BarrierNetwork::HandleEpisodeFault() {
  if (release_pending_) {
    // Completion is deferred to an upper hierarchy level; progress is
    // theirs to make. Keep watching.
    ArmWatchdog();
    return;
  }
  if (release_inflight_) {
    // The gather legitimately completed, so the releases are owed
    // unconditionally; a (partially) lost wave is re-driven directly.
    retries_.Inc();
    RecoverRelease();
    return;
  }
  if (retries_this_episode_ < cfg_.max_retries) {
    ++retries_this_episode_;
    retries_.Inc();
    health_ = Health::kRetrying;
    RecoverGather();
    ArmWatchdog();
  } else {
    Degrade();
  }
}

void BarrierNetwork::RecoverGather() {
  GLB_TRACE(engine_.Now(), "gl",
            "hardware retry " << retries_this_episode_ << "/" << cfg_.max_retries
                              << " (" << arrived_ << " arrivals held)");
  GLB_TRACE_EVENT(trace::Sink().Instant(trace_.track, "retry", engine_.Now(),
                                        trace::Args()
                                            .Add("attempt", retries_this_episode_)
                                            .Add("max", cfg_.max_retries)
                                            .json()));
  // Hardware reset: every controller to its initial state, every
  // in-flight batch discarded.
  ResetControllers();
  // Re-signal the held arrivals. bar_reg is level-coded in each core, so
  // the controllers can re-read it; the re-asserted batches run through
  // the fault hooks again — a persistent fault keeps the watchdog busy
  // until the retry budget runs out.
  for (CoreId core = 0; core < num_cores(); ++core) {
    if (waiters_[core] == nullptr) continue;
    const std::uint32_t row = RowOf(core);
    if (ColOf(core) == 0) {
      mh_[row].mcnt = true;
    } else {
      sgline_h_[row]->Assert();
      sh_[core].state = SlaveState::kWaiting;
    }
  }
  // Rows whose condition is already satisfied (master-only rows)
  // complete now; the rest complete as counts land.
  for (std::uint32_t row = 0; row < rows_; ++row) CheckRowComplete(row);
}

void BarrierNetwork::RecoverRelease() {
  GLB_TRACE(engine_.Now(), "gl",
            "re-driving lost release wave (" << to_release_ << " owed)");
  GLB_TRACE_EVENT(trace::Sink().Instant(trace_.track, "release-redrive", engine_.Now(),
                                        trace::Args().Add("owed", to_release_).json()));
  for (std::uint32_t row = 0; row < rows_; ++row) {
    // Only cores from the wave's membership snapshot are owed; a core
    // with a fresh waiter but no owed release already re-arrived for
    // the next episode and must be left gathering.
    bool row_stuck = false;
    for (std::uint32_t col = 0; col < cols_; ++col) {
      if (release_owed_[NodeAt(row, col)]) row_stuck = true;
    }
    if (!row_stuck) continue;
    for (std::uint32_t col = 0; col < cols_; ++col) {
      const CoreId core = NodeAt(row, col);
      if (!release_owed_[core]) continue;
      if (col > 0) sh_[core].state = SlaveState::kSignaling;
      ReleaseCore(core);
    }
    // Rebuild the row's gather state from current truth. Everything the
    // old episode left behind is residue — including a mid-gather
    // Accounting state when a corrupted vertical count started the wave
    // before this row completed. The row's slaves were all owed (a row
    // releases its slaves atomically or not at all), so after releasing
    // them the only legitimate row state is: no counts, and Mcnt iff
    // the master core already re-arrived for the next episode.
    mh_[row] = MasterH{.mcnt = waiters_[NodeAt(row, 0)] != nullptr};
    if (row > 0) sv_[row].state = SlaveState::kSignaling;
    sgline_h_[row]->CancelPending();
    CheckRowComplete(row);
  }
  // Whatever survives of the lost wave must not fire later.
  for (auto& l : mgline_h_) l->CancelPending();
  mgline_v_->CancelPending();
}

void BarrierNetwork::Degrade() {
  GLB_TRACE(engine_.Now(), "gl", "retries exhausted; degrading to software fallback");
  GLB_TRACE_EVENT(trace::Sink().Instant(trace_.track, "degraded", engine_.Now()));
  if (trace::Active() && !trace_.deg_active && arrived_ > 0) {
    // The stranded gather becomes the first degraded episode; keep its
    // true start so the span covers the whole (slow) episode.
    trace_.deg_active = true;
    trace_.deg_first = first_arrival_;
  }
  degraded_ = true;
  health_ = Health::kDegraded;
  degraded_since_ = engine_.Now();
  fb_arrived_ = 0;
  fb_episodes_since_probe_ = 0;
  probe_streak_ = 0;
  ++watchdog_token_;  // no more watchdogs while degraded
  ResetControllers();
  release_pending_ = false;
  arrived_ = 0;
  release_inflight_ = false;
  to_release_ = 0;
  release_owed_.assign(num_cores(), false);
  // Hand the stranded arrivals to the fallback; late arrivals follow
  // through Arrive's degraded path.
  for (CoreId core = 0; core < num_cores(); ++core) {
    if (waiters_[core] != nullptr) GatherInSoftware(core);
  }
}

void BarrierNetwork::GatherInSoftware(CoreId core) {
  fb_batch_.push_back(core);
  if (fb_batch_.size() < num_cores()) return;
  if (parent_ != nullptr) {
    // The same hand-off as a healthy gather: the parent's release
    // reaches TriggerRelease, which releases this batch.
    release_pending_ = true;
    parent_->Arrive(parent_slot_, up_);
    return;
  }
  // Root: one software-barrier episode, modelled as a flat latency.
  engine_.ScheduleIn(kFallbackLatency, [this]() { ReleaseSoftwareBatch(); });
}

void BarrierNetwork::ReleaseSoftwareBatch() {
  // Detach the batch first: a released core may re-arrive at once.
  std::vector<CoreId> batch;
  batch.swap(fb_batch_);
  fb_arrived_ = 0;
  ++fb_episodes_since_probe_;
  RecordEpisodeSpan(engine_.Now() - first_arrival_);
  completed_->Inc();
  degraded_episodes_.Inc();
  if (recovering_since_ != kCycleNever) {
    recovery_latency_->Record(engine_.Now() - recovering_since_);
    recovering_since_ = kCycleNever;
  }
  if (trace::Active() && trace_.deg_active) {
    trace_.deg_active = false;
    auto& sink = trace::Sink();
    const std::uint64_t id = sink.NextId();
    sink.AsyncBegin(trace_.track, "episode", id, trace_.deg_first,
                    trace::Args().Add("n", num_cores()).Add("degraded", true).json());
    sink.AsyncEnd(trace_.track, "episode", id, engine_.Now());
  }
  for (const CoreId core : batch) std::exchange(waiters_[core], nullptr)->Release();
}

void BarrierNetwork::OnEpisodeFullyReleased() {
  release_inflight_ = false;
  retries_this_episode_ = 0;
  if (health_ == Health::kRetrying) {
    health_ = ever_rejoined_ ? Health::kRejoined : Health::kHealthy;
  }
  ++watchdog_token_;  // the episode's watchdog is obsolete
  if (recovering_since_ != kCycleNever) {
    recovery_latency_->Record(engine_.Now() - recovering_since_);
    recovering_since_ = kCycleNever;
  }
  // Cores released early in the wave may already be gathering again;
  // give the young episode its own watchdog window.
  if (arrived_ > 0) ArmWatchdog();
}

// ---------------------------------------------------------------------------
// Rejoin: shadow-probing the degraded hardware path
// ---------------------------------------------------------------------------

void BarrierNetwork::StartProbe() {
  probe_active_ = true;
  probe_arrived_ = 0;
  health_ = Health::kProbing;
  probes_.Inc();
  // Clean slate for the automata: whatever residue the degradation (or
  // the previous probe) left behind must not leak into this count.
  ResetControllers();
  GLB_TRACE(engine_.Now(), "gl",
            "shadow-probing the hardware path (streak " << probe_streak_ << "/"
                                                        << cfg_.probe_successes << ")");
  GLB_TRACE_EVENT(trace::Sink().Instant(trace_.track, "probe", engine_.Now(),
                                        trace::Args()
                                            .Add("streak", probe_streak_)
                                            .Add("needed", cfg_.probe_successes)
                                            .json()));
  const std::uint64_t token = ++probe_token_;
  engine_.ScheduleIn(WatchdogWindow(), [this, token]() { OnProbeTimeout(token); });
}

void BarrierNetwork::ProbeSignalArrival(CoreId core) {
  ++probe_arrived_;
  // Tolerant re-implementation of the gather arrival: a fault-corrupted
  // automaton state aborts the signal instead of CHECK-failing — the
  // probe then simply times out and counts as dirty.
  const std::uint32_t row = RowOf(core);
  if (ColOf(core) == 0) {
    MasterH& mh = mh_[row];
    if (mh.state == MasterState::kAccounting && !mh.mcnt) {
      mh.mcnt = true;
      CheckRowComplete(row);
    }
  } else {
    SlaveH& sh = sh_[core];
    if (sh.state == SlaveState::kSignaling) {
      sgline_h_[row]->Assert();
      sh.state = SlaveState::kWaiting;
    }
  }
}

void BarrierNetwork::OnProbeTimeout(std::uint64_t token) {
  if (!probe_active_ || token != probe_token_) return;
  EndProbe(false);
}

void BarrierNetwork::EndProbe(bool clean) {
  probe_active_ = false;
  ++probe_token_;  // cancel the pending timeout
  ResetControllers();
  fb_episodes_since_probe_ = 0;  // full window before the next probe
  if (!clean) {
    probe_streak_ = 0;
    health_ = Health::kDegraded;
    probe_failures_.Inc();
    GLB_TRACE(engine_.Now(), "gl", "probe failed; hardware stays distrusted");
    GLB_TRACE_EVENT(trace::Sink().Instant(trace_.track, "probe-fail", engine_.Now()));
    return;
  }
  ++probe_streak_;
  GLB_TRACE(engine_.Now(), "gl",
            "probe clean (" << probe_streak_ << "/" << cfg_.probe_successes << ")");
  GLB_TRACE_EVENT(trace::Sink().Instant(trace_.track, "probe-ok", engine_.Now()));
  if (probe_streak_ >= cfg_.probe_successes) {
    Rejoin();
  } else {
    health_ = Health::kDegraded;
  }
}

void BarrierNetwork::Rejoin() {
  // Safe to flip mid-drain: every arrival of the probed episode is
  // already with the fallback, which will release it; a core re-arrives
  // only after consuming its own release callback, so post-rejoin
  // arrivals land on the (now clean) hardware path with no overlap.
  degraded_ = false;
  health_ = Health::kRejoined;
  ever_rejoined_ = true;
  probe_streak_ = 0;
  ++rejoin_count_;
  rejoins_.Inc();
  rejoin_latency_->Record(engine_.Now() - degraded_since_);
  GLB_TRACE(engine_.Now(), "gl",
            "REJOINED the hardware path after " << engine_.Now() - degraded_since_
                                                << " cycles degraded");
  GLB_TRACE_EVENT(trace::Sink().Instant(
      trace_.track, "rejoin", engine_.Now(),
      trace::Args().Add("degraded_cycles", engine_.Now() - degraded_since_).json()));
}

const char* ToString(BarrierNetwork::Health health) {
  switch (health) {
    case BarrierNetwork::Health::kHealthy: return "healthy";
    case BarrierNetwork::Health::kRetrying: return "retrying";
    case BarrierNetwork::Health::kDegraded: return "degraded";
    case BarrierNetwork::Health::kProbing: return "probing";
    case BarrierNetwork::Health::kRejoined: return "rejoined";
  }
  return "?";
}

}  // namespace glb::gline
