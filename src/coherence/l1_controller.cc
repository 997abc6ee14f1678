#include "coherence/l1_controller.h"

#include <cstdio>
#include <utility>

#include "common/log.h"
#include "common/prof.h"
#include "coherence/fabric.h"
#include "trace/trace.h"

namespace glb::coherence {

namespace {
const char* Name(L1Controller::LineState s) {
  switch (s) {
    case L1Controller::LineState::kI: return "I";
    case L1Controller::LineState::kS: return "S";
    case L1Controller::LineState::kE: return "E";
    case L1Controller::LineState::kM: return "M";
  }
  return "?";
}

std::string HexAddr(Addr a) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%llx", static_cast<unsigned long long>(a));
  return buf;
}
}  // namespace

L1Controller::L1Controller(Fabric& fabric, CoreId core, const mem::CacheGeometry& geo)
    : fabric_(fabric), engine_(fabric.engine()), core_(core), cache_(geo) {
  auto& stats = fabric_.stats();
  hits_ = stats.GetCounter("l1.hits");
  misses_ = stats.GetCounter("l1.misses");
  upgrades_ = stats.GetCounter("l1.upgrades");
  writebacks_ = stats.GetCounter("l1.writebacks");
  fwds_served_ = stats.GetCounter("l1.fwds_served");
  invs_received_ = stats.GetCounter("l1.invs_received");
  fwd_buffered_ = stats.GetCounter("l1.race.fwd_buffered");
  inv_during_fill_ = stats.GetCounter("l1.race.inv_during_fill");
  wb_fwd_served_ = stats.GetCounter("l1.race.wb_fwd_served");
  stale_puts_ = stats.GetCounter("l1.race.stale_puts");
}

L1Controller::LineState L1Controller::StateOf(Addr addr) const {
  const auto* line = cache_.Lookup(addr);
  return line == nullptr ? LineState::kI : line->meta.state;
}

Word L1Controller::PeekWord(Addr addr) const {
  const auto* line = cache_.Lookup(addr);
  GLB_CHECK(line != nullptr) << "PeekWord on uncached address " << addr;
  return cache_.ReadWord(line, addr);
}

void L1Controller::Send(Message msg) {
  msg.from = core_;
  const CoreId home = fabric_.HomeOf(msg.line_addr);
  fabric_.Send(core_, home, std::move(msg));
}

std::vector<Word> L1Controller::CopyLine(const Cache::Line* line) {
  std::vector<Word> buf = fabric_.LineBuffer();
  cache_.CopyWords(line, buf);
  return buf;
}

// ---------------------------------------------------------------------------
// Core-facing operations
// ---------------------------------------------------------------------------

void L1Controller::Load(Addr addr, LoadCallback done) {
  prof::Scope prof_scope(prof::Cat::kCoherence);
  GLB_CHECK(!mshr_.valid) << "core " << core_ << " issued a second outstanding op";
  auto* line = cache_.Lookup(addr);
  if (line != nullptr) {
    hits_->Inc();
    cache_.Touch(line);
    const Word v = cache_.ReadWord(line, addr);
    engine_.ScheduleIn(fabric_.config().l1_latency,
                                [v, done = std::move(done)]() { done(v); });
    return;
  }
  StartMiss(Mshr::Op::kLoad, addr, AmoOp::kFetchAdd, 0, 0, std::move(done), nullptr,
            /*had_s_copy=*/false);
}

bool L1Controller::Watch(Addr addr, sim::Engine::Slot& watcher) {
  GLB_CHECK(!mshr_.valid) << "core " << core_ << " issued a second outstanding op";
  auto* line = cache_.Lookup(addr);
  if (line == nullptr) return false;
  hits_->Inc();
  cache_.Touch(line);
  watched_ = line;
  watcher_ = &watcher;
  engine_.Park(watcher, fabric_.config().l1_latency);
  return true;
}

void L1Controller::CreditWatchedHits(std::uint64_t n) {
  hits_->Inc(n);
  // A dropped line's frame is invalid and cannot be reused before the
  // core's next miss, so its stamp is dead either way; what counts is
  // that the LRU clock advances as the skipped touches would have.
  cache_.Touch(watched_, n);
}

void L1Controller::Drop(Cache::Line* line) {
  if (line == watched_ && watcher_ != nullptr) {
    watcher_->Disarm();
    watcher_ = nullptr;
  }
  cache_.Invalidate(line);
}

void L1Controller::Store(Addr addr, Word value, StoreCallback done) {
  prof::Scope prof_scope(prof::Cat::kCoherence);
  GLB_CHECK(!mshr_.valid) << "core " << core_ << " issued a second outstanding op";
  auto* line = cache_.Lookup(addr);
  if (line != nullptr && line->meta.state != LineState::kS) {
    // Hit in M, or silent E->M upgrade.
    hits_->Inc();
    line->meta.state = LineState::kM;
    cache_.Touch(line);
    cache_.WriteWord(line, addr, value);
    engine_.ScheduleIn(fabric_.config().l1_latency,
                                [done = std::move(done)]() { done(); });
    return;
  }
  StartMiss(Mshr::Op::kStore, addr, AmoOp::kFetchAdd, value, 0, nullptr,
            std::move(done), /*had_s_copy=*/line != nullptr);
}

void L1Controller::Amo(Addr addr, AmoOp op, Word operand, Word operand2,
                       LoadCallback done) {
  prof::Scope prof_scope(prof::Cat::kCoherence);
  GLB_CHECK(!mshr_.valid) << "core " << core_ << " issued a second outstanding op";
  auto* line = cache_.Lookup(addr);
  if (line != nullptr && line->meta.state != LineState::kS) {
    hits_->Inc();
    cache_.Touch(line);
    const Word old = ApplyAmo(line, addr, op, operand, operand2);
    engine_.ScheduleIn(fabric_.config().l1_latency,
                                [old, done = std::move(done)]() { done(old); });
    return;
  }
  StartMiss(Mshr::Op::kAmo, addr, op, operand, operand2, std::move(done), nullptr,
            /*had_s_copy=*/line != nullptr);
}

Word L1Controller::ApplyAmo(Cache::Line* line, Addr addr, AmoOp op, Word operand,
                            Word operand2) {
  GLB_CHECK(line->meta.state != LineState::kS) << "AMO without write permission";
  line->meta.state = LineState::kM;
  const Word old = cache_.ReadWord(line, addr);
  Word next = old;
  switch (op) {
    case AmoOp::kFetchAdd: next = old + operand; break;
    case AmoOp::kSwap: next = operand; break;
    case AmoOp::kTestAndSet: next = 1; break;
    case AmoOp::kCompareAndSwap: next = (old == operand) ? operand2 : old; break;
  }
  cache_.WriteWord(line, addr, next);
  return old;
}

void L1Controller::StartMiss(Mshr::Op op, Addr addr, AmoOp amo, Word operand,
                             Word operand2, LoadCallback on_value,
                             StoreCallback on_done, bool had_s_copy) {
  misses_->Inc();
  if (had_s_copy) upgrades_->Inc();
  mshr_.valid = true;
  mshr_.op = op;
  mshr_.addr = addr;
  mshr_.line_addr = cache_.LineOf(addr);
  mshr_.amo = amo;
  mshr_.operand = operand;
  mshr_.operand2 = operand2;
  mshr_.on_value = std::move(on_value);
  mshr_.on_done = std::move(on_done);
  mshr_.inv_after_fill = false;
  mshr_.buffered_fwd.reset();
  mshr_.trace_start = engine_.Now();

  const bool wants_write = (op != Mshr::Op::kLoad);
  mshr_.wait = !wants_write ? Mshr::Wait::kIS_D
               : had_s_copy ? Mshr::Wait::kSM_D
                            : Mshr::Wait::kIM_D;

  Message req;
  req.type = wants_write ? MsgType::kGetX : MsgType::kGetS;
  req.line_addr = mshr_.line_addr;
  GLB_TRACE(engine_.Now(), "l1",
            "core " << core_ << " " << ToString(req.type) << " @" << mshr_.line_addr);
  // The tag lookup that discovered the miss costs one L1 cycle.
  engine_.ScheduleIn(fabric_.config().l1_latency,
                     [this, req = std::move(req)]() mutable { Send(std::move(req)); });
}

// ---------------------------------------------------------------------------
// Protocol messages
// ---------------------------------------------------------------------------

void L1Controller::OnMessage(const Message& msg) {
  prof::Scope prof_scope(prof::Cat::kCoherence);
  switch (msg.type) {
    case MsgType::kData: OnData(msg); return;
    case MsgType::kFwdGetS:
    case MsgType::kFwdGetX: OnFwd(msg); return;
    case MsgType::kInv: OnInv(msg); return;
    case MsgType::kPutAck: OnPutAck(msg); return;
    default:
      GLB_UNREACHABLE(std::string("L1 received ") + ToString(msg.type));
  }
}

L1Controller::Cache::Line* L1Controller::AllocateFor(Addr line_addr) {
  // With a single MSHR whose line is (by construction) not cached in
  // IS_D/IM_D, every resident line is stable and evictable; in SM_D the
  // target line is resident and must not be chosen as its own victim —
  // but AllocateFor is only called when the line is absent.
  auto* victim = cache_.VictimFor(line_addr);
  GLB_CHECK(victim != nullptr) << "no victim available";
  if (victim->valid) {
    const LineState st = victim->meta.state;
    if (st == LineState::kM || st == LineState::kE) {
      writebacks_->Inc();
      GLB_CHECK(wb_buffer_.find(victim->line_addr) == wb_buffer_.end())
          << "duplicate write-back for line " << victim->line_addr;
      WbEntry entry;
      entry.state = (st == LineState::kM) ? WbEntry::State::kMI_A : WbEntry::State::kEI_A;
      entry.data = CopyLine(victim);
      wb_buffer_.emplace(victim->line_addr, std::move(entry));
      Message put;
      put.type = (st == LineState::kM) ? MsgType::kPutM : MsgType::kPutE;
      put.line_addr = victim->line_addr;
      if (st == LineState::kM) put.data = CopyLine(victim);
      Send(std::move(put));
    }
    // S lines are dropped silently; the directory tolerates over-
    // approximate sharer sets (it may send us an Inv later; we ack it).
    Drop(victim);
  }
  cache_.Install(victim, line_addr);
  return victim;
}

void L1Controller::OnData(const Message& msg) {
  GLB_CHECK(mshr_.valid && msg.line_addr == mshr_.line_addr)
      << "unexpected fill @" << msg.line_addr << " at core " << core_;

  auto* line = cache_.Lookup(msg.line_addr);
  if (line == nullptr) line = AllocateFor(msg.line_addr);
  cache_.FillWords(line, msg.data);
  switch (msg.grant) {
    case Grant::kShared: line->meta.state = LineState::kS; break;
    case Grant::kExclusive: line->meta.state = LineState::kE; break;
    case Grant::kModified: line->meta.state = LineState::kM; break;
  }
  cache_.Touch(line);
  // An Inv observed during IS_D forces a use-once fill only when the
  // grant is Shared: an Exclusive grant can only have been produced
  // after home collected our InvAck, so such a fill is already fresh.
  if (mshr_.inv_after_fill && msg.grant != Grant::kShared) {
    mshr_.inv_after_fill = false;
  }
  CompleteMiss(line);
}

void L1Controller::CompleteMiss(Cache::Line* line) {
  GLB_CHECK(mshr_.valid) << "CompleteMiss without MSHR";
  // Retire the MSHR before running callbacks: the core's continuation
  // may immediately issue the next memory operation.
  Mshr done = std::move(mshr_);
  mshr_ = Mshr{};

  if (trace::Active()) {
    // Single MSHR, so miss spans never overlap per core: a plain
    // complete event on the core's L1 thread works.
    const char* kind = done.wait == Mshr::Wait::kIS_D   ? "GetS"
                       : done.wait == Mshr::Wait::kSM_D ? "Upgrade"
                                                        : "GetX";
    trace::Sink().Complete(
        "core " + std::to_string(core_) + "/l1",
        std::string(kind) + " @" + HexAddr(done.line_addr), done.trace_start,
        engine_.Now(),
        trace::Args().Add("line", HexAddr(done.line_addr)).json());
  }

  Word value = 0;
  bool has_value = false;
  switch (done.op) {
    case Mshr::Op::kLoad:
      value = cache_.ReadWord(line, done.addr);
      has_value = true;
      break;
    case Mshr::Op::kStore:
      GLB_CHECK(line->meta.state == LineState::kM) << "store fill without M";
      cache_.WriteWord(line, done.addr, done.operand);
      break;
    case Mshr::Op::kAmo:
      GLB_CHECK(line->meta.state == LineState::kM) << "AMO fill without M";
      value = ApplyAmo(line, done.addr, done.amo, done.operand, done.operand2);
      has_value = true;
      break;
  }

  // An Inv that overtook this fill: the access is ordered before the
  // invalidating transaction at the directory, so the value above is
  // legal — but the copy must not linger.
  if (done.inv_after_fill) {
    GLB_CHECK(done.op == Mshr::Op::kLoad) << "inv_after_fill outside IS_D";
    Drop(line);
  }

  // Replay the forward belonging to the next transaction, which the
  // directory issued after granting us this line. This must happen
  // BEFORE the core's continuation runs: the continuation may start a
  // new miss on this very line, and the forward would then be buffered
  // against the wrong transaction — deadlocking its requester.
  if (done.buffered_fwd.has_value()) {
    GLB_CHECK(!done.inv_after_fill) << "buffered forward on a dropped fill";
    OnFwd(*done.buffered_fwd);
  }

  if (has_value) {
    GLB_CHECK(done.on_value != nullptr) << "missing value callback";
    done.on_value(value);
  } else {
    GLB_CHECK(done.on_done != nullptr) << "missing completion callback";
    done.on_done();
  }
}

void L1Controller::OnFwd(const Message& msg) {
  const bool wants_exclusive = (msg.type == MsgType::kFwdGetX);

  // A write-back entry takes precedence over a pending miss on the same
  // line: if we are evicting the line, any forward arriving now targets
  // our *old* ownership (our re-request is still queued at home behind
  // the transaction that issued this forward), so it must be answered
  // from the buffer — holding it against the pending fill would
  // deadlock the forwarding transaction.
  if (auto it = wb_buffer_.find(msg.line_addr); it != wb_buffer_.end()) {
    GLB_CHECK(it->second.state != WbEntry::State::kRelinquished)
        << "second forward for a relinquished line";
    fwds_served_->Inc();
    wb_fwd_served_->Inc();
    Message reply;
    reply.type = MsgType::kDataWB;
    reply.line_addr = msg.line_addr;
    reply.data = fabric_.LineBuffer();
    reply.data.assign(it->second.data.begin(), it->second.data.end());
    it->second.state = WbEntry::State::kRelinquished;
    engine_.ScheduleIn(fabric_.config().l1_latency,
                       [this, reply = std::move(reply)]() mutable { Send(std::move(reply)); });
    return;
  }

  // Forward racing our own pending fill on the same line: it belongs to
  // the transaction serialized right after ours; hold it until the fill
  // lands (at most one such forward can exist, because home blocks).
  // Note that IS_D requesters can be targeted too: a GetS serviced from
  // an Uncached directory is granted Exclusive, making the requester
  // the owner the very next transaction forwards to.
  if (mshr_.valid && mshr_.line_addr == msg.line_addr) {
    GLB_CHECK(!mshr_.buffered_fwd.has_value()) << "second buffered forward";
    fwd_buffered_->Inc();
    mshr_.buffered_fwd = msg;
    return;
  }

  fwds_served_->Inc();
  Message reply;
  reply.type = MsgType::kDataWB;
  reply.line_addr = msg.line_addr;

  auto* line = cache_.Lookup(msg.line_addr);
  GLB_CHECK(line != nullptr) << "forward for a line core " << core_
                             << " does not hold @" << msg.line_addr;
  GLB_CHECK(line->meta.state == LineState::kM || line->meta.state == LineState::kE)
      << "forward to a non-owner in " << Name(line->meta.state);
  reply.data = CopyLine(line);
  if (wants_exclusive) {
    Drop(line);
  } else {
    line->meta.state = LineState::kS;
  }
  engine_.ScheduleIn(fabric_.config().l1_latency,
                     [this, reply = std::move(reply)]() mutable { Send(std::move(reply)); });
}

void L1Controller::OnInv(const Message& msg) {
  invs_received_->Inc();
  if (mshr_.valid && mshr_.line_addr == msg.line_addr) {
    switch (mshr_.wait) {
      case Mshr::Wait::kIS_D:
        // The invalidating transaction may be ordered after our read
        // grant; use the fill once and drop it.
        inv_during_fill_->Inc();
        mshr_.inv_after_fill = true;
        break;
      case Mshr::Wait::kSM_D: {
        // An older transaction beat our upgrade: lose the S copy.
        auto* line = cache_.Lookup(msg.line_addr);
        GLB_CHECK(line != nullptr && line->meta.state == LineState::kS)
            << "SM_D without an S copy";
        Drop(line);
        mshr_.wait = Mshr::Wait::kIM_D;
        break;
      }
      case Mshr::Wait::kIM_D:
        // Stale Inv for a copy we no longer have; just ack.
        break;
    }
  } else if (auto* line = cache_.Lookup(msg.line_addr); line != nullptr) {
    GLB_CHECK(line->meta.state == LineState::kS)
        << "Inv for a line in " << Name(line->meta.state);
    Drop(line);
  }
  // else: silently-evicted copy (or write-back in flight); ack anyway —
  // home counts acknowledgements, not copies.
  Message ack;
  ack.type = MsgType::kInvAck;
  ack.line_addr = msg.line_addr;
  Send(std::move(ack));
}

void L1Controller::OnPutAck(const Message& msg) {
  auto it = wb_buffer_.find(msg.line_addr);
  GLB_CHECK(it != wb_buffer_.end()) << "PutAck without write-back in flight";
  if (it->second.state == WbEntry::State::kRelinquished) stale_puts_->Inc();
  fabric_.Recycle(std::move(it->second.data));
  wb_buffer_.erase(it);
}

}  // namespace glb::coherence
