#include "coherence/dir_controller.h"

#include <cstdio>
#include <ostream>
#include <utility>

#include "common/log.h"
#include "common/prof.h"
#include "coherence/fabric.h"
#include "trace/trace.h"

namespace glb::coherence {

namespace {
/// Retry spacing when every way of a set is pinned by open transactions.
constexpr Cycle kAllocRetryCycles = 8;

std::string TxnTraceName(bool is_recall, MsgType type, Addr line_addr) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%s @0x%llx", is_recall ? "recall" : ToString(type),
                static_cast<unsigned long long>(line_addr));
  return buf;
}
}  // namespace

DirController::DirController(Fabric& fabric, CoreId tile, const mem::CacheGeometry& geo)
    : fabric_(fabric), engine_(fabric.engine()), tile_(tile), array_(geo) {
  // Buckets for a busy bank up front: a table never shrinks, so growing
  // it would be a run-time allocation at each new peak of open lines.
  txns_.reserve(kReservedTxns);
  auto& stats = fabric_.stats();
  requests_ = stats.GetCounter("l2.requests");
  l2_misses_ = stats.GetCounter("l2.misses");
  dram_fetches_ = stats.GetCounter("l2.dram_fetches");
  recalls_ = stats.GetCounter("l2.recalls");
  alloc_retries_ = stats.GetCounter("l2.alloc_retries");
  invs_sent_ = stats.GetCounter("l2.invs_sent");
  fwds_sent_ = stats.GetCounter("l2.fwds_sent");
}

const DirController::DirMeta* DirController::Probe(Addr line_addr) const {
  const auto* line = array_.Lookup(line_addr);
  return line == nullptr ? nullptr : &line->meta;
}

void DirController::DumpTransactions(std::ostream& os) const {
  for (const auto& [addr, txn] : txns_) {
    os << "bank " << tile_ << " line 0x" << std::hex << addr << std::dec
       << ": type=" << ToString(txn.type) << " req=" << txn.requester
       << " recall=" << txn.is_recall << " acks_left=" << txn.acks_left
       << " queued=" << txn.num_queued;
    const auto* line = array_.Lookup(addr);
    if (line != nullptr) {
      os << " dir_state=" << static_cast<int>(line->meta.state)
         << " owner=" << line->meta.owner
         << " sharers=" << line->meta.sharers.ToHexString();
    } else {
      os << " (not resident)";
    }
    os << '\n';
  }
}

Word DirController::PeekWord(Addr addr) const {
  const auto* line = array_.Lookup(addr);
  GLB_CHECK(line != nullptr) << "PeekWord on non-resident line " << addr;
  return array_.ReadWord(line, addr);
}

void DirController::SendCtl(CoreId to, MsgType type, Addr line_addr) {
  Message msg;
  msg.type = type;
  msg.line_addr = line_addr;
  msg.from = tile_;
  fabric_.Send(tile_, to, std::move(msg));
}

void DirController::SendData(CoreId to, const Cache::Line* line, Grant grant) {
  Message msg;
  msg.type = MsgType::kData;
  msg.line_addr = line->line_addr;
  msg.from = tile_;
  msg.grant = grant;
  msg.data = fabric_.LineBuffer();
  array_.CopyWords(line, msg.data);
  fabric_.Send(tile_, to, std::move(msg));
}

void DirController::WriteLineToBacking(const Cache::Line* line) {
  fabric_.backing().WriteLine(line->line_addr, array_.Words(line).data());
}

// ---------------------------------------------------------------------------
// Message dispatch / transaction lifecycle
// ---------------------------------------------------------------------------

void DirController::OnMessage(const Message& msg) {
  prof::Scope prof_scope(prof::Cat::kCoherence);
  GLB_CHECK(fabric_.HomeOf(msg.line_addr) == tile_)
      << "message @" << msg.line_addr << " routed to wrong home " << tile_;
  switch (msg.type) {
    case MsgType::kGetS:
    case MsgType::kGetX:
    case MsgType::kPutM:
    case MsgType::kPutE: {
      if (auto it = txns_.find(msg.line_addr); it != txns_.end()) {
        Enqueue(it->second, msg);
        return;
      }
      Open(msg);
      return;
    }
    case MsgType::kInvAck: OnInvAck(msg); return;
    case MsgType::kDataWB: OnOwnerData(msg); return;
    default:
      GLB_UNREACHABLE(std::string("home received ") + ToString(msg.type));
  }
}

void DirController::Open(const Message& msg) {
  GLB_CHECK(txns_.find(msg.line_addr) == txns_.end()) << "line already busy";
  Txn txn;
  txn.type = msg.type;
  txn.requester = msg.from;
  if (trace::Active()) {
    // Overlapping transactions per bank (different lines) need async
    // spans; the id pairs this Open with its Close.
    txn.trace_id = trace::Sink().NextId();
    trace::Sink().AsyncBegin("dir/bank " + std::to_string(tile_),
                             TxnTraceName(false, msg.type, msg.line_addr),
                             txn.trace_id, engine_.Now(),
                             trace::Args()
                                 .Add("requester", msg.from)
                                 .Add("type", ToString(msg.type))
                                 .json());
  }
  Insert(msg.line_addr, std::move(txn));
  requests_->Inc();
  GLB_TRACE(engine_.Now(), "dir",
            "bank " << tile_ << " opens " << ToString(msg.type) << " @" << msg.line_addr
                    << " from core " << msg.from);
  // Bank/tag access latency before the directory acts. An init-capture
  // holds a non-const Message, so the task moves it and stays inline.
  engine_.ScheduleIn(fabric_.config().l2_latency, [this, m = msg] { Process(m); });
}

void DirController::Process(const Message& msg) {
  switch (msg.type) {
    case MsgType::kPutM:
    case MsgType::kPutE:
      ProcessPut(msg);
      return;
    case MsgType::kGetS:
    case MsgType::kGetX:
      ProcessGet(msg);
      return;
    default:
      GLB_UNREACHABLE("non-request in Process");
  }
}

void DirController::ProcessPut(const Message& msg) {
  auto* line = array_.Lookup(msg.line_addr);
  const bool current_owner = line != nullptr &&
                             line->meta.state == DirState::kExclusive &&
                             line->meta.owner == msg.from;
  if (current_owner) {
    if (msg.type == MsgType::kPutM) {
      array_.FillWords(line, msg.data);
      line->meta.dirty = true;
    }
    line->meta.state = DirState::kUncached;
    line->meta.sharers.Clear();
    line->meta.owner = kInvalidCore;
  }
  // A Put from a non-owner is the tail of an eviction/forward race; it
  // is acknowledged without effect so the evictor can retire its buffer.
  SendCtl(msg.from, MsgType::kPutAck, msg.line_addr);
  Close(msg.line_addr);
}

void DirController::ProcessGet(const Message& request) {
  // The continuation keeps only the header fields: a whole Message
  // (with its payload vector) would overflow sim::Task's inline buffer.
  struct Header {
    MsgType type;
    CoreId from;
    Addr line_addr;
  };
  EnsureResident(request.line_addr, [this, msg = Header{request.type, request.from,
                                                         request.line_addr}]() {
    auto* line = array_.Lookup(msg.line_addr);
    GLB_CHECK(line != nullptr) << "EnsureResident lied";
    array_.Touch(line);
    auto& txn = txns_.at(msg.line_addr);
    DirMeta& meta = line->meta;
    const CoreId req = msg.from;

    if (msg.type == MsgType::kGetS) {
      switch (meta.state) {
        case DirState::kUncached:
          // MESI: sole reader gets the line Exclusive.
          meta.state = DirState::kExclusive;
          meta.owner = req;
          SendData(req, line, Grant::kExclusive);
          Close(msg.line_addr);
          return;
        case DirState::kShared:
          meta.sharers.Add(req);
          SendData(req, line, Grant::kShared);
          Close(msg.line_addr);
          return;
        case DirState::kExclusive:
          GLB_CHECK(meta.owner != req) << "owner re-requesting GetS";
          fwds_sent_->Inc();
          SendCtl(meta.owner, MsgType::kFwdGetS, msg.line_addr);
          return;  // completes in OnOwnerData
      }
      GLB_UNREACHABLE("bad dir state");
    }

    // GetX
    switch (meta.state) {
      case DirState::kUncached:
        meta.state = DirState::kExclusive;
        meta.owner = req;
        SendData(req, line, Grant::kModified);
        Close(msg.line_addr);
        return;
      case DirState::kShared: {
        SharerSet to_inv = meta.sharers;
        to_inv.Remove(req);
        if (to_inv.Empty()) {
          meta.state = DirState::kExclusive;
          meta.sharers.Clear();
          meta.owner = req;
          SendData(req, line, Grant::kModified);
          Close(msg.line_addr);
          return;
        }
        txn.acks_left = to_inv.Count();
        to_inv.ForEach([&](CoreId c) {
          invs_sent_->Inc();
          SendCtl(c, MsgType::kInv, msg.line_addr);
        });
        // The sharer set is dissolved now; acks drain into the open txn.
        meta.sharers.Clear();
        return;  // completes in OnInvAck
      }
      case DirState::kExclusive:
        GLB_CHECK(meta.owner != req) << "owner re-requesting GetX";
        fwds_sent_->Inc();
        SendCtl(meta.owner, MsgType::kFwdGetX, msg.line_addr);
        return;  // completes in OnOwnerData
    }
    GLB_UNREACHABLE("bad dir state");
  });
}

// ---------------------------------------------------------------------------
// Residency: DRAM fetch, allocation, recall of victims
// ---------------------------------------------------------------------------

void DirController::EnsureResident(Addr line_addr, sim::Task cont) {
  if (array_.Lookup(line_addr) != nullptr) {
    cont();
    return;
  }
  l2_misses_->Inc();
  dram_fetches_->Inc();
  engine_.ScheduleIn(
      fabric_.config().dram_latency,
      [this, line_addr, cont = std::move(cont)]() mutable {
        std::vector<Word> data = fabric_.LineBuffer();
        data.resize(array_.geometry().words_per_line());
        fabric_.backing().ReadLine(line_addr, data.data());
        TryInstall(line_addr, std::move(data), std::move(cont));
      });
}

void DirController::TryInstall(Addr line_addr, std::vector<Word> data,
                               sim::Task cont) {
  auto* victim = array_.VictimFor(
      line_addr, [this](const Cache::Line& l) { return !LineBusy(l.line_addr); });
  if (victim == nullptr) {
    // Every way pinned by an open transaction; retry shortly.
    alloc_retries_->Inc();
    engine_.ScheduleIn(
        kAllocRetryCycles,
        [this, line_addr, data = std::move(data), cont = std::move(cont)]() mutable {
          TryInstall(line_addr, std::move(data), std::move(cont));
        });
    return;
  }
  if (victim->valid) {
    StartRecall(victim,
                [this, line_addr, data = std::move(data), cont = std::move(cont)]() mutable {
                  TryInstall(line_addr, std::move(data), std::move(cont));
                });
    return;
  }
  array_.Install(victim, line_addr);
  array_.FillWords(victim, data);
  fabric_.Recycle(std::move(data));
  cont();
}

void DirController::StartRecall(Cache::Line* victim, sim::Task cont) {
  const Addr vaddr = victim->line_addr;
  GLB_CHECK(!LineBusy(vaddr)) << "recalling a busy line";
  recalls_->Inc();

  if (victim->meta.state == DirState::kUncached) {
    // No L1 copies: spill straight to DRAM.
    if (victim->meta.dirty) WriteLineToBacking(victim);
    array_.Invalidate(victim);
    cont();
    return;
  }

  Txn txn;
  txn.is_recall = true;
  txn.on_recall_done = std::move(cont);
  if (trace::Active()) {
    txn.trace_id = trace::Sink().NextId();
    trace::Sink().AsyncBegin("dir/bank " + std::to_string(tile_),
                             TxnTraceName(true, MsgType::kGetS, vaddr), txn.trace_id,
                             engine_.Now());
  }
  if (victim->meta.state == DirState::kShared) {
    txn.acks_left = victim->meta.sharers.Count();
    GLB_CHECK(txn.acks_left > 0) << "Shared line with empty sharer set";
    victim->meta.sharers.ForEach([&](CoreId c) {
      invs_sent_->Inc();
      SendCtl(c, MsgType::kInv, vaddr);
    });
    victim->meta.sharers.Clear();
  } else {
    fwds_sent_->Inc();
    SendCtl(victim->meta.owner, MsgType::kFwdGetX, vaddr);
  }
  Insert(vaddr, std::move(txn));
}

void DirController::FinishRecall(Addr line_addr) {
  auto* line = array_.Lookup(line_addr);
  GLB_CHECK(line != nullptr) << "recall lost its line";
  if (line->meta.dirty) WriteLineToBacking(line);
  array_.Invalidate(line);
  Close(line_addr);
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

void DirController::OnInvAck(const Message& msg) {
  auto it = txns_.find(msg.line_addr);
  GLB_CHECK(it != txns_.end()) << "InvAck without open transaction";
  Txn& txn = it->second;
  GLB_CHECK(txn.acks_left > 0) << "unexpected InvAck";
  if (--txn.acks_left > 0) return;

  if (txn.is_recall) {
    FinishRecall(msg.line_addr);
    return;
  }
  // GetX invalidation phase complete: grant Modified.
  GLB_CHECK(txn.type == MsgType::kGetX) << "ack-collecting non-GetX";
  auto* line = array_.Lookup(msg.line_addr);
  GLB_CHECK(line != nullptr) << "GetX target evicted mid-transaction";
  line->meta.state = DirState::kExclusive;
  line->meta.sharers.Clear();
  line->meta.owner = txn.requester;
  SendData(txn.requester, line, Grant::kModified);
  Close(msg.line_addr);
}

void DirController::OnOwnerData(const Message& msg) {
  auto it = txns_.find(msg.line_addr);
  GLB_CHECK(it != txns_.end()) << "DataWB without open transaction";
  Txn& txn = it->second;
  auto* line = array_.Lookup(msg.line_addr);
  GLB_CHECK(line != nullptr) << "DataWB for non-resident line";
  const CoreId old_owner = line->meta.owner;
  array_.FillWords(line, msg.data);
  line->meta.dirty = true;

  if (txn.is_recall) {
    FinishRecall(msg.line_addr);
    return;
  }
  if (txn.type == MsgType::kGetS) {
    line->meta.state = DirState::kShared;
    line->meta.sharers.Clear();
    line->meta.sharers.Add(old_owner);
    line->meta.sharers.Add(txn.requester);
    line->meta.owner = kInvalidCore;
    SendData(txn.requester, line, Grant::kShared);
  } else {
    line->meta.state = DirState::kExclusive;
    line->meta.sharers.Clear();
    line->meta.owner = txn.requester;
    SendData(txn.requester, line, Grant::kModified);
  }
  Close(msg.line_addr);
}

void DirController::Insert(Addr line_addr, Txn txn) {
  std::vector<TxnNode>& spare = fabric_.SpareTxns();
  if (spare.empty()) {
    txns_.emplace(line_addr, std::move(txn));
    return;
  }
  TxnNode node = std::move(spare.back());
  spare.pop_back();
  node.key() = line_addr;
  node.mapped() = std::move(txn);
  txns_.insert(std::move(node));
}

void DirController::Enqueue(Txn& txn, const Message& msg) {
  std::uint32_t slot = free_queued_;
  if (slot == kNoQueued) {
    slot = static_cast<std::uint32_t>(queued_.size());
    queued_.emplace_back();
  } else {
    free_queued_ = queued_[slot].next;
  }
  queued_[slot].msg = msg;
  queued_[slot].next = kNoQueued;
  if (txn.queue_tail == kNoQueued) {
    txn.queue_head = slot;
  } else {
    queued_[txn.queue_tail].next = slot;
  }
  txn.queue_tail = slot;
  ++txn.num_queued;
}

void DirController::Close(Addr line_addr) {
  auto node = txns_.extract(line_addr);
  GLB_CHECK(!node.empty()) << "closing a line with no transaction";
  if (trace::Active() && node.mapped().trace_id != 0) {
    trace::Sink().AsyncEnd(
        "dir/bank " + std::to_string(tile_),
        TxnTraceName(node.mapped().is_recall, node.mapped().type, line_addr),
        node.mapped().trace_id, engine_.Now());
  }
  const Txn& done = node.mapped();
  const std::uint32_t head = done.queue_head;
  const std::uint32_t tail = done.queue_tail;
  const std::uint32_t num_queued = done.num_queued;
  sim::Task resume = std::move(node.mapped().on_recall_done);
  fabric_.SpareTxns().push_back(std::move(node));

  if (head != kNoQueued) {
    Message next = std::move(queued_[head].msg);
    const std::uint32_t rest = queued_[head].next;
    queued_[head].next = free_queued_;
    free_queued_ = head;
    Open(next);
    // Re-attach the remaining arrivals behind the freshly-opened txn.
    if (rest != kNoQueued) {
      Txn& reopened = txns_.at(line_addr);
      reopened.queue_head = rest;
      reopened.queue_tail = tail;
      reopened.num_queued = num_queued - 1;
    }
  }
  if (resume) resume();
}

}  // namespace glb::coherence
