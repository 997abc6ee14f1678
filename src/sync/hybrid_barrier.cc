#include "sync/hybrid_barrier.h"

#include <utility>

#include "common/check.h"
#include "core/timebreak.h"

namespace glb::sync {

HybridBarrierUnit::HybridBarrierUnit(noc::Mesh& mesh, CoreId home_tile,
                                     std::uint32_t num_cores, StatSet& stats,
                                     const std::string& stat_prefix)
    : mesh_(mesh), home_(home_tile), num_cores_(num_cores),
      expected_(num_cores), waiters_(num_cores, nullptr) {
  GLB_CHECK(home_tile < mesh.config().num_nodes()) << "unit tile out of range";
  GLB_CHECK(num_cores <= mesh.config().num_nodes()) << "more cores than tiles";
  episodes_ = stats.GetCounter(stat_prefix + ".episodes");
}

void HybridBarrierUnit::SetExpected(std::uint32_t expected) {
  GLB_CHECK(arrived_ == 0) << "participant count changed mid-episode";
  GLB_CHECK(expected >= 1 && expected <= num_cores_)
      << "bad participant count " << expected;
  expected_ = expected;
}

void HybridBarrierUnit::Arrive(CoreId core, core::BarrierWaiter& waiter) {
  GLB_CHECK(core < num_cores_) << "bad core " << core;
  GLB_CHECK(waiters_[core] == nullptr)
      << "core " << core << " arrived twice at the hybrid barrier";
  waiters_[core] = &waiter;
  // The memory-mapped arrival store: one uncached control packet to the
  // unit's tile, on the request network.
  noc::Packet pkt;
  pkt.src = core;
  pkt.dst = home_;
  pkt.vnet = noc::VNet::kRequest;
  pkt.traffic = noc::TrafficClass::kRequest;
  pkt.bytes = kCtlBytes;
  pkt.deliver = [this, core]() { OnArrivalPacket(core); };
  mesh_.Send(std::move(pkt));
}

void HybridBarrierUnit::OnArrivalPacket(CoreId core) {
  GLB_CHECK(waiters_[core] != nullptr) << "arrival packet without arrival";
  if (++arrived_ < expected_) return;
  // All present: one release packet per participant (fan-out through
  // the mesh — this is the hot-spot the G-line network avoids; the
  // unit's own counting is subsumed in the packet delivery cycle).
  arrived_ = 0;
  episodes_->Inc();
  for (CoreId c = 0; c < num_cores_; ++c) {
    if (waiters_[c] == nullptr) continue;  // not a participant this episode
    noc::Packet pkt;
    pkt.src = home_;
    pkt.dst = c;
    pkt.vnet = noc::VNet::kResponse;
    pkt.traffic = noc::TrafficClass::kReply;
    pkt.bytes = kCtlBytes;
    pkt.deliver = [this, c]() {
      core::BarrierWaiter* w = std::exchange(waiters_[c], nullptr);
      GLB_CHECK(w != nullptr) << "release without waiter";
      w->Release();
    };
    mesh_.Send(std::move(pkt));
  }
}

core::Task HybridBarrier::Wait(core::Core& core) {
  core::CategoryScope scope(core, core::TimeCat::kBarrier);
  core.NoteBarrier();
  // Issue the memory-mapped store (1 cycle) and block until the release
  // packet lands.
  co_await core.Compute(1);
  co_await core.WaitOn(*unit_, core::TimeCat::kBarrier);
}

}  // namespace glb::sync
