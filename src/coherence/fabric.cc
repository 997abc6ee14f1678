#include "coherence/fabric.h"

#include <string>
#include <utility>

namespace glb::coherence {

Fabric::Fabric(sim::Engine& engine, noc::Mesh& mesh, mem::BackingStore& backing,
               const CoherenceConfig& cfg, const mem::CacheGeometry& l1_geo,
               const mem::CacheGeometry& l2_geo, StatSet& stats)
    : engine_(engine),
      mesh_(mesh),
      backing_(backing),
      cfg_(cfg),
      stats_(stats) {
  GLB_CHECK(l1_geo.line_bytes == cfg.line_bytes && l2_geo.line_bytes == cfg.line_bytes)
      << "cache line sizes must agree with the protocol line size";
  GLB_CHECK(backing.line_bytes() == cfg.line_bytes)
      << "backing store line size mismatch";
  const std::uint32_t n = mesh.config().num_nodes();
  GLB_CHECK(n <= SharerSet::kMaxCores)
      << "full-map sharer vector limits the fabric to " << SharerSet::kMaxCores
      << " cores";
  l1s_.reserve(n);
  dirs_.reserve(n);
  for (CoreId c = 0; c < n; ++c) {
    l1s_.push_back(std::make_unique<L1Controller>(*this, c, l1_geo));
    dirs_.push_back(std::make_unique<DirController>(*this, c, l2_geo));
  }
}

void Fabric::Send(CoreId from, CoreId to, Message msg) {
  Counter*& sent = sent_by_type_[static_cast<std::size_t>(msg.type)];
  if (sent == nullptr) {
    sent = stats_.GetCounter(std::string("coh.sent.") + ToString(msg.type));
  }
  sent->Inc();
  noc::Packet pkt;
  pkt.src = from;
  pkt.dst = to;
  pkt.vnet = VNetOf(msg.type);
  pkt.traffic = TrafficOf(msg.type);
  pkt.bytes = msg.data.empty() ? cfg_.control_bytes : cfg_.data_bytes();
  std::uint32_t h;
  if (free_msgs_.empty()) {
    h = static_cast<std::uint32_t>(in_flight_.size());
    in_flight_.push_back(std::move(msg));
  } else {
    h = free_msgs_.back();
    free_msgs_.pop_back();
    in_flight_[h] = std::move(msg);
  }
  pkt.deliver = [this, to, h] { Deliver(to, h); };
  mesh_.Send(std::move(pkt));
}

void Fabric::Deliver(CoreId to, std::uint32_t h) {
  // Moved out before the controller runs: it sends, which may reuse
  // this slot or grow the pool under it.
  Message msg = std::move(in_flight_[h]);
  free_msgs_.push_back(h);
  if (GoesToHome(msg.type)) {
    dirs_[to]->OnMessage(msg);
  } else {
    l1s_[to]->OnMessage(msg);
  }
  Recycle(std::move(msg.data));
}

}  // namespace glb::coherence
