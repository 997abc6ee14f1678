// HYB — centralized *hardware* barrier reached over the data network
// (a Sartori & Kumar-style hybrid, the design the paper's §2.2 argues
// against).
//
// A dedicated barrier unit sits at one tile. Cores announce arrival
// with a memory-mapped store — modeled as one control packet to the
// unit's tile — and the unit, once all participants have arrived,
// releases them with one control packet each. Synchronization is as
// fast as hardware counting can make it, *but* every episode injects
// 2P messages into the data NoC and funnels P of them into one tile:
// exactly the overhead the G-line network exists to eliminate. The
// `ablate_hybrid` bench quantifies the difference.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "core/barrier_device.h"
#include "noc/mesh.h"
#include "sync/barrier.h"

namespace glb::sync {

/// The barrier unit (one per chip, at `home_tile`): a barrier device
/// whose arrivals and releases travel the NoC.
class HybridBarrierUnit final : public core::BarrierDevice {
 public:
  /// `stat_prefix` roots the unit's episode counter
  /// ("<prefix>.episodes"); tenants pass their own prefix so concurrent
  /// units never alias in the shared StatSet.
  HybridBarrierUnit(noc::Mesh& mesh, CoreId home_tile, std::uint32_t num_cores,
                    StatSet& stats, const std::string& stat_prefix = "hyb");

  HybridBarrierUnit(const HybridBarrierUnit&) = delete;
  HybridBarrierUnit& operator=(const HybridBarrierUnit&) = delete;

  using core::BarrierDevice::Arrive;
  /// Core-side arrival: sends the memory-mapped store packet; the unit
  /// releases `waiter` when its release packet arrives back at the core.
  void Arrive(CoreId core, core::BarrierWaiter& waiter) override;

  /// Reprograms the unit's participant count (memory-mapped config
  /// register), for a HYB barrier over fewer participants than the
  /// unit has slots. Illegal mid-episode.
  void SetExpected(std::uint32_t expected);

  CoreId home_tile() const { return home_; }
  std::uint64_t episodes() const { return episodes_->value(); }

 private:
  /// Unit-side: an arrival packet reached the unit.
  void OnArrivalPacket(CoreId core);

  static constexpr std::uint32_t kCtlBytes = 11;

  noc::Mesh& mesh_;
  const CoreId home_;
  const std::uint32_t num_cores_;
  std::uint32_t expected_;
  std::uint32_t arrived_ = 0;
  /// Per core: the waiter of its outstanding arrival, else null.
  std::vector<core::BarrierWaiter*> waiters_;
  Counter* episodes_ = nullptr;
};

/// sync::Barrier adapter: Wait() = memory-mapped arrival store + spin
/// until the release packet clears the core's flag.
class HybridBarrier final : public Barrier {
 public:
  HybridBarrier(noc::Mesh& mesh, CoreId home_tile, std::uint32_t num_cores,
                StatSet& stats, const std::string& stat_prefix = "hyb")
      : unit_(std::make_unique<HybridBarrierUnit>(mesh, home_tile, num_cores,
                                                  stats, stat_prefix)) {}

  core::Task Wait(core::Core& core) override;
  const char* name() const override { return "HYB"; }
  HybridBarrierUnit& unit() { return *unit_; }

 private:
  std::unique_ptr<HybridBarrierUnit> unit_;
};

}  // namespace glb::sync
