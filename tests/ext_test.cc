// Tests for the extension layer: energy model, the memory-mapped hybrid
// barrier, and the generic Core::WaitOn device suspension.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cmp/cmp_system.h"
#include "harness/experiment.h"
#include "power/energy_model.h"
#include "sync/hybrid_barrier.h"
#include "workloads/synthetic.h"

namespace glb {
namespace {

using cmp::CmpConfig;
using cmp::CmpSystem;
using core::Core;
using core::Task;

// ---------------------------------------------------------------------------
// Energy model
// ---------------------------------------------------------------------------

/// An idle flat device over a 2x2 mesh: it leaves every G-line counter
/// at zero.
struct IdleDevice {
  StatSet stats;
  sim::Engine engine;
  gline::HierarchicalBarrierNetwork net{engine, 2, 2, gline::HierConfig::Flat(), stats};
};

TEST(Energy, ZeroStatsZeroEnergy) {
  IdleDevice d;
  const auto r = power::Estimate(d.stats, d.net);
  EXPECT_DOUBLE_EQ(r.total_pj(), 0.0);
  EXPECT_DOUBLE_EQ(r.noc_fraction(), 0.0);
}

TEST(Energy, ComponentsScaleWithCounters) {
  IdleDevice d;
  d.stats.GetCounter("noc.flits_sent")->Inc(100);
  d.stats.GetCounter("l1.hits")->Inc(10);
  d.stats.GetCounter("l2.dram_fetches")->Inc(2);
  power::EnergyCoefficients coef;
  const auto r = power::Estimate(d.stats, d.net, coef);
  EXPECT_DOUBLE_EQ(r.noc_pj, 100 * coef.noc_flit_hop_pj);
  EXPECT_DOUBLE_EQ(r.l1_pj, 10 * coef.l1_access_pj);
  EXPECT_DOUBLE_EQ(r.dram_pj, 2 * coef.dram_access_pj);
  EXPECT_GT(r.noc_fraction(), 0.0);
  EXPECT_LT(r.noc_fraction(), 1.0);
}

TEST(Energy, GlRunCostsLessNetworkEnergyThanDsw) {
  auto run = [](harness::BarrierKind k) {
    CmpSystem sys(CmpConfig::WithCores(16));
    auto barrier = harness::MakeBarrier(k, sys);
    auto body = [](Core& c, sync::Barrier* b) -> Task {
      for (int i = 0; i < 20; ++i) co_await b->Wait(c);
    };
    EXPECT_TRUE(sys.RunPrograms(
        [&](Core& c, CoreId) { return body(c, barrier.get()); }));
    return power::Estimate(sys.stats(), sys.gline());
  };
  const auto gl = run(harness::BarrierKind::kGL);
  const auto dsw = run(harness::BarrierKind::kDSW);
  EXPECT_EQ(gl.noc_pj, 0.0) << "GL must burn no NoC energy";
  EXPECT_GT(dsw.noc_pj, 0.0);
  EXPECT_LT(gl.total_pj(), dsw.total_pj());
  EXPECT_GT(gl.gline_pj, 0.0) << "G-line energy is small but not free";
  EXPECT_LT(gl.gline_pj, dsw.noc_pj / 10.0)
      << "G-line signalling must be far cheaper than the NoC traffic it replaces";
}

TEST(Energy, ClusteredDeviceCostsAtLeastTheFlatOne) {
  // Both shapes price their G-line term from the device's own levels:
  // the clustered one sends more signals, over longer upper-level
  // wires, plus hand-offs, so it can never come out cheaper.
  auto run = [](harness::BarrierKind k) {
    CmpSystem sys(CmpConfig::WithCores(64).ForBarrier(k));
    workloads::Synthetic wl(20);
    wl.Init(sys);
    auto barrier = harness::MakeBarrier(k, sys);
    EXPECT_TRUE(sys.RunPrograms(
        [&](Core& c, CoreId id) { return wl.Body(c, id, *barrier); }));
    return power::Estimate(sys.stats(), sys.gline());
  };
  const auto gl = run(harness::BarrierKind::kGL);
  const auto glh = run(harness::BarrierKind::kGLH);
  EXPECT_GT(gl.gline_pj, 0.0);
  EXPECT_GE(glh.gline_pj, gl.gline_pj);
}

// ---------------------------------------------------------------------------
// Hybrid (memory-mapped) barrier
// ---------------------------------------------------------------------------

TEST(HybridBarrier, SynchronizesAndGeneratesTraffic) {
  CmpSystem sys(CmpConfig::WithCores(16));
  auto barrier = harness::MakeBarrier(harness::BarrierKind::kHYB, sys);
  std::vector<int> arrived(10, 0);
  bool violated = false;
  auto body = [](Core& c, sync::Barrier* b, std::vector<int>* arr, bool* bad) -> Task {
    for (int e = 0; e < 10; ++e) {
      co_await c.Compute(1 + (c.id() * 7 + static_cast<std::uint32_t>(e)) % 23);
      ++(*arr)[static_cast<std::size_t>(e)];
      co_await b->Wait(c);
      if ((*arr)[static_cast<std::size_t>(e)] != 16) *bad = true;
    }
  };
  ASSERT_TRUE(sys.RunPrograms([&](Core& c, CoreId) {
    return body(c, barrier.get(), &arrived, &violated);
  }));
  EXPECT_FALSE(violated);
  EXPECT_EQ(sys.stats().CounterValue("hyb.episodes"), 10u);
  // The §2.2 point: unlike GL, this costs 2P messages per episode
  // (minus the two local ones of the core sharing the unit's tile).
  EXPECT_EQ(sys.stats().SumCountersWithPrefix("noc.msgs."),
            10u * (2u * 16u - 2u));
}

TEST(HybridBarrier, FasterThanSoftwareSlowerBusierThanGl) {
  auto run = [](harness::BarrierKind k) {
    return harness::RunExperiment(
        []() { return std::make_unique<workloads::Synthetic>(50); }, k,
        CmpConfig::WithCores(32), 1'000'000'000ull);
  };
  const auto gl = run(harness::BarrierKind::kGL);
  const auto hyb = run(harness::BarrierKind::kHYB);
  const auto dsw = run(harness::BarrierKind::kDSW);
  ASSERT_TRUE(gl.completed && hyb.completed && dsw.completed);
  EXPECT_LT(hyb.cycles, dsw.cycles) << "hardware counting beats the software tree";
  EXPECT_LT(gl.cycles, hyb.cycles) << "G-lines beat the mesh-funnelled unit";
  EXPECT_GT(hyb.total_msgs(), 0u);
  EXPECT_EQ(gl.total_msgs(), 0u);
}

// ---------------------------------------------------------------------------
// Core::WaitOn
// ---------------------------------------------------------------------------

/// A device that releases every arrival `delay` cycles later.
class DelayDevice final : public core::BarrierDevice {
 public:
  DelayDevice(sim::Engine& engine, Cycle delay) : engine_(engine), delay_(delay) {}
  using core::BarrierDevice::Arrive;
  void Arrive(CoreId, core::BarrierWaiter& waiter) override {
    engine_.ScheduleIn(delay_, [w = &waiter] { w->Release(); });
  }

 private:
  sim::Engine& engine_;
  Cycle delay_;
};

TEST(WaitOn, SuspendsUntilDeviceRelease) {
  CmpSystem sys(CmpConfig::WithCores(4));
  DelayDevice dev(sys.engine(), 123);
  Cycle resumed_at = 0;
  auto body = [](Core& c, core::BarrierDevice& d, Cycle* out) -> Task {
    co_await c.WaitOn(d);
    *out = c.engine().Now();
  };
  sys.core(0).Run(body(sys.core(0), dev, &resumed_at));
  ASSERT_TRUE(sys.engine().RunUntilIdle(10'000));
  EXPECT_EQ(resumed_at, 123u);
  EXPECT_EQ(sys.core(0).breakdown()[core::TimeCat::kBusy], 123u);
}

TEST(WaitOn, AttributesToRequestedCategory) {
  CmpSystem sys(CmpConfig::WithCores(4));
  DelayDevice dev(sys.engine(), 40);
  auto body = [](Core& c, core::BarrierDevice& d) -> Task {
    co_await c.WaitOn(d, core::TimeCat::kLock);
  };
  sys.core(1).Run(body(sys.core(1), dev));
  ASSERT_TRUE(sys.engine().RunUntilIdle(10'000));
  EXPECT_EQ(sys.core(1).breakdown()[core::TimeCat::kLock], 40u);
}

}  // namespace
}  // namespace glb
