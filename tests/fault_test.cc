// Fault-injection subsystem + self-healing barrier network tests:
// FaultPlan parsing, scripted and probabilistic injection decisions,
// watchdog-driven retry, the early-release guard, release-wave
// re-drive, the degraded-mode software fallback, NoC link penalties,
// and the loud Engine stall status.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/stats.h"
#include "fault/fault_injector.h"
#include "fault/fault_model.h"
#include "gline/barrier_network.h"
#include "noc/mesh.h"
#include "sim/engine.h"

namespace glb::fault {
namespace {

using gline::BarrierNetConfig;
using gline::BarrierNetwork;

Flags MakeFlags(std::vector<std::string> args) {
  args.insert(args.begin(), "test");
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (auto& a : args) argv.push_back(a.data());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

// ---------------------------------------------------------------------------
// FaultPlan / flags
// ---------------------------------------------------------------------------

TEST(FaultPlan, DisabledByDefault) {
  EXPECT_FALSE(FaultPlan{}.enabled());
  const Flags flags = MakeFlags({});
  EXPECT_FALSE(PlanFromFlags(flags).enabled());
}

TEST(FaultPlan, PlanFromFlagsParsesRatesAndScript) {
  const Flags flags = MakeFlags({"--fault_seed=7", "--fault_gline_drop=0.25",
                                 "--fault_csma=0.5", "--fault_csma_skew=3",
                                 "--fault_freeze_cycles=123",
                                 "--fault_script=10:gline_drop:sglineH0,20:csma::-1,"
                                 "30:freeze:5:40"});
  const FaultPlan p = PlanFromFlags(flags);
  EXPECT_TRUE(p.enabled());
  EXPECT_EQ(p.seed, 7u);
  EXPECT_DOUBLE_EQ(p.gline_drop_rate, 0.25);
  EXPECT_DOUBLE_EQ(p.csma_corrupt_rate, 0.5);
  EXPECT_EQ(p.csma_max_skew, 3u);
  EXPECT_EQ(p.core_freeze_cycles, 123u);
  ASSERT_EQ(p.script.size(), 3u);
  EXPECT_EQ(p.script[0].cycle, 10u);
  EXPECT_EQ(p.script[0].site, FaultSite::kGlineDrop);
  EXPECT_EQ(p.script[0].target, "sglineH0");
  EXPECT_EQ(p.script[0].magnitude, 0);
  EXPECT_EQ(p.script[1].site, FaultSite::kCsmaCorrupt);
  EXPECT_EQ(p.script[1].target, "");
  EXPECT_EQ(p.script[1].magnitude, -1);
  EXPECT_EQ(p.script[2].site, FaultSite::kCoreFreeze);
  EXPECT_EQ(p.script[2].target, "5");
  EXPECT_EQ(p.script[2].magnitude, 40);
}

TEST(FaultPlanDeath, BadSiteNameExitsWithStatus2) {
  // CLI convention: unknown names are a usage error (exit 2, like
  // BarrierKindFromNameOrExit), not an internal CHECK abort.
  EXPECT_EXIT(PlanFromFlags(MakeFlags({"--fault_script=5:bogus"})),
              ::testing::ExitedWithCode(2), "unknown fault site");
}

TEST(FaultPlan, SiteNamesRoundTrip) {
  const FaultSite all[] = {FaultSite::kGlineDrop,    FaultSite::kGlineDuplicate,
                           FaultSite::kCsmaCorrupt,  FaultSite::kCoreFreeze,
                           FaultSite::kNocDelay,     FaultSite::kNocDrop,
                           FaultSite::kCoreSlowdown, FaultSite::kWorkSkew};
  for (FaultSite site : all) {
    FaultSite parsed;
    ASSERT_TRUE(FaultSiteFromName(ToString(site), &parsed))
        << "ToString spelling '" << ToString(site) << "' must parse back";
    EXPECT_EQ(parsed, site);
  }
  // Historical short aliases stay accepted.
  FaultSite s;
  ASSERT_TRUE(FaultSiteFromName("csma", &s));
  EXPECT_EQ(s, FaultSite::kCsmaCorrupt);
  ASSERT_TRUE(FaultSiteFromName("freeze", &s));
  EXPECT_EQ(s, FaultSite::kCoreFreeze);
  ASSERT_TRUE(FaultSiteFromName("slow", &s));
  EXPECT_EQ(s, FaultSite::kCoreSlowdown);
  ASSERT_TRUE(FaultSiteFromName("skew", &s));
  EXPECT_EQ(s, FaultSite::kWorkSkew);
  EXPECT_FALSE(FaultSiteFromName("bogus", &s));
}

TEST(FaultPlan, StragglerFlagsParseAndEnable) {
  const Flags flags = MakeFlags(
      {"--fault_slow=0.25", "--fault_slow_factor=3.5", "--fault_skew=0.75"});
  const FaultPlan p = PlanFromFlags(flags);
  EXPECT_TRUE(p.enabled());
  EXPECT_TRUE(p.stragglers());
  EXPECT_DOUBLE_EQ(p.core_slow_rate, 0.25);
  EXPECT_DOUBLE_EQ(p.core_slow_factor, 3.5);
  EXPECT_DOUBLE_EQ(p.work_skew, 0.75);
  // A scripted straggler site alone also counts as a straggler plan.
  FaultPlan scripted;
  scripted.script = {{0, FaultSite::kCoreSlowdown, "2", 100}};
  EXPECT_TRUE(scripted.stragglers());
  EXPECT_FALSE(FaultPlan{}.stragglers());
}

// ---------------------------------------------------------------------------
// Injection decisions (unit level)
// ---------------------------------------------------------------------------

TEST(FaultInjectorUnit, ScriptedAdjustCountDropAndSkew) {
  sim::Engine e;
  StatSet stats;
  FaultPlan plan;
  plan.script = {{0, FaultSite::kGlineDrop, "lineA", 0},
                 {0, FaultSite::kCsmaCorrupt, "lineA", +2}};
  FaultInjector inj(e, plan, stats);
  gline::GLine line_a(e, "lineA", 3, 6, gline::TxPolicy::kReject, nullptr);
  gline::GLine line_b(e, "lineB", 3, 6, gline::TxPolicy::kReject, nullptr);
  // Targets must match by substring: lineB is untouched.
  EXPECT_EQ(inj.AdjustCount(line_b, 3), 3u);
  // Drop (-1) and the scripted +2 skew both hit lineA's first batch.
  EXPECT_EQ(inj.AdjustCount(line_a, 3), 4u);
  // Scripted entries are consumed: the second batch is clean.
  EXPECT_EQ(inj.AdjustCount(line_a, 3), 3u);
  EXPECT_EQ(inj.total_injected(), 2u);
  EXPECT_EQ(stats.CounterValue("fault.gline_drop"), 1u);
  EXPECT_EQ(stats.CounterValue("fault.csma_corrupt"), 1u);
}

TEST(FaultInjectorUnit, ScriptWaitsForItsCycle) {
  sim::Engine e;
  StatSet stats;
  FaultPlan plan;
  plan.script = {{100, FaultSite::kGlineDrop, "", 0}};
  FaultInjector inj(e, plan, stats);
  gline::GLine line(e, "x", 1, 6, gline::TxPolicy::kReject, nullptr);
  EXPECT_EQ(inj.AdjustCount(line, 1), 1u) << "cycle 0 < scripted cycle 100";
  e.ScheduleAt(150, [&]() {
    // First opportunity at-or-after the scripted cycle fires it.
    EXPECT_EQ(inj.AdjustCount(line, 1), 0u);
  });
  e.RunUntilIdle();
  EXPECT_EQ(inj.total_injected(), 1u);
}

TEST(FaultInjectorUnit, FreezeDelayMatchesCoreTarget) {
  sim::Engine e;
  StatSet stats;
  FaultPlan plan;
  plan.script = {{0, FaultSite::kCoreFreeze, "3", 75}};
  FaultInjector inj(e, plan, stats);
  EXPECT_EQ(inj.FreezeDelay(1), 0u);
  EXPECT_EQ(inj.FreezeDelay(3), 75u);
  EXPECT_EQ(inj.FreezeDelay(3), 0u) << "scripted freeze consumed";
}

TEST(FaultInjectorUnit, WorkSkewRampIsDeterministic) {
  sim::Engine e;
  StatSet stats;
  FaultPlan plan;
  plan.work_skew = 1.0;  // last core gets 2x compute
  FaultInjector inj(e, plan, stats);
  inj.ConfigureCompute(5);
  EXPECT_EQ(inj.StretchCompute(0, 1000), 1000u) << "core 0 is never skewed";
  EXPECT_EQ(inj.StretchCompute(2, 1000), 1500u);
  EXPECT_EQ(inj.StretchCompute(4, 1000), 2000u);
  EXPECT_EQ(stats.CounterValue("fault.work_skew"), 4u)
      << "one pick per skewed core (cores 1..4)";
}

TEST(FaultInjectorUnit, CoreSlowdownPicksAreSeedStableAndOrderFree) {
  // The slow-core choice must depend only on (seed, core), never on the
  // order compute phases happen to execute in — that is what makes
  // straggler runs replay byte-identically under any --jobs value.
  FaultPlan plan;
  plan.seed = 42;
  plan.core_slow_rate = 0.5;
  plan.core_slow_factor = 4.0;
  auto picks = [&plan](bool reversed) {
    sim::Engine e;
    StatSet stats;
    FaultInjector inj(e, plan, stats);
    inj.ConfigureCompute(64);
    std::vector<Cycle> out(64);
    for (std::uint32_t i = 0; i < 64; ++i) {
      const CoreId c = reversed ? 63 - i : i;
      out[c] = inj.StretchCompute(c, 100);
    }
    return out;
  };
  const auto forward = picks(false);
  const auto backward = picks(true);
  EXPECT_EQ(forward, backward);
  std::uint32_t slow = 0;
  for (const Cycle c : forward) {
    EXPECT_TRUE(c == 100 || c == 400) << "factor is all-or-nothing per core";
    if (c == 400) ++slow;
  }
  EXPECT_GT(slow, 0u);
  EXPECT_LT(slow, 64u) << "rate 0.5 must not slow every core";
  // A different seed reshuffles the picked set.
  FaultPlan other = plan;
  other.seed = 43;
  sim::Engine e;
  StatSet stats;
  FaultInjector inj(e, other, stats);
  inj.ConfigureCompute(64);
  std::vector<Cycle> reseeded(64);
  for (CoreId c = 0; c < 64; ++c) reseeded[c] = inj.StretchCompute(c, 100);
  EXPECT_NE(forward, reseeded);
}

TEST(FaultInjectorUnit, ScriptedSlowdownIsPersistentFromItsCycle) {
  sim::Engine e;
  StatSet stats;
  FaultPlan plan;
  plan.script = {{100, FaultSite::kCoreSlowdown, "2", 50}};  // 1.5x core 2
  FaultInjector inj(e, plan, stats);
  inj.ConfigureCompute(4);
  EXPECT_EQ(inj.StretchCompute(2, 1000), 1000u) << "cycle 0 < scripted cycle";
  e.ScheduleAt(150, [&]() {
    EXPECT_EQ(inj.StretchCompute(2, 1000), 1500u);
    EXPECT_EQ(inj.StretchCompute(3, 1000), 1000u) << "only core 2 targeted";
    // Persistent: unlike freeze, the slowdown applies forever after.
    EXPECT_EQ(inj.StretchCompute(2, 1000), 1500u);
  });
  e.RunUntilIdle();
  EXPECT_EQ(stats.CounterValue("fault.core_slow"), 1u);
}

// ---------------------------------------------------------------------------
// Self-healing barrier network
// ---------------------------------------------------------------------------

/// A flat G-line device under an armed injector; `net` is its one node.
struct FaultNetFixture {
  sim::Engine engine;
  StatSet stats;
  std::unique_ptr<gline::HierarchicalBarrierNetwork> dev;
  BarrierNetwork* net = nullptr;
  std::unique_ptr<FaultInjector> inj;

  FaultNetFixture(std::uint32_t rows, std::uint32_t cols, const FaultPlan& plan,
                  Cycle watchdog = 200, std::uint32_t retries = 2) {
    BarrierNetConfig cfg;
    cfg.watchdog_timeout = watchdog;
    cfg.max_retries = retries;
    dev = std::make_unique<gline::HierarchicalBarrierNetwork>(
        engine, rows, cols, gline::HierConfig::Flat(cfg), stats);
    net = &dev->node(0, 0);
    inj = std::make_unique<FaultInjector>(engine, plan, stats);
    inj->Arm(*dev);
  }

  std::vector<Cycle> RunOneBarrier(const std::vector<Cycle>& arrival_cycles) {
    std::vector<Cycle> released(net->num_cores(), kCycleNever);
    for (CoreId c = 0; c < net->num_cores(); ++c) {
      if (arrival_cycles[c] == kCycleNever) continue;
      engine.ScheduleAt(arrival_cycles[c], [this, c, &released]() {
        dev->Arrive(c, [this, c, &released]() { released[c] = engine.Now(); });
      });
    }
    EXPECT_TRUE(engine.RunUntilIdle(1'000'000)) << "episode hangs";
    return released;
  }
};

TEST(SelfHealing, DroppedArrivalRecoversViaWatchdogRetry) {
  FaultPlan plan;
  plan.script = {{0, FaultSite::kGlineDrop, "sglineH0", 0}};
  FaultNetFixture f(2, 2, plan, /*watchdog=*/100);
  const auto released = f.RunOneBarrier(std::vector<Cycle>(4, 10));
  for (CoreId c = 0; c < 4; ++c) {
    ASSERT_NE(released[c], kCycleNever) << "core " << c << " stuck";
    // Recovery means: nothing before the watchdog fired at 10+100.
    EXPECT_GE(released[c], 110u);
    EXPECT_LE(released[c], 130u);
  }
  EXPECT_FALSE(f.net->degraded());
  EXPECT_EQ(f.net->barriers_completed(), 1u);
  EXPECT_EQ(f.stats.CounterValue("gl.timeouts"), 1u);
  EXPECT_EQ(f.stats.CounterValue("gl.retries"), 1u);
  EXPECT_EQ(f.stats.CounterValue("gl.degraded_episodes"), 0u);
  EXPECT_EQ(f.net->episode_retries(), 0u) << "reset after a clean completion";
}

TEST(SelfHealing, DuplicatedAssertionNeverReleasesEarly) {
  // 1x3 mesh: the duplicated slave assertion completes row 0's count
  // while core 2 is still missing; the release guard must catch it.
  FaultPlan plan;
  plan.script = {{0, FaultSite::kGlineDuplicate, "sglineH0", 0}};
  // Watchdog well beyond the 400-cycle arrival skew: recovery here must
  // come from the early-completion guard, not from a timeout.
  FaultNetFixture f(1, 3, plan, /*watchdog=*/5000);
  std::vector<Cycle> arrivals{10, 10, 400};  // core 2 very late
  const auto released = f.RunOneBarrier(arrivals);
  for (CoreId c = 0; c < 3; ++c) {
    ASSERT_NE(released[c], kCycleNever);
    EXPECT_GE(released[c], 400u) << "core " << c << " released before core 2";
  }
  EXPECT_FALSE(f.net->degraded());
  EXPECT_EQ(f.net->barriers_completed(), 1u);
  EXPECT_GE(f.stats.CounterValue("gl.miscounts"), 1u);
}

TEST(SelfHealing, FrozenCoreDelaysButCompletes) {
  FaultPlan plan;
  plan.script = {{0, FaultSite::kCoreFreeze, "3", 40}};
  FaultNetFixture f(2, 2, plan, /*watchdog=*/200);
  const auto released = f.RunOneBarrier(std::vector<Cycle>(4, 10));
  for (CoreId c = 0; c < 4; ++c) {
    ASSERT_NE(released[c], kCycleNever);
    EXPECT_GE(released[c], 50u) << "released before the frozen core arrived";
    EXPECT_LE(released[c], 60u);
  }
  EXPECT_EQ(f.stats.CounterValue("gl.timeouts"), 0u)
      << "freeze shorter than the watchdog needs no recovery";
  EXPECT_EQ(f.stats.CounterValue("fault.core_freeze"), 1u);
}

TEST(SelfHealing, LostReleaseWaveIsRedriven) {
  // The gather completes cleanly; the MglineV release assertion is lost.
  FaultPlan plan;
  plan.script = {{0, FaultSite::kGlineDrop, "mglineV", 0}};
  FaultNetFixture f(2, 2, plan, /*watchdog=*/100);
  const auto released = f.RunOneBarrier(std::vector<Cycle>(4, 10));
  for (CoreId c = 0; c < 4; ++c) {
    ASSERT_NE(released[c], kCycleNever) << "core " << c << " stuck";
    EXPECT_GE(released[c], 110u);
  }
  EXPECT_FALSE(f.net->degraded());
  EXPECT_EQ(f.net->barriers_completed(), 1u);
  EXPECT_EQ(f.stats.CounterValue("gl.timeouts"), 1u);
  // The network stays healthy for the next episode.
  const Cycle t = f.engine.Now() + 10;
  const auto again = f.RunOneBarrier(std::vector<Cycle>(4, t));
  for (CoreId c = 0; c < 4; ++c) {
    ASSERT_NE(again[c], kCycleNever);
    EXPECT_LE(again[c], t + 4);
  }
}

TEST(SelfHealing, PersistentFaultDegradesToFallbackAndSticks) {
  FaultPlan plan;
  plan.gline_drop_rate = 1.0;  // every wire batch loses an assertion
  FaultNetFixture f(2, 2, plan, /*watchdog=*/50, /*retries=*/2);
  const auto released = f.RunOneBarrier(std::vector<Cycle>(4, 10));
  for (CoreId c = 0; c < 4; ++c) {
    ASSERT_NE(released[c], kCycleNever) << "degraded episode must complete";
  }
  EXPECT_TRUE(f.net->degraded());
  EXPECT_EQ(f.net->barriers_completed(), 1u);
  EXPECT_EQ(f.stats.CounterValue("gl.retries"), 2u);
  EXPECT_EQ(f.stats.CounterValue("gl.timeouts"), 3u);
  EXPECT_EQ(f.stats.CounterValue("gl.degraded_episodes"), 1u);
  const Histogram* rec = f.stats.FindHistogram("gl.ctx0.recovery_latency");
  ASSERT_NE(rec, nullptr);
  EXPECT_GT(rec->count(), 0u);

  // Sticky: the next episode goes straight through the fallback, with
  // its kFallbackLatency (32) release cost and no new timeouts.
  const Cycle t = f.engine.Now() + 10;
  const auto again = f.RunOneBarrier(std::vector<Cycle>(4, t));
  for (CoreId c = 0; c < 4; ++c) {
    ASSERT_NE(again[c], kCycleNever);
    EXPECT_EQ(again[c], t + 32);
  }
  EXPECT_EQ(f.stats.CounterValue("gl.timeouts"), 3u) << "no watchdog when degraded";
  EXPECT_EQ(f.stats.CounterValue("gl.degraded_episodes"), 2u);
  EXPECT_EQ(f.net->barriers_completed(), 2u);
}

TEST(SelfHealing, ResilientModeOffPreservesFourCycleLatency) {
  // watchdog_timeout == 0 with a disabled plan: latency is exactly the
  // paper's, and no resilience stats exist at all.
  FaultNetFixture f(2, 2, FaultPlan{}, /*watchdog=*/0);
  const auto released = f.RunOneBarrier(std::vector<Cycle>(4, 10));
  EXPECT_EQ(released[0], 13u);
  EXPECT_EQ(released[1], 14u);
  EXPECT_EQ(released[2], 13u);
  EXPECT_EQ(released[3], 14u);
  EXPECT_EQ(f.stats.CounterValue("gl.timeouts"), 0u);
}

TEST(SelfHealing, ResilientModeHappyPathKeepsLatencyAndSignals) {
  // Resilience armed but no faults: still the 4-cycle barrier, same
  // signal count as the fault-free design.
  FaultNetFixture healthy(2, 2, FaultPlan{}, /*watchdog=*/0);
  FaultNetFixture armed(2, 2, FaultPlan{}, /*watchdog=*/500);
  const auto r0 = healthy.RunOneBarrier(std::vector<Cycle>(4, 10));
  const auto r1 = armed.RunOneBarrier(std::vector<Cycle>(4, 10));
  EXPECT_EQ(r0, r1);
  EXPECT_EQ(healthy.stats.CounterValue("gl.signals"),
            armed.stats.CounterValue("gl.signals"));
}

// ---------------------------------------------------------------------------
// NoC link penalties
// ---------------------------------------------------------------------------

Cycle DeliveryCycle(sim::Engine& e, noc::Mesh& mesh, CoreId src, CoreId dst) {
  Cycle delivered = kCycleNever;
  noc::Packet pkt;
  pkt.src = src;
  pkt.dst = dst;
  pkt.vnet = noc::VNet::kRequest;
  pkt.traffic = noc::TrafficClass::kRequest;
  pkt.bytes = 8;
  pkt.deliver = [&]() { delivered = e.Now(); };
  mesh.Send(std::move(pkt));
  e.RunUntilIdle();
  return delivered;
}

TEST(NocFaults, ScriptedDelayAndRetransmitAddExactPenalty) {
  sim::Engine e1, e2;
  StatSet s1, s2;
  noc::MeshConfig mc;
  mc.rows = 2;
  mc.cols = 2;
  noc::Mesh clean(e1, mc, s1);
  noc::Mesh faulty(e2, mc, s2);
  FaultPlan plan;
  plan.script = {{0, FaultSite::kNocDelay, "1", 25},
                 {0, FaultSite::kNocDrop, "1", 30}};
  FaultInjector inj(e2, plan, s2);
  inj.Arm(faulty);
  const Cycle base = DeliveryCycle(e1, clean, 0, 1);
  const Cycle hit = DeliveryCycle(e2, faulty, 0, 1);
  ASSERT_NE(base, kCycleNever);
  ASSERT_NE(hit, kCycleNever) << "faulty transfers are delayed, never lost";
  EXPECT_EQ(hit, base + 25 + 30);
  EXPECT_EQ(s2.CounterValue("fault.noc_delay"), 1u);
  EXPECT_EQ(s2.CounterValue("fault.noc_drop"), 1u);
}

// The directory protocol needs every source/destination pair to stay
// FIFO: a penalty on one packet must hold back the next one on the same
// pair instead of letting it overtake, in the mesh and on the tile.
TEST(NocFaults, PenaltyKeepsPairFifoOrder) {
  for (const CoreId dst : {CoreId{1}, CoreId{0}}) {
    SCOPED_TRACE(dst == 0 ? "tile-local" : "through the mesh");
    sim::Engine e;
    StatSet s;
    noc::MeshConfig mc;
    mc.rows = 2;
    mc.cols = 2;
    noc::Mesh mesh(e, mc, s);
    FaultPlan plan;
    plan.script = {{0, FaultSite::kNocDelay, std::to_string(dst), 25}};
    FaultInjector inj(e, plan, s);
    inj.Arm(mesh);
    std::vector<int> order;
    Cycle second_at = kCycleNever;
    for (int i = 1; i <= 2; ++i) {
      noc::Packet pkt;
      pkt.src = 0;
      pkt.dst = dst;
      pkt.vnet = noc::VNet::kRequest;
      pkt.traffic = noc::TrafficClass::kRequest;
      pkt.bytes = 8;
      pkt.deliver = [&order, &e, &second_at, i]() {
        order.push_back(i);
        if (i == 2) second_at = e.Now();
      };
      mesh.Send(std::move(pkt));
    }
    e.RunUntilIdle();
    EXPECT_EQ(s.CounterValue("fault.noc_delay"), 1u) << "only packet 1 is delayed";
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_GT(second_at, Cycle{25}) << "packet 2 waited behind packet 1";
  }
}

TEST(NocFaults, LocalDeliveryAlsoPenalized) {
  sim::Engine e;
  StatSet s;
  noc::MeshConfig mc;
  mc.rows = 2;
  mc.cols = 2;
  noc::Mesh mesh(e, mc, s);
  FaultPlan plan;
  plan.script = {{0, FaultSite::kNocDelay, "0", 10}};
  FaultInjector inj(e, plan, s);
  inj.Arm(mesh);
  const Cycle hit = DeliveryCycle(e, mesh, 0, 0);
  EXPECT_EQ(hit, mc.local_latency + 10);
}

}  // namespace
}  // namespace glb::fault
