// Fault-injection fuzz for the self-healing barrier network.
//
// Companion to tests/gline_fuzz_test.cc: instead of checking exact
// release cycles against the closed-form oracle (meaningless under
// faults), this drives randomized fault plans over random meshes and
// asserts the resilience invariant from barrier_network.h:
//
//   every episode completes — cleanly, after hardware retries, or
//   degraded through the software fallback — the simulation never
//   hangs, and no core is ever released before every participant of
//   its episode arrived.
//
// Plans are drawn per seed from a range that spans "occasional glitch"
// (retry path) to "wire is toast" (degrade path), so both recovery
// regimes are exercised every run of the suite.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "cmp/cmp_system.h"
#include "common/rng.h"
#include "common/stats.h"
#include "fault/fault_injector.h"
#include "fault/fault_model.h"
#include "gline/barrier_network.h"
#include "gline/hierarchy.h"
#include "harness/experiment.h"
#include "harness/manifest.h"
#include "sim/engine.h"
#include "workloads/synthetic.h"

namespace glb::gline {
namespace {

class FaultFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultFuzz, EpisodesAlwaysCompleteAndNeverReleaseEarly) {
  Rng rng(GetParam() * 0x9E3779B9u);

  const std::pair<std::uint32_t, std::uint32_t> shapes[] = {
      {2, 2}, {1, 5}, {3, 4}, {4, 4}, {4, 8}};
  const auto [rows, cols] = shapes[rng.NextBelow(std::size(shapes))];
  const std::uint32_t n = rows * cols;

  sim::Engine engine;
  StatSet stats;
  BarrierNetConfig cfg;
  // Watchdog comfortably above the worst-case arrival skew (60) plus the
  // longest injected freeze, so a fault-free episode never times out.
  cfg.watchdog_timeout = 400;
  cfg.max_retries = static_cast<std::uint32_t>(rng.NextBelow(4));
  HierarchicalBarrierNetwork net(engine, rows, cols, HierConfig::Flat(cfg), stats);

  fault::FaultPlan plan;
  plan.seed = GetParam();
  // 0 .. 0.3 per rate: low end exercises clean runs and single retries,
  // high end reliably exhausts the retry budget and degrades.
  plan.gline_drop_rate = rng.NextBool(0.7) ? rng.NextDouble() * 0.3 : 0.0;
  plan.gline_dup_rate = rng.NextBool(0.4) ? rng.NextDouble() * 0.2 : 0.0;
  plan.csma_corrupt_rate = rng.NextBool(0.4) ? rng.NextDouble() * 0.2 : 0.0;
  plan.core_freeze_rate = rng.NextBool(0.3) ? rng.NextDouble() * 0.1 : 0.0;
  plan.core_freeze_cycles = 1 + rng.NextBelow(200);
  fault::FaultInjector inj(engine, plan, stats);
  inj.Arm(net);

  constexpr int kEpisodes = 10;
  int episode = 0;
  std::uint32_t arrived = 0;   // bar_reg writes in the current episode
  std::uint32_t released = 0;  // releases in the current episode
  bool early_release = false;

  // Sequential episode driver: the next episode starts only after every
  // core of the previous one was released.
  std::function<void()> start_episode = [&]() {
    arrived = 0;
    released = 0;
    const Cycle now = engine.Now();
    for (CoreId c = 0; c < n; ++c) {
      const Cycle at = now + 1 + rng.NextBelow(60);
      engine.ScheduleAt(at, [&, c]() {
        ++arrived;
        net.Arrive(c, [&]() {
          // The invariant under ANY fault plan: a release implies every
          // core already wrote bar_reg this episode.
          if (arrived != n) early_release = true;
          if (++released == n && ++episode < kEpisodes) start_episode();
        });
      });
    }
  };
  start_episode();

  ASSERT_TRUE(engine.RunUntilIdle(50'000'000))
      << "barrier network hung under fault plan seed " << GetParam() << " ("
      << rows << "x" << cols << ", drop=" << plan.gline_drop_rate
      << " dup=" << plan.gline_dup_rate << " csma=" << plan.csma_corrupt_rate
      << " freeze=" << plan.core_freeze_rate << ")";
  EXPECT_EQ(episode, kEpisodes) << "starved (seed " << GetParam() << ")";
  EXPECT_FALSE(early_release)
      << "released a core early (seed " << GetParam() << ")";
  // Every episode was accounted for, clean or degraded.
  EXPECT_EQ(net.barriers_completed(), static_cast<std::uint64_t>(kEpisodes));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultFuzz, ::testing::Range<std::uint64_t>(1, 25));

// A fault-free plan through the armed hooks must behave exactly like the
// unarmed network: same release cycles, no recovery activity.
TEST(FaultFuzzBaseline, ArmedButQuietPlanIsInert) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    Rng rng(seed);
    sim::Engine e_ref, e_inj;
    StatSet s_ref, s_inj;
    BarrierNetConfig cfg;
    cfg.watchdog_timeout = 1000;
    HierarchicalBarrierNetwork ref(e_ref, 3, 4, HierConfig::Flat(cfg), s_ref);
    HierarchicalBarrierNetwork hooked(e_inj, 3, 4, HierConfig::Flat(cfg), s_inj);
    fault::FaultPlan quiet;  // all rates zero, no script
    fault::FaultInjector inj(e_inj, quiet, s_inj);
    inj.Arm(hooked);

    std::vector<Cycle> arrival(12);
    for (auto& a : arrival) a = 1 + rng.NextBelow(50);
    auto drive = [&](sim::Engine& e, HierarchicalBarrierNetwork& net) {
      std::vector<Cycle> released(12, kCycleNever);
      for (CoreId c = 0; c < 12; ++c) {
        e.ScheduleAt(arrival[c], [&, c]() {
          net.Arrive(c, [&, c]() { released[c] = e.Now(); });
        });
      }
      EXPECT_TRUE(e.RunUntilIdle(1'000'000));
      return released;
    };
    EXPECT_EQ(drive(e_ref, ref), drive(e_inj, hooked));
    EXPECT_EQ(s_inj.CounterValue("fault.injected"), 0u);
    EXPECT_EQ(s_inj.CounterValue("gl.timeouts"), 0u);
  }
}

// ---------------------------------------------------------------------------
// Self-healing v2: straggler + rejoin fuzz
// ---------------------------------------------------------------------------

// Randomized straggler plans (persistent slowdowns, work skew) combined
// with G-line drops over 32..1024-core meshes, flat and hierarchical,
// with the v2 adaptive watchdog and hardware rejoin armed. Asserts the
// v1 safety invariant (never hang, never release early, every episode
// completes) plus the v2 liveness obligation: when the fault horizon is
// finite (scripted drops only), every degraded context must eventually
// shadow-probe the healthy wires and rejoin.
class StragglerRejoinFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StragglerRejoinFuzz, SafetyHoldsAndFaultFreePlansRejoin) {
  Rng rng(GetParam() * 0x2545F4914F6CDD1Dull + 17);

  // Shape and topology derive from the seed index (not the rng) so the
  // 15-seed suite provably covers every (mesh, flat-vs-hier) combination
  // including both 64-core and 1024-core extremes.
  const std::pair<std::uint32_t, std::uint32_t> shapes[] = {
      {4, 8}, {8, 8}, {16, 16}, {32, 32}};  // 32 .. 1024 cores
  const auto [rows, cols] = shapes[(GetParam() - 1) % std::size(shapes)];
  const std::uint32_t n = rows * cols;
  const bool hier = (GetParam() % 2) == 0;

  // Scripted drops are a finite fault horizon: once every entry is
  // consumed the wires are healthy forever, so eventual rejoin is an
  // obligation. Some seeds add a persistent probabilistic drop rate
  // instead; those assert safety only (staying degraded is legitimate
  // when the wire really is flaky).
  const bool persistent_drops = rng.NextBool(0.33);

  sim::Engine engine;
  StatSet stats;

  // Watchdog floor above the worst-case stretched arrival skew: base
  // delay <= 40, slowdown factor <= 4, skew factor <= 2 => 320 cycles.
  const Cycle watchdog = 400 + rng.NextBelow(201);
  const auto retries = static_cast<std::uint32_t>(rng.NextBelow(3));
  const double mult = 2.0 + rng.NextDouble() * 4.0;
  const auto probe_after = static_cast<std::uint32_t>(1 + rng.NextBelow(3));
  const auto probe_successes = static_cast<std::uint32_t>(1 + rng.NextBelow(2));

  HierConfig cfg = hier ? HierConfig{} : HierConfig::Flat();
  cfg.node.watchdog_timeout = watchdog;
  cfg.node.max_retries = retries;
  cfg.node.watchdog_mult = mult;
  cfg.node.probe_after = probe_after;
  cfg.node.probe_successes = probe_successes;
  HierarchicalBarrierNetwork net(engine, rows, cols, cfg, stats);

  fault::FaultPlan plan;
  plan.seed = GetParam();
  plan.core_slow_rate = rng.NextBool(0.7) ? rng.NextDouble() * 0.5 : 0.0;
  plan.core_slow_factor = 2.0 + rng.NextDouble() * 2.0;  // 2 .. 4
  plan.work_skew = rng.NextBool(0.5) ? rng.NextDouble() : 0.0;
  if (persistent_drops) plan.gline_drop_rate = 0.05 + rng.NextDouble() * 0.15;
  const auto scripted = static_cast<std::uint32_t>(rng.NextBelow(12));
  for (std::uint32_t i = 0; i < scripted; ++i) {
    plan.script.push_back(
        {rng.NextBelow(4000), fault::FaultSite::kGlineDrop, "sglineH", 0});
  }
  fault::FaultInjector inj(engine, plan, stats);
  inj.Arm(net);
  inj.ConfigureCompute(n);

  std::uint64_t episodes_done = 0;
  auto run_episode = [&]() {
    std::uint32_t arrived = 0, released = 0;
    bool early = false;
    const Cycle now = engine.Now();
    for (CoreId c = 0; c < n; ++c) {
      const Cycle at = now + inj.StretchCompute(c, 1 + rng.NextBelow(40));
      engine.ScheduleAt(at, [&, c]() {
        ++arrived;
        net.Arrive(c, [&]() {
          if (arrived != n) early = true;
          ++released;
        });
      });
    }
    ASSERT_TRUE(engine.RunUntilIdle(20'000'000))
        << "hung in episode " << episodes_done << " (seed " << GetParam()
        << ", " << rows << "x" << cols << (hier ? " hier" : " flat") << ")";
    ASSERT_FALSE(early) << "released a core before all " << n
                        << " arrived (seed " << GetParam() << ")";
    ASSERT_EQ(released, n) << "episode " << episodes_done
                           << " starved (seed " << GetParam() << ")";
    ++episodes_done;
  };

  constexpr std::uint64_t kEpisodes = 12;
  for (std::uint64_t e = 0; e < kEpisodes; ++e) {
    run_episode();
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_EQ(net.barriers_completed(), kEpisodes);

  if (!persistent_drops) {
    // Settling phase: the wires have been healthy since the last
    // scripted entry was consumed, so probes must eventually run clean
    // and every degraded context must return to the hardware path.
    int extra = 0;
    while (net.degraded_any() && extra < 40) {
      run_episode();
      if (::testing::Test::HasFatalFailure()) return;
      ++extra;
    }
    EXPECT_FALSE(net.degraded_any())
        << "context never rejoined after the scripted fault horizon (seed "
        << GetParam() << ", " << extra << " settling episodes)";
    const std::uint64_t deg = net.AggregateCounter("degraded_episodes");
    const std::uint64_t rejoins = net.AggregateCounter("rejoins");
    if (deg > 0) {
      EXPECT_GE(rejoins, 1u)
          << "episodes degraded but no rejoin recorded (seed " << GetParam()
          << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StragglerRejoinFuzz,
                         ::testing::Range<std::uint64_t>(1, 16));

// Scripted regression with a provable rejoin: one drop kills the first
// episode's gather, zero retry budget degrades the context immediately,
// and because the script is then spent the probe sequence must bring
// the context back — with post-rejoin releases bit-identical to a
// never-faulted reference network.
TEST(StragglerRejoinRegression, FlatScriptedDropDegradesThenRejoins) {
  sim::Engine engine;
  StatSet stats;
  BarrierNetConfig cfg;
  cfg.watchdog_timeout = 100;
  cfg.max_retries = 0;
  cfg.probe_after = 2;
  cfg.probe_successes = 1;
  HierarchicalBarrierNetwork dev(engine, 2, 2, HierConfig::Flat(cfg), stats);
  const BarrierNetwork& net = dev.node(0, 0);

  fault::FaultPlan plan;
  plan.script.push_back({0, fault::FaultSite::kGlineDrop, "sglineH", 0});
  fault::FaultInjector inj(engine, plan, stats);
  inj.Arm(dev);

  auto episode = [&](Cycle start) {
    std::vector<Cycle> released(4, kCycleNever);
    for (CoreId c = 0; c < 4; ++c) {
      engine.ScheduleAt(start, [&, c]() {
        dev.Arrive(c, [&, c]() { released[c] = engine.Now(); });
      });
    }
    EXPECT_TRUE(engine.RunUntilIdle(1'000'000));
    for (Cycle r : released) EXPECT_NE(r, kCycleNever);
    return released;
  };

  // Episode 1: the scripted drop eats a row gather; with no retry
  // budget the watchdog degrades the context straight to the fallback.
  episode(10);
  ASSERT_TRUE(net.degraded());
  EXPECT_EQ(net.health(), BarrierNetwork::Health::kDegraded);
  EXPECT_EQ(stats.CounterValue("gl.degraded_episodes"), 1u);

  // Fallback episodes accumulate toward probe_after = 2; the next
  // episode's arrivals are then shadow-signaled through the (now
  // healthy) wires and one clean probe rejoins the hardware path.
  Cycle t = 1000;
  while (net.degraded() && t < 20'000) {
    episode(t);
    t += 1000;
  }
  EXPECT_FALSE(net.degraded());
  EXPECT_EQ(net.health(), BarrierNetwork::Health::kRejoined);
  EXPECT_GE(net.rejoins(), 1u);
  EXPECT_GE(stats.CounterValue("gl.probes"), 1u);
  EXPECT_EQ(stats.CounterValue("gl.rejoins"), net.rejoins());

  // Post-rejoin episodes must run on hardware again: same release
  // cycles as a reference network that never saw a fault.
  sim::Engine ref_engine;
  StatSet ref_stats;
  BarrierNetwork ref(ref_engine, 2, 2, cfg, ref_stats);
  std::vector<Cycle> ref_released(4, kCycleNever);
  for (CoreId c = 0; c < 4; ++c) {
    ref_engine.ScheduleAt(100, [&, c]() {
      ref.Arrive(c, [&, c]() { ref_released[c] = ref_engine.Now(); });
    });
  }
  EXPECT_TRUE(ref_engine.RunUntilIdle(1'000'000));
  const Cycle t0 = t + 1000;
  const auto got = episode(t0);
  for (CoreId c = 0; c < 4; ++c) {
    EXPECT_EQ(got[c] - t0, ref_released[c] - 100)
        << "core " << c << " not released on the 4-cycle hardware path";
  }
}

// Same obligation at depth: a scripted drop confined to one leaf
// cluster of an 8x8 two-level hierarchy degrades that node only, and
// the node (not the whole chip) probes and rejoins.
TEST(StragglerRejoinRegression, HierLeafNodeRejoinsAtDepth) {
  sim::Engine engine;
  StatSet stats;
  HierConfig cfg;
  cfg.node.watchdog_timeout = 200;
  cfg.node.max_retries = 0;
  cfg.node.probe_after = 2;
  cfg.node.probe_successes = 1;
  HierarchicalBarrierNetwork net(engine, 8, 8, cfg, stats);
  ASSERT_GE(net.num_levels(), 2u);

  fault::FaultPlan plan;
  plan.script.push_back({0, fault::FaultSite::kGlineDrop, "l0.c0.", 0});
  fault::FaultInjector inj(engine, plan, stats);
  inj.Arm(net);

  constexpr std::uint32_t kCores = 64;
  int episodes = 0;
  auto episode = [&](Cycle start) {
    std::uint32_t arrived = 0, released = 0;
    bool early = false;
    for (CoreId c = 0; c < kCores; ++c) {
      engine.ScheduleAt(start, [&, c]() {
        ++arrived;
        net.Arrive(c, [&]() {
          if (arrived != kCores) early = true;
          ++released;
        });
      });
    }
    ASSERT_TRUE(engine.RunUntilIdle(10'000'000));
    ASSERT_FALSE(early);
    ASSERT_EQ(released, kCores);
    ++episodes;
  };

  episode(10);
  if (::testing::Test::HasFatalFailure()) return;
  ASSERT_TRUE(net.degraded_any());
  // The fault was confined to node l0.c0; its siblings stay healthy.
  EXPECT_TRUE(net.node(0, 0).degraded());
  EXPECT_FALSE(net.node(0, 1).degraded());
  EXPECT_FALSE(net.node(1, 0).degraded());

  Cycle t = 5000;
  while (net.degraded_any() && t < 100'000) {
    episode(t);
    if (::testing::Test::HasFatalFailure()) return;
    t += 5000;
  }
  EXPECT_FALSE(net.degraded_any());
  EXPECT_EQ(net.node(0, 0).health(), BarrierNetwork::Health::kRejoined);
  EXPECT_GE(net.AggregateCounter("rejoins"), 1u);
  EXPECT_GE(net.AggregateCounter("probes"), 1u);
  EXPECT_EQ(net.barriers_completed(), static_cast<std::uint64_t>(episodes));
}

// ---------------------------------------------------------------------------
// 256-core straggler determinism
// ---------------------------------------------------------------------------

namespace determinism {

/// Compute-then-barrier loop (the straggler hooks stretch Compute, so
/// the workload must actually compute — Synthetic never does).
class ComputeLoop final : public workloads::Workload {
 public:
  const char* name() const override { return "ComputeLoop"; }
  std::string input_desc() const override { return "20 x 64-cycle phases"; }
  void Init(cmp::CmpSystem&) override {}
  core::Task Body(core::Core& core, CoreId, sync::Barrier& barrier) override {
    for (int it = 0; it < 20; ++it) {
      co_await core.Compute(64);
      co_await barrier.Wait(core);
    }
  }
  std::string Validate(cmp::CmpSystem& sys) override {
    const std::uint64_t expected = std::uint64_t{20} * sys.num_cores();
    const std::uint64_t got = sys.stats().CounterValue("core.barriers");
    if (got != expected) return "barrier count mismatch";
    return "";
  }
};

/// One full 256-core gl-hier run under a straggler+drop plan with the
/// v2 machinery armed, returning the complete run manifest (config,
/// metrics, resilience block, every counter and histogram).
std::string RunManifest() {
  cmp::CmpConfig cfg = cmp::CmpConfig::WithCores(256);
  cfg.hier.enabled = true;
  cfg.gline.watchdog_timeout = 400;
  cfg.gline.watchdog_mult = 3.0;
  cfg.gline.probe_after = 2;
  cfg.gline.probe_successes = 1;
  cfg.fault.seed = 7;
  cfg.fault.core_slow_rate = 0.25;
  cfg.fault.core_slow_factor = 6.0;
  cfg.fault.work_skew = 0.5;
  cfg.fault.gline_drop_rate = 0.01;

  cmp::CmpSystem sys(cfg);
  ComputeLoop wl;
  wl.Init(sys);
  auto barrier = harness::MakeBarrier(harness::BarrierKind::kGLH, sys);
  const sim::RunStatus status = sys.RunProgramsStatus(
      [&](core::Core& core, CoreId id) { return wl.Body(core, id, *barrier); },
      /*max_cycles=*/100'000'000);
  harness::RunMetrics m =
      harness::CollectMetrics(sys, status, wl, "GLH");  // wall_ms stays 0
  EXPECT_TRUE(m.completed) << m.stall;
  EXPECT_TRUE(m.validation.empty()) << m.validation;

  std::ostringstream os;
  harness::ManifestOptions opts;
  opts.tool = "fuzz";
  harness::WriteRunManifest(os, m, sys.config(), sys.stats(), opts);
  return os.str();
}

}  // namespace determinism

// Straggler picks are hash-derived from (seed, core), never from the
// shared decision stream, so a full 256-core run — stragglers, drops,
// adaptive watchdog, rejoins and all — must be byte-identical across
// repeats, down to every histogram in the manifest.
TEST(StragglerDeterminism, Hier256CoreManifestIsByteIdenticalAcrossRuns) {
  const std::string first = determinism::RunManifest();
  const std::string second = determinism::RunManifest();
  EXPECT_EQ(first, second);
  // The run must actually have exercised the straggler machinery.
  EXPECT_NE(first.find("\"core_slow_rate\""), std::string::npos);
  EXPECT_NE(first.find("\"resilience\""), std::string::npos);
}

}  // namespace
}  // namespace glb::gline
