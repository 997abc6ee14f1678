// Determinism regression gate for the engine swap: the bucketed-queue
// engine must reproduce runs byte-for-byte. Each scenario is executed
// twice in-process and its full textual output (walkthrough trace /
// JSON run manifest) compared for equality — any dependence on hash
// order, pointer values, or scheduling nondeterminism shows up as a
// diff. Also stresses the legacy ordering contract that interleaved
// zero-delay ScheduleIn(0) events run later in the same cycle, in
// scheduling order.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "cmp/cmp_system.h"
#include "common/stats.h"
#include "gline/barrier_network.h"
#include "harness/experiment.h"
#include "harness/manifest.h"
#include "harness/parallel.h"
#include "harness/spec.h"
#include "sim/engine.h"
#include "workloads/em3d.h"
#include "workloads/synthetic.h"

namespace glb {
namespace {

/// The Figure-2 walkthrough (bench/fig2_gline_walkthrough.cc) distilled
/// to a string: controller states cycle by cycle plus release times on
/// a 2x2 mesh.
std::string Fig2Walkthrough() {
  std::ostringstream os;
  sim::Engine engine;
  StatSet stats;
  gline::BarrierNetwork net(engine, 2, 2, gline::BarrierNetConfig{}, stats);
  std::vector<Cycle> released(4, kCycleNever);
  engine.ScheduleAt(0, [&]() {
    for (CoreId c = 0; c < 4; ++c) {
      net.Arrive(c, [&, c]() { released[c] = engine.Now(); });
    }
  });
  for (Cycle t = 0; t <= 6; ++t) {
    engine.RunUntil(t);
    os << "cycle " << t << ":";
    for (std::uint32_t r = 0; r < 2; ++r) {
      os << " ScntH" << r << "=" << net.ScntH(r) << " Mcnt" << r << "="
         << net.McntH(r);
    }
    os << " ScntV=" << net.ScntV() << "\n";
  }
  engine.RunUntilIdle();
  for (CoreId c = 0; c < 4; ++c) os << "core" << c << "@" << released[c] << " ";
  return os.str();
}

/// One 16-core Figure-5 point (Synthetic, all three mechanisms),
/// serialized as the full JSON run manifests. Host-timing fields are
/// zeroed: they are wall-clock, explicitly outside the determinism
/// guarantee.
std::string Fig5Point16() {
  std::ostringstream os;
  for (const auto kind : {harness::BarrierKind::kCSW, harness::BarrierKind::kDSW,
                          harness::BarrierKind::kGL}) {
    const auto cfg = cmp::CmpConfig::WithCores(16);
    cmp::CmpSystem sys(cfg);
    workloads::Synthetic wl(30);
    wl.Init(sys);
    auto barrier = harness::MakeBarrier(kind, sys);
    const sim::RunStatus status = sys.RunProgramsStatus(
        [&](core::Core& core, CoreId id) { return wl.Body(core, id, *barrier); });
    harness::RunMetrics m =
        harness::CollectMetrics(sys, status, wl, harness::ToString(kind));
    EXPECT_TRUE(m.completed);
    EXPECT_TRUE(m.validation.empty()) << m.validation;
    m.wall_ms = 0.0;
    m.events_per_sec = 0.0;
    harness::ManifestOptions opts;
    opts.tool = "determinism_test";
    harness::WriteRunManifest(os, m, cfg, sys.stats(), opts);
    os << "\n";
  }
  return os.str();
}

/// The old-ordering stress pattern: many components scheduling
/// interleaved zero-delay continuations (the ScheduleIn(0) idiom the
/// G-line FSMs and cache controllers rely on), with some same-cycle
/// fan-out. Returns the exact firing transcript.
std::string ZeroDelayStress() {
  std::ostringstream os;
  sim::Engine e;
  for (int i = 0; i < 24; ++i) {
    e.ScheduleAt(static_cast<Cycle>(i % 5), [&os, &e, i]() {
      os << i << "@" << e.Now() << ";";
      e.ScheduleIn(0, [&os, &e, i]() {
        os << "z" << i << "@" << e.Now() << ";";
        if (i % 3 == 0) {
          e.ScheduleIn(0, [&os, i]() { os << "zz" << i << ";"; });
        }
      });
    });
  }
  EXPECT_TRUE(e.RunUntilIdle());
  return os.str();
}

TEST(Determinism, Fig2WalkthroughIsByteIdenticalAcrossRuns) {
  const std::string a = Fig2Walkthrough();
  const std::string b = Fig2Walkthrough();
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  // The paper's headline: all four cores released by cycle 4.
  EXPECT_NE(a.find("core3@4"), std::string::npos) << a;
}

TEST(Determinism, Fig5PointManifestsAreByteIdenticalAcrossRuns) {
  const std::string a = Fig5Point16();
  const std::string b = Fig5Point16();
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

/// A 256-core (16x16) hierarchical-barrier run serialized as the full
/// JSON manifest (including the hier config echo and every per-node
/// "glh.l<k>.c<i>.*" stat), host-timing fields zeroed.
std::string GlhPoint256() {
  std::ostringstream os;
  cmp::CmpConfig cfg = cmp::CmpConfig::WithCores(256);
  cfg.hier.enabled = true;
  cmp::CmpSystem sys(cfg);
  workloads::Synthetic wl(30);
  wl.Init(sys);
  auto barrier = harness::MakeBarrier(harness::BarrierKind::kGLH, sys);
  const sim::RunStatus status = sys.RunProgramsStatus(
      [&](core::Core& core, CoreId id) { return wl.Body(core, id, *barrier); });
  harness::RunMetrics m = harness::CollectMetrics(
      sys, status, wl, harness::ToString(harness::BarrierKind::kGLH));
  EXPECT_TRUE(m.completed);
  EXPECT_TRUE(m.validation.empty()) << m.validation;
  m.wall_ms = 0.0;
  m.events_per_sec = 0.0;
  harness::ManifestOptions opts;
  opts.tool = "determinism_test";
  harness::WriteRunManifest(os, m, cfg, sys.stats(), opts);
  return os.str();
}

TEST(Determinism, GlhPoint256ManifestIsByteIdenticalAcrossRuns) {
  const std::string a = GlhPoint256();
  const std::string b = GlhPoint256();
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  // The hierarchical stats and config echo really are in the manifest.
  EXPECT_NE(a.find("glh.barriers_completed"), std::string::npos);
  EXPECT_NE(a.find("glh.l0.c0."), std::string::npos);
  EXPECT_NE(a.find("\"hier\""), std::string::npos);
}

/// A 1024-core (32x32) hierarchical-barrier EM3D run, serialized as the
/// full JSON manifest. `work_skew` layers the deterministic straggler
/// knob on top. Wall clock and events/sec are zeroed, being host timing;
/// everything else, host_events included, is a deterministic count.
std::string Em3dManifest(double work_skew) {
  std::ostringstream os;
  cmp::CmpConfig cfg = cmp::CmpConfig::WithCores(1024);
  cfg.hier.enabled = true;
  cfg.fault.work_skew = work_skew;
  cmp::CmpSystem sys(cfg);
  workloads::Em3d::Config wcfg;
  wcfg.nodes = 2048;    // 2 nodes per class per core
  wcfg.timesteps = 6;
  workloads::Em3d wl(wcfg);
  wl.Init(sys);
  auto barrier = harness::MakeBarrier(harness::BarrierKind::kGLH, sys);
  const sim::RunStatus status = sys.RunProgramsStatus(
      [&](core::Core& core, CoreId id) { return wl.Body(core, id, *barrier); });
  harness::RunMetrics m = harness::CollectMetrics(
      sys, status, wl, harness::ToString(harness::BarrierKind::kGLH));
  EXPECT_TRUE(m.completed);
  EXPECT_TRUE(m.validation.empty()) << m.validation;
  m.wall_ms = 0.0;
  m.events_per_sec = 0.0;
  harness::ManifestOptions opts;
  opts.tool = "determinism_test";
  harness::WriteRunManifest(os, m, cfg, sys.stats(), opts);
  return os.str();
}

TEST(Determinism, Em3d1024ManifestIsRunToRunIdentical) {
  const std::string base = Em3dManifest(0.0);
  ASSERT_FALSE(base.empty());
  EXPECT_EQ(base, Em3dManifest(0.0));
}

TEST(Determinism, Em3d1024StragglerManifestIsRunToRunIdentical) {
  // Deterministic stragglers (work_skew stretches core i's compute by
  // 1 + S*i/(n-1)) change every phase length; the skewed schedule must
  // still repeat exactly.
  const std::string base = Em3dManifest(0.25);
  ASSERT_FALSE(base.empty());
  EXPECT_NE(base, Em3dManifest(0.0));  // the knob really bites
  EXPECT_EQ(base, Em3dManifest(0.25));
}

/// The parallel-experiment harness (--jobs 2: two runs in flight on
/// separate host threads) must reproduce the serial simulated results
/// exactly, including the tuned barrier's negotiated choice.
TEST(Determinism, ZooBarriers256MetricsAreJobsInvariant) {
  std::vector<harness::ExperimentSpec> specs;
  for (const auto kind :
       {harness::BarrierKind::kRDBL, harness::BarrierKind::kGALOIS,
        harness::BarrierKind::kTUNED}) {
    harness::ExperimentSpec spec;
    spec.workload = "Synthetic";
    spec.scale.synthetic_iters = 10;
    spec.barrier = kind;
    spec.cfg = cmp::CmpConfig::WithCores(256);
    specs.push_back(std::move(spec));
  }
  const auto serial = harness::RunExperimentsParallel(specs, 1);
  const auto parallel = harness::RunExperimentsParallel(specs, 2);
  ASSERT_EQ(serial.size(), specs.size());
  ASSERT_EQ(parallel.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_TRUE(serial[i].completed) << serial[i].barrier;
    EXPECT_EQ(serial[i].cycles, parallel[i].cycles) << serial[i].barrier;
    EXPECT_EQ(serial[i].barriers, parallel[i].barriers) << serial[i].barrier;
    EXPECT_EQ(serial[i].total_msgs(), parallel[i].total_msgs())
        << serial[i].barrier;
    EXPECT_EQ(serial[i].tuned_choice, parallel[i].tuned_choice)
        << serial[i].barrier;
    EXPECT_EQ(serial[i].tuned_measured_period, parallel[i].tuned_measured_period)
        << serial[i].barrier;
  }
}

TEST(Determinism, ZeroDelayInterleavingsAreStableAndOrdered) {
  const std::string a = ZeroDelayStress();
  const std::string b = ZeroDelayStress();
  EXPECT_EQ(a, b);
  // Spot-check the contract: component 0 fires at cycle 0 before its
  // zero-delay continuation, which still runs at cycle 0.
  EXPECT_NE(a.find("0@0;"), std::string::npos) << a;
  EXPECT_NE(a.find("z0@0;"), std::string::npos) << a;
  EXPECT_LT(a.find("0@0;"), a.find("z0@0;"));
}

}  // namespace
}  // namespace glb
