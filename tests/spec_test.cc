// Name-addressed experiment API tests: barrier-name round-trips, the
// workload registry, weak-scaling rules (Scale::ForCores and the
// problem-size flags), the ExperimentSpec manifest echo, and the
// per-level hierarchical energy invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "harness/manifest.h"
#include "harness/spec.h"
#include "power/energy_model.h"
#include "sync/tuned_barrier.h"
#include "workloads/synthetic.h"

namespace glb::harness {
namespace {

TEST(BarrierNames, RoundTripEveryKind) {
  ASSERT_EQ(AllBarrierKinds().size(), 9u);
  for (BarrierKind k : AllBarrierKinds()) {
    const std::string canon = ToString(k);
    ASSERT_TRUE(BarrierKindFromName(canon).has_value()) << canon;
    EXPECT_EQ(*BarrierKindFromName(canon), k) << canon;
    std::string lower = canon;
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
    ASSERT_TRUE(BarrierKindFromName(lower).has_value()) << lower;
    EXPECT_EQ(*BarrierKindFromName(lower), k) << lower;
  }
}

TEST(BarrierNames, HierAliasAndUnknowns) {
  EXPECT_EQ(BarrierKindFromName("gl-hier"), BarrierKind::kGLH);
  EXPECT_FALSE(BarrierKindFromName("").has_value());
  EXPECT_FALSE(BarrierKindFromName("GLX").has_value());
  EXPECT_FALSE(BarrierKindFromName("Gl").has_value());  // canon or lower only
  // Retired zoo kinds and their alias.
  for (const char* name : {"bruck", "TOURN", "tournament", "RING"}) {
    EXPECT_FALSE(BarrierKindFromName(name).has_value()) << name;
  }
}

TEST(BarrierNames, ZooKindsResolveWithAliases) {
  EXPECT_EQ(BarrierKindFromName("RDBL"), BarrierKind::kRDBL);
  EXPECT_EQ(BarrierKindFromName("GALOIS"), BarrierKind::kGALOIS);
  EXPECT_EQ(BarrierKindFromName("galois-fast"), BarrierKind::kGALOIS);
  EXPECT_EQ(BarrierKindFromName("tuned"), BarrierKind::kTUNED);
  // Aliases are exact, not prefixes.
  EXPECT_FALSE(BarrierKindFromName("galois-fas").has_value());
}

TEST(BarrierNamesDeathTest, UnknownNameExitsWithStatus2) {
  EXPECT_EXIT(BarrierKindFromNameOrExit("BOGUS"),
              ::testing::ExitedWithCode(2), "unknown barrier 'BOGUS'");
}

TEST(WorkloadRegistry, BuiltinsResolveBothWays) {
  const std::vector<std::string> builtins = {
      "Synthetic", "Kernel2", "Kernel3", "Kernel6",
      "EM3D",      "OCEAN",   "UNSTRUCTURED"};
  const Scale scale;
  for (const std::string& name : builtins) {
    EXPECT_TRUE(KnownWorkload(name)) << name;
    auto wl = MakeWorkload(name, scale);
    ASSERT_NE(wl, nullptr) << name;
    // The registry name IS the workload's self-reported name.
    EXPECT_EQ(wl->name(), name);
    auto factory = MakeWorkloadFactory(name, scale);
    ASSERT_NE(factory, nullptr) << name;
    EXPECT_EQ(factory()->name(), name);
  }
  const auto names = WorkloadNames();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  for (const std::string& name : builtins) {
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end()) << name;
  }
}

TEST(WorkloadRegistry, UnknownNamesRejected) {
  EXPECT_FALSE(KnownWorkload("NoSuchWorkload"));
  EXPECT_EQ(MakeWorkload("NoSuchWorkload", Scale{}), nullptr);
  EXPECT_EQ(MakeWorkloadFactory("NoSuchWorkload", Scale{}), nullptr);
}

TEST(WorkloadRegistryDeathTest, MakeOrExitExitsWithStatus2) {
  EXPECT_EXIT(MakeWorkloadOrExit("NoSuchWorkload", Scale{}),
              ::testing::ExitedWithCode(2), "unknown workload 'NoSuchWorkload'");
}

TEST(WorkloadRegistry, RegisterAddsAndReplaces) {
  RegisterWorkload("SpecTestWL", [](const Scale& s) {
    return std::make_unique<workloads::Synthetic>(s.synthetic_iters);
  });
  EXPECT_TRUE(KnownWorkload("SpecTestWL"));
  Scale s;
  s.synthetic_iters = 7;
  auto wl = MakeWorkload("SpecTestWL", s);
  ASSERT_NE(wl, nullptr);
  EXPECT_STREQ(wl->name(), "Synthetic");
}

TEST(ScaleForCores, IdentityAtOrBelow32) {
  const Scale base;
  for (std::uint32_t cores : {1u, 4u, 16u, 32u}) {
    const Scale s = Scale::ForCores(cores);
    EXPECT_EQ(s.ocean_grid, base.ocean_grid);
    EXPECT_EQ(s.em3d_nodes, base.em3d_nodes);
    EXPECT_EQ(s.unstr_nodes, base.unstr_nodes);
    EXPECT_EQ(s.unstr_edges, base.unstr_edges);
    EXPECT_EQ(s.k2_n, base.k2_n);
    EXPECT_EQ(s.ocean_iters, base.ocean_iters);
  }
}

TEST(ScaleForCores, SizesKeepThePerCoreShare) {
  for (std::uint32_t cores : {64u, 256u, 1024u}) {
    const Scale s = Scale::ForCores(cores);
    // Two interior OCEAN rows per core; kernel vectors and graph nodes
    // linear in the core count (the 32-core defaults' share).
    EXPECT_EQ(s.ocean_grid, 2 * cores + 2) << cores;
    EXPECT_EQ(s.em3d_nodes, 75 * cores) << cores;
    EXPECT_EQ(s.unstr_nodes, 64 * cores) << cores;
    EXPECT_EQ(s.unstr_edges, 256 * cores) << cores;
    EXPECT_EQ(s.k2_n, 32 * cores) << cores;
    EXPECT_EQ(s.k3_n, 32 * cores) << cores;
    EXPECT_EQ(s.k6_n, 8 * cores) << cores;
    // Iterations shrink but never below the floors that keep the
    // barrier structure intact.
    EXPECT_GE(s.ocean_iters, 2u) << cores;
    EXPECT_GE(s.em3d_steps, 3u) << cores;
    EXPECT_GE(s.unstr_steps, 1u) << cores;
    EXPECT_GE(s.k2_iters, 2u) << cores;
    EXPECT_GE(s.k3_iters, 4u) << cores;
    EXPECT_GE(s.synthetic_iters, 50u) << cores;
    EXPECT_LE(s.ocean_iters, Scale{}.ocean_iters);
  }
}

TEST(ScaleFlags, ProblemSizeFlagsOverride) {
  const char* argv[] = {"spec_test",      "--ocean-grid",  "100",
                        "--em3d-nodes",   "500",           "--unstr-nodes",
                        "300",            "--unstr-edges", "900",
                        "--k2-n",         "64",            "--k3-n",
                        "128",            "--k6-n",        "32",
                        "--ocean-iters",  "3"};
  Flags flags(static_cast<int>(std::size(argv)), const_cast<char**>(argv));
  const Scale s = Scale::FromFlags(flags);
  EXPECT_EQ(s.ocean_grid, 100u);
  EXPECT_EQ(s.em3d_nodes, 500u);
  EXPECT_EQ(s.unstr_nodes, 300u);
  EXPECT_EQ(s.unstr_edges, 900u);
  EXPECT_EQ(s.k2_n, 64u);
  EXPECT_EQ(s.k3_n, 128u);
  EXPECT_EQ(s.k6_n, 32u);
  EXPECT_EQ(s.ocean_iters, 3u);
  // The weak-scaled overload: flags still win over the ForCores base.
  const Scale s256 = Scale::FromFlags(flags, 256);
  EXPECT_EQ(s256.ocean_grid, 100u);
  EXPECT_EQ(s256.k2_n, 64u);
  EXPECT_EQ(s256.em3d_steps, Scale::ForCores(256).em3d_steps);
}

TEST(ExperimentSpecTest, RunsByNameAndFactoryWins) {
  ExperimentSpec spec;
  spec.workload = "Synthetic";
  spec.scale.synthetic_iters = 5;
  spec.barrier = BarrierKind::kGL;
  spec.cfg = cmp::CmpConfig::WithCores(4);
  const RunMetrics by_name = RunExperiment(spec);
  EXPECT_TRUE(by_name.completed);
  EXPECT_TRUE(by_name.validation.empty());
  EXPECT_EQ(by_name.workload, "Synthetic");
  EXPECT_EQ(by_name.barrier, "GL");
  EXPECT_GT(by_name.barriers, 0u);

  // The factory escape hatch wins over the registry name.
  spec.workload = "NoSuchWorkload";
  spec.factory = [] { return std::make_unique<workloads::Synthetic>(5); };
  const RunMetrics by_factory = RunExperiment(spec);
  EXPECT_TRUE(by_factory.completed);
  EXPECT_EQ(by_factory.cycles, by_name.cycles);
}

TEST(ExperimentSpecTest, ManifestEchoesTheSpec) {
  ExperimentSpec spec;
  spec.workload = "OCEAN";
  spec.scale = Scale::ForCores(256);
  spec.barrier = BarrierKind::kGLH;
  spec.cfg = cmp::CmpConfig::WithCores(256);
  spec.max_cycles = 123456;

  RunMetrics m;
  StatSet stats;
  std::ostringstream os;
  ManifestOptions opts;
  opts.tool = "spec_test";
  opts.experiment = &spec;
  WriteRunManifest(os, m, spec.cfg, stats, opts);

  std::string err;
  const auto doc = json::Parse(os.str(), &err);
  ASSERT_TRUE(doc.has_value()) << err;
  const json::Value* exp = doc->Find("experiment");
  ASSERT_NE(exp, nullptr);
  EXPECT_EQ(exp->Find("workload")->str_v, "OCEAN");
  EXPECT_EQ(exp->Find("barrier")->str_v, "GLH");
  EXPECT_EQ(exp->NumberOr("max_cycles", 0.0), 123456.0);
  const json::Value* scale = exp->Find("scale");
  ASSERT_NE(scale, nullptr);
  EXPECT_EQ(scale->NumberOr("ocean_grid", 0.0), 514.0);
  EXPECT_EQ(scale->NumberOr("em3d_nodes", 0.0), 19200.0);
  EXPECT_EQ(scale->NumberOr("unstr_edges", 0.0), 65536.0);

  // Without an experiment pointer the manifest omits the block (and
  // stays byte-identical to pre-spec builds).
  std::ostringstream plain;
  opts.experiment = nullptr;
  WriteRunManifest(plain, m, spec.cfg, stats, opts);
  const auto doc2 = json::Parse(plain.str(), &err);
  ASSERT_TRUE(doc2.has_value()) << err;
  EXPECT_EQ(doc2->Find("experiment"), nullptr);
}

// The tuned meta-barrier's decision is echoed through RunMetrics into
// the glb.run manifest, and the echoed name matches the table entry for
// the measured period (TunedChoiceName is the same function the barrier
// consults).
TEST(ExperimentSpecTest, TunedRunEchoesChoiceIntoManifest) {
  ExperimentSpec spec;
  spec.workload = "Synthetic";
  spec.scale.synthetic_iters = 20;
  spec.barrier = BarrierKind::kTUNED;
  spec.cfg = cmp::CmpConfig::WithCores(16);
  const RunMetrics m = RunExperiment(spec);
  EXPECT_TRUE(m.completed);
  EXPECT_TRUE(m.validation.empty()) << m.validation;
  EXPECT_EQ(m.barrier, "TUNED");
  // Synthetic runs a loop of four consecutive barriers per iteration.
  EXPECT_EQ(m.barriers, 80u) << "delegation must not double-count episodes";
  ASSERT_FALSE(m.tuned_choice.empty());
  EXPECT_EQ(m.tuned_warmup_episodes, 4u);
  EXPECT_GT(m.tuned_measured_period, 0u);
  EXPECT_EQ(m.tuned_choice,
            sync::TunedChoiceName(
                16, static_cast<double>(m.tuned_measured_period)));

  StatSet stats;
  std::ostringstream os;
  ManifestOptions opts;
  opts.tool = "spec_test";
  WriteRunManifest(os, m, spec.cfg, stats, opts);
  std::string err;
  const auto doc = json::Parse(os.str(), &err);
  ASSERT_TRUE(doc.has_value()) << err;
  const json::Value* run = doc->Find("run");
  ASSERT_NE(run, nullptr);
  const json::Value* tuned = run->Find("tuned");
  ASSERT_NE(tuned, nullptr);
  EXPECT_EQ(tuned->Find("choice")->str_v, m.tuned_choice);
  EXPECT_EQ(tuned->NumberOr("warmup_episodes", 0.0), 4.0);
  EXPECT_GT(tuned->NumberOr("measured_period", 0.0), 0.0);

  // Non-tuned runs must not grow the block (pre-existing manifests stay
  // byte-identical).
  RunMetrics plain;
  std::ostringstream os2;
  WriteRunManifest(os2, plain, spec.cfg, stats, opts);
  const auto doc2 = json::Parse(os2.str(), &err);
  ASSERT_TRUE(doc2.has_value()) << err;
  ASSERT_NE(doc2->Find("run"), nullptr);
  EXPECT_EQ(doc2->Find("run")->Find("tuned"), nullptr);
}

TEST(HierEnergy, PerLevelTermsSumAndDominateFlatEquivalent) {
  auto cfg = cmp::CmpConfig::WithCores(64);
  cfg.hier.enabled = true;
  cmp::CmpSystem sys(cfg);
  workloads::Synthetic wl(20);
  wl.Init(sys);
  auto barrier = MakeBarrier(BarrierKind::kGLH, sys);
  ASSERT_TRUE(sys.RunPrograms(
      [&](core::Core& c, CoreId id) { return wl.Body(c, id, *barrier); }));

  const power::HierEnergyReport r = power::EstimateHier(sys.stats(), sys.gline());
  ASSERT_EQ(r.levels.size(), sys.gline().num_levels());
  ASSERT_GE(r.levels.size(), 2u);  // 8x8 needs at least two levels
  double sum = 0;
  for (const power::HierEnergyLevel& lvl : r.levels) {
    sum += lvl.total_pj();
    EXPECT_GT(lvl.wires.signals, 0u) << lvl.wires.level;
    if (lvl.wires.level == 0) {
      EXPECT_EQ(lvl.wires.span_tiles, 1u);
      EXPECT_EQ(lvl.wires.handoffs, 0u);
    } else {
      EXPECT_GT(lvl.wires.span_tiles, 1u);
      EXPECT_GT(lvl.wires.handoffs, 0u);
      EXPECT_GT(lvl.handoff_pj, 0.0);
    }
  }
  // The per-level terms sum exactly to the G-line component, and the
  // hierarchy never prices below the flat-network equivalent.
  EXPECT_NEAR(sum, r.base.gline_pj, 1e-6 * sum);
  EXPECT_GT(r.base.gline_pj, 0.0);
  EXPECT_GE(r.base.gline_pj, r.flat_equiv_pj);
  EXPECT_GT(r.flat_equiv_pj, 0.0);
}

// Weak-scaling sanity: each application runs to completion and
// validates on the hierarchical network at 256 cores with the
// ForCores problem sizes (iterations dialed down to keep the test
// host-seconds; the sizes are the point). One test per application,
// so a failure names it.
void ExpectValidatesAt256CoresOnHier(const char* name) {
  Scale scale = Scale::ForCores(256);
  scale.ocean_iters = 1;
  scale.em3d_steps = 1;
  scale.unstr_steps = 1;
  ExperimentSpec spec;
  spec.workload = name;
  spec.scale = scale;
  spec.barrier = BarrierKind::kGLH;
  spec.cfg = cmp::CmpConfig::WithCores(256);
  const RunMetrics m = RunExperiment(spec);
  EXPECT_TRUE(m.completed) << name << ": " << m.stall;
  EXPECT_EQ(m.validation, "") << name;
  EXPECT_EQ(m.cores, 256u) << name;
  EXPECT_GT(m.barriers, 0u) << name;
}

TEST(WeakScaling, Em3dValidatesAt256CoresOnHier) {
  ExpectValidatesAt256CoresOnHier("EM3D");
}

TEST(WeakScaling, OceanValidatesAt256CoresOnHier) {
  ExpectValidatesAt256CoresOnHier("OCEAN");
}

TEST(WeakScaling, UnstructuredValidatesAt256CoresOnHier) {
  ExpectValidatesAt256CoresOnHier("UNSTRUCTURED");
}

}  // namespace
}  // namespace glb::harness
