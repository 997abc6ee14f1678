// Pins the multi-tenant determinism contract (harness/tenants.h): the
// full JSON run manifest of a space-shared run — chip block, stats
// (including every "tenant.<name>.*" counter/histogram) and the
// tenants[] array — is byte-identical across repeated runs, and
// RunTenantsParallel results are --jobs-invariant.
// Host-timing fields are zeroed before serialization: they are
// wall-clock, explicitly outside the guarantee.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "cmp/cmp_system.h"
#include "harness/manifest.h"
#include "harness/tenants.h"

namespace glb {
namespace {

/// A 256-core chip split down the middle: a hierarchical-G-line tenant
/// on the left half, a recursive-doubling software tenant on the right.
/// Exercises rect-local hardware construction, rank renumbering, and
/// software barriers over the shared fabric in one manifest.
harness::RunSpec SplitChipSpec() {
  harness::RunSpec spec;
  spec.cfg = cmp::CmpConfig::WithCores(256);  // 16x16
  harness::Scale scale;
  scale.synthetic_iters = 20;
  spec.tenants.push_back(harness::NamedTenant("fg", cmp::Rect{0, 0, 16, 8},
                                              "Synthetic", scale,
                                              harness::BarrierKind::kGLH));
  spec.tenants.push_back(harness::NamedTenant("bg", cmp::Rect{0, 8, 16, 8},
                                              "Synthetic", scale,
                                              harness::BarrierKind::kRDBL));
  return spec;
}

std::string SplitChipManifest() {
  const harness::RunSpec spec = SplitChipSpec();
  EXPECT_EQ(harness::ValidateRunSpec(spec), "");
  cmp::CmpSystem sys(spec.cfg);
  harness::MultiRunMetrics mm = harness::RunTenantsOn(sys, spec);
  EXPECT_TRUE(mm.run.completed) << mm.run.stall;
  EXPECT_TRUE(mm.run.validation.empty()) << mm.run.validation;
  mm.run.wall_ms = 0.0;
  mm.run.events_per_sec = 0.0;
  harness::ManifestOptions opts;
  opts.tool = "tenant_determinism_test";
  opts.tenants = &mm.tenants;
  std::ostringstream os;
  harness::WriteRunManifest(os, mm.run, spec.cfg, sys.stats(), opts);
  return os.str();
}

TEST(TenantDeterminism, SplitChipManifestIsByteIdenticalAcrossRuns) {
  const std::string a = SplitChipManifest();
  const std::string b = SplitChipManifest();
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  // The per-tenant surface really is in the manifest: the tenants[]
  // blocks plus both tenants' stat families.
  EXPECT_NE(a.find("\"tenants\""), std::string::npos);
  EXPECT_NE(a.find("\"fg:Synthetic+bg:Synthetic\""), std::string::npos);
  EXPECT_NE(a.find("tenant.fg.wait_cycles"), std::string::npos);
  EXPECT_NE(a.find("tenant.fg.glh."), std::string::npos);
  EXPECT_NE(a.find("tenant.bg.wait_cycles"), std::string::npos);
}

TEST(TenantDeterminism, RunTenantsParallelIsJobsInvariant) {
  std::vector<harness::RunSpec> specs;
  for (const std::uint32_t iters : {10u, 20u, 30u}) {
    harness::RunSpec spec;
    spec.cfg = cmp::CmpConfig::WithCores(64);  // 8x8
    harness::Scale scale;
    scale.synthetic_iters = iters;
    spec.tenants.push_back(harness::NamedTenant("l", cmp::Rect{0, 0, 8, 4},
                                                "Synthetic", scale,
                                                harness::BarrierKind::kGLH));
    spec.tenants.push_back(harness::NamedTenant("r", cmp::Rect{0, 4, 8, 4},
                                                "Synthetic", scale,
                                                harness::BarrierKind::kDIS));
    ASSERT_EQ(harness::ValidateRunSpec(spec), "");
    specs.push_back(std::move(spec));
  }
  const auto seq = harness::RunTenantsParallel(specs, 1);
  const auto par = harness::RunTenantsParallel(specs, 2);
  ASSERT_EQ(seq.size(), specs.size());
  ASSERT_EQ(par.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_TRUE(seq[i].run.completed);
    EXPECT_EQ(seq[i].run.cycles, par[i].run.cycles);
    EXPECT_EQ(seq[i].run.workload, par[i].run.workload);
    ASSERT_EQ(seq[i].tenants.size(), par[i].tenants.size());
    for (std::size_t t = 0; t < seq[i].tenants.size(); ++t) {
      const harness::TenantMetrics& a = seq[i].tenants[t];
      const harness::TenantMetrics& b = par[i].tenants[t];
      EXPECT_EQ(a.waits, b.waits);
      EXPECT_EQ(a.barriers, b.barriers);
      EXPECT_EQ(a.finished_at, b.finished_at);
      EXPECT_EQ(a.router_flits, b.router_flits);
      EXPECT_EQ(a.gline_signals, b.gline_signals);
      EXPECT_EQ(a.wait_cycles.PercentileApprox(0.50),
                b.wait_cycles.PercentileApprox(0.50));
      EXPECT_EQ(a.wait_cycles.PercentileApprox(0.99),
                b.wait_cycles.PercentileApprox(0.99));
      EXPECT_TRUE(a.validation.empty()) << a.validation;
    }
  }
}

}  // namespace
}  // namespace glb
