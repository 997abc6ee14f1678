// Multi-tenant partition unit tests: Rect parsing, tenant admission
// (bounds / names / transmitter budgets), PartitionManager lifecycle
// (create / resize / teardown, overlap and duplicate rejection), the
// mid-episode busy guard, and run equivalence — a full-chip tenant must
// reproduce the legacy single-workload run exactly.
#include <gtest/gtest.h>

#include <string>

#include "cmp/cmp_system.h"
#include "cmp/partition.h"
#include "core/task.h"
#include "harness/experiment.h"
#include "harness/tenants.h"
#include "sync/barrier.h"
#include "workloads/synthetic.h"

namespace glb {
namespace {

using cmp::Rect;

TEST(Rect, ParseAndToStringRoundTrip) {
  Rect r;
  ASSERT_TRUE(Rect::Parse("4x4", &r));
  EXPECT_EQ(r, (Rect{0, 0, 4, 4}));
  EXPECT_EQ(r.ToString(), "4x4");

  ASSERT_TRUE(Rect::Parse("2x3@1,5", &r));
  EXPECT_EQ(r, (Rect{1, 5, 2, 3}));
  EXPECT_EQ(r.ToString(), "2x3@1,5");

  ASSERT_TRUE(Rect::Parse("1x1@0,0", &r));
  EXPECT_EQ(r.num_cores(), 1u);
  EXPECT_EQ(r.ToString(), "1x1");  // origin anchor is implicit
}

TEST(Rect, ParseRejectsMalformedSpecs) {
  const Rect sentinel{7, 7, 7, 7};
  for (const char* bad : {"", "4", "4x", "x4", "0x4", "4x0", "axb", "4x4@",
                          "4x4@1", "4x4@1,", "4x4@,2", "4x4@1,2,3", " 4x4",
                          "4x4 ", "4x-1", "-1x4"}) {
    Rect r = sentinel;
    EXPECT_FALSE(Rect::Parse(bad, &r)) << "accepted '" << bad << "'";
    EXPECT_EQ(r, sentinel) << "clobbered out for '" << bad << "'";
  }
}

TEST(Rect, OverlapsAndContains) {
  const Rect a{0, 0, 2, 2};
  EXPECT_TRUE(a.Overlaps(Rect{1, 1, 2, 2}));
  EXPECT_FALSE(a.Overlaps(Rect{2, 0, 2, 2}));  // edge-adjacent, no overlap
  EXPECT_FALSE(a.Overlaps(Rect{0, 2, 2, 2}));
  EXPECT_FALSE(a.Overlaps(Rect{0, 0, 0, 0}));  // empty never overlaps
  EXPECT_TRUE(a.Contains(1, 1));
  EXPECT_FALSE(a.Contains(2, 0));
}

TEST(Partition, ValidateTenantConfigEdgeCases) {
  const auto chip = cmp::CmpConfig::WithCores(64);  // 8x8

  cmp::TenantConfig ok;
  ok.name = "t0";
  ok.rect = {0, 0, 1, 1};
  EXPECT_EQ(cmp::ValidateTenantConfig(ok, chip), "");  // 1x1 is legal

  cmp::TenantConfig bad = ok;
  bad.name = "";
  EXPECT_NE(cmp::ValidateTenantConfig(bad, chip).find("non-empty"),
            std::string::npos);
  bad.name = "has space";
  EXPECT_NE(cmp::ValidateTenantConfig(bad, chip).find("[A-Za-z0-9_-]"),
            std::string::npos);

  bad = ok;
  bad.rect = {0, 0, 0, 4};
  EXPECT_NE(cmp::ValidateTenantConfig(bad, chip).find("non-empty"),
            std::string::npos);

  bad = ok;
  bad.rect = {4, 4, 5, 4};  // rows 4..8 spill off the 8x8 mesh
  EXPECT_NE(cmp::ValidateTenantConfig(bad, chip).find("exceeds the 8x8 mesh"),
            std::string::npos);

  bad = ok;
  bad.max_transmitters = 0;
  EXPECT_NE(cmp::ValidateTenantConfig(bad, chip).find("budget must be >= 1"),
            std::string::npos);

  // A flat-GL rect wider than budget+1 tiles is a validation error
  // steering the caller to the hierarchical network, never an abort.
  bad = ok;
  bad.rect = {0, 0, 4, 4};
  bad.max_transmitters = 2;
  const std::string why = cmp::ValidateTenantConfig(bad, chip);
  EXPECT_NE(why.find("use gl-hier"), std::string::npos) << why;

  // The same rect under the same budget is fine hierarchically (cluster
  // dimensions clamp to the budget) and at the flat default of six.
  bad.barrier = sync::BarrierKind::kGLH;
  EXPECT_EQ(cmp::ValidateTenantConfig(bad, chip), "");
  bad.barrier = sync::BarrierKind::kGL;
  bad.max_transmitters = 6;
  EXPECT_EQ(cmp::ValidateTenantConfig(bad, chip), "");
}

TEST(Partition, ManagerLifecycleAndRejections) {
  cmp::CmpSystem sys(cmp::CmpConfig::WithCores(64));  // 8x8
  cmp::PartitionManager pm(sys);

  cmp::TenantConfig a;
  a.name = "A";
  a.rect = {0, 0, 2, 2};
  std::string err;
  cmp::Tenant* ta = pm.Create(a, &err);
  ASSERT_NE(ta, nullptr) << err;
  EXPECT_EQ(pm.Find("A"), ta);
  EXPECT_EQ(ta->num_cores(), 4u);
  EXPECT_FALSE(ta->busy());

  // Overlap with a live tenant is refused with a pinpoint diagnostic.
  cmp::TenantConfig b = a;
  b.name = "B";
  b.rect = {1, 1, 2, 2};
  EXPECT_EQ(pm.Create(b, &err), nullptr);
  EXPECT_NE(err.find("overlaps live tenant 'A'"), std::string::npos) << err;

  // Duplicate names are refused even on disjoint rects.
  b.name = "A";
  b.rect = {4, 4, 2, 2};
  EXPECT_EQ(pm.Create(b, &err), nullptr);
  EXPECT_NE(err.find("duplicate tenant name 'A'"), std::string::npos) << err;

  b.name = "B";
  cmp::Tenant* tb = pm.Create(b, &err);
  ASSERT_NE(tb, nullptr) << err;

  // Resize may grow over free tiles (pointer and stats survive)...
  EXPECT_TRUE(pm.Resize("A", Rect{0, 0, 3, 3}, &err)) << err;
  EXPECT_EQ(pm.Find("A"), ta);
  EXPECT_EQ(ta->rect(), (Rect{0, 0, 3, 3}));
  // ...but not onto another tenant, and self-overlap of the old rect
  // does not count against the move.
  EXPECT_FALSE(pm.Resize("A", Rect{3, 3, 2, 2}, &err));
  EXPECT_NE(err.find("overlaps live tenant 'B'"), std::string::npos) << err;
  EXPECT_EQ(ta->rect(), (Rect{0, 0, 3, 3}));  // failed resize is a no-op

  EXPECT_FALSE(pm.Resize("missing", Rect{0, 0, 1, 1}, &err));
  EXPECT_NE(err.find("no tenant named 'missing'"), std::string::npos);

  EXPECT_TRUE(pm.Teardown("B", &err)) << err;
  EXPECT_EQ(pm.Find("B"), nullptr);
  EXPECT_FALSE(pm.Teardown("B", &err));
  EXPECT_NE(err.find("no tenant named 'B'"), std::string::npos);

  // B's tiles are free again.
  b.rect = {3, 3, 2, 2};
  EXPECT_NE(pm.Create(b, &err), nullptr) << err;
}

core::Task WaitOnce(core::Core& core, sync::Barrier& barrier) {
  co_await barrier.Wait(core);
}

core::Task ComputeThenWait(core::Core& core, sync::Barrier& barrier,
                           Cycle compute) {
  co_await core.Compute(compute);
  co_await barrier.Wait(core);
}

core::Task IdleTask() { co_return; }

// A tenant whose members are parked inside Wait is mid-episode: Resize
// and Teardown must refuse with a diagnostic, busy() must read true,
// and destroying the manager with the episode still open must not
// abort — the stalled run has to unwind cleanly.
TEST(Partition, MidEpisodeResizeAndTeardownAreRefused) {
  cmp::CmpSystem sys(cmp::CmpConfig::WithCores(16));  // 4x4
  cmp::PartitionManager pm(sys);

  cmp::TenantConfig cfg;
  cfg.name = "stuck";
  cfg.rect = {0, 0, 2, 2};
  std::string err;
  cmp::Tenant* t = pm.Create(cfg, &err);
  ASSERT_NE(t, nullptr) << err;

  // Rank 0 computes far past the cycle limit, so when the run stops the
  // other three members are parked inside Wait — the episode is open.
  const sim::RunStatus status = sys.RunProgramsStatus(
      [&](core::Core& core, CoreId id) -> core::Task {
        if (!t->Contains(id)) return IdleTask();
        if (t->RankOf(id) == 0) {
          return ComputeThenWait(core, t->barrier(), 100000);
        }
        return WaitOnce(core, t->barrier());
      },
      /*max_cycles=*/500);
  EXPECT_FALSE(status.idle);

  EXPECT_TRUE(t->busy());
  EXPECT_FALSE(pm.Resize("stuck", Rect{0, 0, 3, 3}, &err));
  EXPECT_NE(err.find("mid-episode"), std::string::npos) << err;
  EXPECT_NE(err.find("barrier-episode boundaries"), std::string::npos) << err;
  EXPECT_FALSE(pm.Teardown("stuck", &err));
  EXPECT_NE(err.find("mid-episode"), std::string::npos) << err;
  EXPECT_EQ(pm.Find("stuck"), t);  // still live, untouched
  // pm destruction with the open episode is the stalled-run unwind path.
}

// A tenant covering the whole chip is the legacy single-workload run by
// another name: same cycles, same barrier episodes, same validation.
TEST(Partition, FullChipTenantMatchesLegacyRun) {
  constexpr std::uint32_t kIters = 30;
  const auto cfg = cmp::CmpConfig::WithCores(16);

  cmp::CmpSystem legacy(cfg);
  workloads::Synthetic wl(kIters);
  wl.Init(legacy);
  auto barrier = harness::MakeBarrier(harness::BarrierKind::kGL, legacy);
  const sim::RunStatus status = legacy.RunProgramsStatus(
      [&](core::Core& core, CoreId id) { return wl.Body(core, id, *barrier); });
  const harness::RunMetrics m = harness::CollectMetrics(
      legacy, status, wl, harness::ToString(harness::BarrierKind::kGL));
  ASSERT_TRUE(m.completed);
  ASSERT_TRUE(m.validation.empty()) << m.validation;

  harness::RunSpec spec;
  spec.cfg = cfg;
  harness::Scale scale;
  scale.synthetic_iters = kIters;
  spec.tenants.push_back(harness::NamedTenant("whole", Rect{0, 0, 4, 4},
                                              "Synthetic", scale,
                                              harness::BarrierKind::kGL));
  ASSERT_EQ(harness::ValidateRunSpec(spec), "");
  const harness::MultiRunMetrics mm = harness::RunTenants(spec);

  EXPECT_TRUE(mm.run.completed);
  EXPECT_TRUE(mm.run.validation.empty()) << mm.run.validation;
  EXPECT_EQ(mm.run.cycles, m.cycles);
  ASSERT_EQ(mm.tenants.size(), 1u);
  EXPECT_EQ(mm.tenants[0].cores, 16u);
  // Synthetic runs four back-to-back barriers per iteration.
  EXPECT_EQ(mm.tenants[0].barriers, m.barriers);
  EXPECT_EQ(mm.tenants[0].barriers, std::uint64_t{4} * kIters);
  EXPECT_EQ(mm.tenants[0].waits, std::uint64_t{4} * kIters * 16);
}

// The degenerate 1x1 partition: a tenant of one core still completes,
// validates, and counts its (trivial) barrier episodes.
TEST(Partition, SingleTileTenantRuns) {
  harness::RunSpec spec;
  spec.cfg = cmp::CmpConfig::WithCores(16);
  harness::Scale scale;
  scale.synthetic_iters = 5;
  spec.tenants.push_back(harness::NamedTenant("solo", Rect{3, 3, 1, 1},
                                              "Synthetic", scale,
                                              harness::BarrierKind::kGL));
  ASSERT_EQ(harness::ValidateRunSpec(spec), "");
  const harness::MultiRunMetrics mm = harness::RunTenants(spec);
  EXPECT_TRUE(mm.run.completed);
  EXPECT_TRUE(mm.run.validation.empty()) << mm.run.validation;
  ASSERT_EQ(mm.tenants.size(), 1u);
  EXPECT_EQ(mm.tenants[0].cores, 1u);
  EXPECT_EQ(mm.tenants[0].barriers, 20u);  // 4 barriers x 5 iterations
}

// ValidateRunSpec catches spec-level problems admission alone cannot:
// pairwise overlap, duplicate names, unknown workloads, problem sizes
// too small for the rect and non-straggler tenant fault plans.
TEST(Partition, ValidateRunSpecRejections) {
  harness::RunSpec spec;
  spec.cfg = cmp::CmpConfig::WithCores(16);
  EXPECT_NE(harness::ValidateRunSpec(spec).find("at least one tenant"),
            std::string::npos);

  harness::Scale scale;
  scale.synthetic_iters = 2;
  spec.tenants.push_back(harness::NamedTenant(
      "a", Rect{0, 0, 2, 2}, "Synthetic", scale, harness::BarrierKind::kGL));
  spec.tenants.push_back(harness::NamedTenant(
      "b", Rect{1, 1, 2, 2}, "Synthetic", scale, harness::BarrierKind::kGL));
  EXPECT_NE(harness::ValidateRunSpec(spec).find("overlaps tenant 'a'"),
            std::string::npos);

  spec.tenants[1].rect = {2, 2, 2, 2};
  spec.tenants[1].name = "a";
  EXPECT_NE(harness::ValidateRunSpec(spec).find("duplicate tenant name 'a'"),
            std::string::npos);

  spec.tenants[1].name = "b";
  spec.tenants[1].workload = "NoSuchWorkload";
  EXPECT_NE(harness::ValidateRunSpec(spec).find("unknown workload"),
            std::string::npos);

  spec.tenants[1].workload = "Synthetic";
  spec.tenants[1].fault.gline_drop_rate = 0.5;
  EXPECT_NE(harness::ValidateRunSpec(spec).find("straggler"),
            std::string::npos);

  spec.tenants[1].fault.gline_drop_rate = 0;
  spec.tenants[1].workload = "OCEAN";
  spec.tenants[1].scale.ocean_grid = 5;  // 3 interior rows for 4 cores
  EXPECT_NE(harness::ValidateRunSpec(spec).find("tenant 'b': --ocean-grid 5"),
            std::string::npos);

  spec.tenants[1].workload = "Synthetic";
  EXPECT_EQ(harness::ValidateRunSpec(spec), "");
}

}  // namespace
}  // namespace glb
