// Hierarchical (multi-level) G-line barrier network tests — the §5
// scheme for meshes beyond 7x7. Clustering recurses to arbitrary depth,
// so these cover depth 1 (degenerate), 2 (up to 49x49), 3 (50x50+) and
// a forced depth-4 configuration, plus stat aliasing and
// fault resilience at every level.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "fault/fault_injector.h"
#include "fault/fault_model.h"
#include "gline/hierarchy.h"
#include "sim/engine.h"

namespace glb::gline {
namespace {

struct Fixture {
  sim::Engine engine;
  StatSet stats;
  std::unique_ptr<HierarchicalBarrierNetwork> net;

  Fixture(std::uint32_t rows, std::uint32_t cols, HierConfig cfg = {}) {
    net = std::make_unique<HierarchicalBarrierNetwork>(engine, rows, cols, cfg, stats);
  }

  std::vector<Cycle> RunEpisode(const std::vector<Cycle>& arrivals) {
    std::vector<Cycle> rel(net->num_cores(), kCycleNever);
    for (CoreId c = 0; c < net->num_cores(); ++c) {
      engine.ScheduleAt(arrivals[c], [this, c, &rel]() {
        net->Arrive(c, [this, c, &rel]() { rel[c] = engine.Now(); });
      });
    }
    EXPECT_TRUE(engine.RunUntilIdle(1'000'000));
    return rel;
  }
};

TEST(Hierarchy, SingleClusterDegeneratesToFlatNetwork) {
  // 4x4 fits one 7x7 cluster: one cluster + a 1x1 top level.
  Fixture f(4, 4);
  EXPECT_EQ(f.net->num_clusters(), 1u);
  const auto rel = f.RunEpisode(std::vector<Cycle>(16, 10));
  const Cycle hi = *std::max_element(rel.begin(), rel.end());
  // Flat cost (4) + the top-level round trip on a 1x1 grid.
  EXPECT_LE(hi, 10u + 8u);
  EXPECT_EQ(f.net->barriers_completed(), 1u);
}

TEST(Hierarchy, EightByEightUsesFourClusters) {
  // 8x8 = 64 cores: balanced into 2x2 clusters of 4x4.
  Fixture f(8, 8);
  EXPECT_EQ(f.net->num_clusters(), 4u);
  const auto rel = f.RunEpisode(std::vector<Cycle>(64, 20));
  for (CoreId c = 0; c < 64; ++c) {
    ASSERT_NE(rel[c], kCycleNever) << "core " << c;
    EXPECT_GE(rel[c], 20u + 6u) << "two levels cannot beat one";
    EXPECT_LE(rel[c], 20u + 12u) << "should stay near 8-9 cycles";
  }
}

TEST(Hierarchy, LineBudgetIsStrictEverywhere) {
  // Every line in every sub-network obeys the 6-transmitter limit —
  // constructing with TxPolicy::kReject inside proves it. Line budget:
  // 4 balanced 4x4 clusters x 2*(4+1) + top 2x2 level 2*(2+1) = 46.
  Fixture f(8, 8);
  EXPECT_EQ(f.net->total_lines(), 46u);
}

TEST(Hierarchy, NoEarlyReleaseAcrossClusters) {
  // The straggler sits in a different cluster than everyone else; no
  // other cluster may release before it arrives.
  Fixture f(8, 8);
  std::vector<Cycle> arrivals(64, 10);
  arrivals[63] = 400;  // bottom-right cluster straggler
  const auto rel = f.RunEpisode(arrivals);
  for (CoreId c = 0; c < 64; ++c) {
    EXPECT_GE(rel[c], 400u) << "core " << c << " released before the straggler";
    EXPECT_LE(rel[c], 412u);
  }
}

TEST(Hierarchy, BackToBackEpisodes) {
  Fixture f(8, 8);
  for (int e = 0; e < 20; ++e) {
    const Cycle t = f.engine.Now() + 3;
    const auto rel = f.RunEpisode(std::vector<Cycle>(64, t));
    for (CoreId c = 0; c < 64; ++c) ASSERT_NE(rel[c], kCycleNever);
  }
  EXPECT_EQ(f.net->barriers_completed(), 20u);
}

TEST(Hierarchy, LargeMeshesUpTo49x49) {
  // 14x14 = 196 cores (4 clusters of 7x7).
  {
    Fixture f(14, 14);
    EXPECT_EQ(f.net->num_clusters(), 4u);
    const auto rel = f.RunEpisode(std::vector<Cycle>(196, 10));
    const Cycle hi = *std::max_element(rel.begin(), rel.end());
    EXPECT_LE(hi, 10u + 12u);
  }
  // 21x21 = 441 cores (9 clusters) — far beyond the flat 7x7 limit,
  // barrier latency unchanged.
  {
    Fixture f(21, 21);
    EXPECT_EQ(f.net->num_clusters(), 9u);
    const auto rel = f.RunEpisode(std::vector<Cycle>(441, 10));
    const Cycle hi = *std::max_element(rel.begin(), rel.end());
    EXPECT_LE(hi, 10u + 12u);
  }
}

TEST(Hierarchy, RaggedEdgeClusters) {
  // 9x10: balanced grid 2x2 -> clusters 5x5, 5x5, 4x5, 4x5.
  Fixture f(9, 10);
  EXPECT_EQ(f.net->num_clusters(), 4u);
  std::vector<Cycle> arrivals(90);
  for (CoreId c = 0; c < 90; ++c) arrivals[c] = 5 + (c * 13) % 29;
  const Cycle last = *std::max_element(arrivals.begin(), arrivals.end());
  const auto rel = f.RunEpisode(arrivals);
  for (CoreId c = 0; c < 90; ++c) {
    ASSERT_NE(rel[c], kCycleNever) << "core " << c;
    EXPECT_GE(rel[c], last);
  }
}

TEST(Hierarchy, ThreeLevelMeshes) {
  // 50x50 = 2500 cores needs an 8x8 cluster grid, which itself exceeds
  // 7x7 — clustering recurses to depth 3 (was a construction error
  // before the network generalized past two levels).
  Fixture f(50, 50);
  EXPECT_EQ(f.net->num_levels(), 3u);
  const auto rel = f.RunEpisode(std::vector<Cycle>(2500, 10));
  const Cycle hi = *std::max_element(rel.begin(), rel.end());
  const Cycle lo = *std::min_element(rel.begin(), rel.end());
  EXPECT_GE(lo, 10u);
  EXPECT_LE(hi, 10u + 4u * 3u);
  EXPECT_EQ(f.net->barriers_completed(), 1u);
}

TEST(Hierarchy, LatencyModelFourCyclesPerLevel) {
  // The paper's model: each level adds one 2-cycle gather and one
  // 2-cycle release wave, with a combinational hand-off between levels.
  // For simultaneous arrivals at T the LAST core is released at exactly
  // T + 4*depth. Sweep the fig5 hier points 64 / 256 / 1024 cores.
  const struct {
    std::uint32_t rows, cols, depth;
  } meshes[] = {{8, 8, 2}, {16, 16, 2}, {32, 32, 2}, {64, 64, 3}};
  for (const auto& m : meshes) {
    Fixture f(m.rows, m.cols);
    ASSERT_EQ(f.net->num_levels(), m.depth) << m.rows << "x" << m.cols;
    const auto rel =
        f.RunEpisode(std::vector<Cycle>(m.rows * m.cols, 100));
    const Cycle hi = *std::max_element(rel.begin(), rel.end());
    EXPECT_EQ(hi, 100u + 4u * m.depth) << m.rows << "x" << m.cols;
  }
}

TEST(Hierarchy, DeepHierarchyFromTinyClusters) {
  // Shrinking the cluster cap to 2x2 forces 16x16 through four levels
  // (16 -> 8 -> 4 -> 2 -> root); the latency model holds at depth 4.
  HierConfig cfg;
  cfg.cluster_rows = 2;
  cfg.cluster_cols = 2;
  Fixture f(16, 16, cfg);
  EXPECT_EQ(f.net->num_levels(), 4u);
  EXPECT_EQ(f.net->num_clusters(), 64u);
  const auto rel = f.RunEpisode(std::vector<Cycle>(256, 50));
  const Cycle hi = *std::max_element(rel.begin(), rel.end());
  EXPECT_EQ(hi, 50u + 4u * 4u);
}

TEST(Hierarchy, StatPrefixesDoNotAlias) {
  // Regression: every level/cluster sub-network used to register its
  // counters under the same "gl." names, so one global barrier bumped
  // the shared counter once per cluster plus once for the top level
  // (num_clusters + 1). With per-node prefixes the network-wide counter
  // increments exactly once and the per-node counters stay separate.
  Fixture f(8, 8);
  f.RunEpisode(std::vector<Cycle>(64, 10));
  EXPECT_EQ(f.stats.CounterValue("glh.barriers_completed"), 1u);
  // The old aliased name must not exist at all on a hierarchical run.
  EXPECT_EQ(f.stats.CounterValue("gl.barriers_completed"), 0u);
  // Each of the 4 leaf clusters and the root completed one local
  // episode under its own prefix.
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(f.stats.CounterValue("glh.l0.c" + std::to_string(i) +
                                   ".barriers_completed"),
              1u);
  }
  EXPECT_EQ(f.stats.CounterValue("glh.l1.c0.barriers_completed"), 1u);
  EXPECT_EQ(f.net->AggregateCounter("barriers_completed"), 5u);
}

TEST(HierarchyResilience, TotalLineFailureDegradesSafely) {
  // "Wire is toast" at every level: every G-line signal is dropped, so
  // every node must degrade through watchdog -> retries -> fallback.
  // The safety invariant still holds: a cross-cluster straggler keeps
  // the whole chip waiting, and the episode completes (degraded).
  HierConfig cfg;
  cfg.node.watchdog_timeout = 300;
  cfg.node.max_retries = 1;
  Fixture f(8, 8, cfg);
  fault::FaultPlan plan;
  plan.seed = 7;
  plan.gline_drop_rate = 1.0;
  fault::FaultInjector inj(f.engine, plan, f.stats);
  inj.Arm(*f.net);

  std::vector<Cycle> arrivals(64, 10);
  arrivals[63] = 2000;  // bottom-right cluster straggler
  const auto rel = f.RunEpisode(arrivals);
  for (CoreId c = 0; c < 64; ++c) {
    ASSERT_NE(rel[c], kCycleNever) << "core " << c << " never released";
    EXPECT_GE(rel[c], 2000u) << "core " << c << " released before the straggler";
  }
  EXPECT_TRUE(f.net->degraded_any());
  EXPECT_EQ(f.net->barriers_completed(), 1u);
  EXPECT_GT(f.net->AggregateCounter("degraded_episodes"), 0u);

  // Degraded steady state: the next episode still completes.
  const auto rel2 = f.RunEpisode(std::vector<Cycle>(64, f.engine.Now() + 5));
  for (CoreId c = 0; c < 64; ++c) ASSERT_NE(rel2[c], kCycleNever);
  EXPECT_EQ(f.net->barriers_completed(), 2u);
}

class HierFaultFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HierFaultFuzz, EpisodesAlwaysCompleteAndNeverReleaseEarly) {
  // Mirror of tests/gline_fault_fuzz_test.cc for the multi-level
  // network: randomized fault plans over multi-cluster meshes; the
  // resilience invariant must hold at every depth.
  Rng rng(GetParam() * 0x9E3779B9u);

  const std::pair<std::uint32_t, std::uint32_t> shapes[] = {
      {8, 8}, {9, 10}, {14, 14}};
  const auto [rows, cols] = shapes[rng.NextBelow(std::size(shapes))];
  const std::uint32_t n = rows * cols;

  sim::Engine engine;
  StatSet stats;
  HierConfig cfg;
  // Generous: an upper level's watchdog only starts at its first
  // cluster arrival, but a sibling cluster may burn its whole retry
  // budget (watchdog x retries) before forwarding anything.
  cfg.node.watchdog_timeout = 2000;
  cfg.node.max_retries = static_cast<std::uint32_t>(rng.NextBelow(3));
  HierarchicalBarrierNetwork net(engine, rows, cols, cfg, stats);

  fault::FaultPlan plan;
  plan.seed = GetParam();
  plan.gline_drop_rate = rng.NextBool(0.7) ? rng.NextDouble() * 0.2 : 0.0;
  plan.gline_dup_rate = rng.NextBool(0.4) ? rng.NextDouble() * 0.15 : 0.0;
  plan.csma_corrupt_rate = rng.NextBool(0.4) ? rng.NextDouble() * 0.15 : 0.0;
  plan.core_freeze_rate = rng.NextBool(0.3) ? rng.NextDouble() * 0.05 : 0.0;
  plan.core_freeze_cycles = 1 + rng.NextBelow(200);
  fault::FaultInjector inj(engine, plan, stats);
  inj.Arm(net);

  constexpr int kEpisodes = 6;
  int episode = 0;
  std::uint32_t arrived = 0;
  std::uint32_t released = 0;
  bool early_release = false;

  std::function<void()> start_episode = [&]() {
    arrived = 0;
    released = 0;
    const Cycle now = engine.Now();
    for (CoreId c = 0; c < n; ++c) {
      engine.ScheduleAt(now + 1 + rng.NextBelow(60), [&, c]() {
        ++arrived;
        net.Arrive(c, [&]() {
          if (arrived != n) early_release = true;
          if (++released == n && ++episode < kEpisodes) start_episode();
        });
      });
    }
  };
  start_episode();

  ASSERT_TRUE(engine.RunUntilIdle(50'000'000))
      << "hierarchical network hung under fault plan seed " << GetParam()
      << " (" << rows << "x" << cols << ", drop=" << plan.gline_drop_rate
      << " dup=" << plan.gline_dup_rate << " csma=" << plan.csma_corrupt_rate
      << " freeze=" << plan.core_freeze_rate << ")";
  EXPECT_EQ(episode, kEpisodes) << "starved (seed " << GetParam() << ")";
  EXPECT_FALSE(early_release)
      << "released a core early (seed " << GetParam() << ")";
  EXPECT_EQ(net.barriers_completed(), static_cast<std::uint64_t>(kEpisodes));
}

INSTANTIATE_TEST_SUITE_P(Seeds, HierFaultFuzz,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace glb::gline
