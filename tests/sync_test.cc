// Software synchronization runtime tests: CSW and DSW barriers and the
// spinlock, all running over the full coherent-memory stack.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <ostream>
#include <vector>

#include "cmp/cmp_system.h"
#include "sync/barrier.h"
#include "sync/dissemination_barrier.h"
#include "sync/spinlock.h"
#include "sync/sw_barrier.h"
#include "sync/tuned_barrier.h"
#include "sync/zoo_barrier.h"

namespace glb::sync {
namespace {

using cmp::CmpConfig;
using cmp::CmpSystem;
using core::Core;
using core::Task;
using core::TimeCat;

std::unique_ptr<Barrier> MakeBarrier(const std::string& kind, CmpSystem& sys) {
  if (kind == "GL") return std::make_unique<GlBarrier>();
  if (kind == "CSW")
    return std::make_unique<CentralBarrier>(sys.allocator(), sys.num_cores());
  if (kind == "DIS")
    return std::make_unique<DisseminationBarrier>(sys.allocator(), sys.num_cores());
  if (kind == "RDBL")
    return std::make_unique<RecursiveDoublingBarrier>(sys.allocator(),
                                                      sys.num_cores());
  if (kind == "GALOIS")
    return std::make_unique<GaloisFastBarrier>(sys.allocator(), sys.num_cores(),
                                               sys.config().cols);
  if (kind == "TUNED")
    return std::make_unique<TunedBarrier>(sys.allocator(), sys.num_cores(),
                                          sys.config().cols, sys.stats());
  // DSW with an explicit fan-in ("DSW3", "DSW4"): the TreeBarrier's
  // non-binary chunking at awkward core counts is a known hazard zone.
  if (kind == "DSW3")
    return std::make_unique<TreeBarrier>(sys.allocator(), sys.num_cores(), 3);
  if (kind == "DSW4")
    return std::make_unique<TreeBarrier>(sys.allocator(), sys.num_cores(), 4);
  return std::make_unique<TreeBarrier>(sys.allocator(), sys.num_cores());
}

// The fundamental barrier property: no core may proceed past barrier k
// until every core has arrived at barrier k. Detected via a shared
// phase-counting protocol held in host (non-simulated) state.
struct BarrierParam {
  const char* kind;
  std::uint32_t rows, cols;
  int episodes;
};

// Prints "CSW 2x2 x10" instead of gtest's raw byte dump, which embeds
// the address of `kind` and so changes from one build to the next.
void PrintTo(const BarrierParam& p, std::ostream* os) {
  *os << p.kind << ' ' << p.rows << 'x' << p.cols << " x" << p.episodes;
}

class BarrierProperty : public ::testing::TestWithParam<BarrierParam> {};

TEST_P(BarrierProperty, NoEarlyRelease) {
  const auto p = GetParam();
  CmpConfig cfg;
  cfg.rows = p.rows;
  cfg.cols = p.cols;
  CmpSystem sys(cfg);
  auto barrier = MakeBarrier(p.kind, sys);
  const std::uint32_t n = sys.num_cores();

  std::vector<int> arrived_count(static_cast<std::size_t>(p.episodes), 0);
  bool violated = false;

  auto body = [](Core& c, Barrier* bar, std::vector<int>* arrived, bool* bad,
                 std::uint32_t ncores, int episodes) -> Task {
    for (int e = 0; e < episodes; ++e) {
      // Stagger arrivals differently every episode.
      co_await c.Compute(1 + ((c.id() * 13 + static_cast<std::uint32_t>(e) * 7) % 50));
      ++(*arrived)[static_cast<std::size_t>(e)];
      co_await bar->Wait(c);
      if ((*arrived)[static_cast<std::size_t>(e)] !=
          static_cast<int>(ncores)) {
        *bad = true;  // released before everyone arrived
      }
    }
  };

  ASSERT_TRUE(sys.RunPrograms(
      [&](Core& c, CoreId) {
        return body(c, barrier.get(), &arrived_count, &violated, n, p.episodes);
      },
      500'000'000))
      << "deadlock or runaway";
  EXPECT_FALSE(violated) << "a core passed the barrier early";
  EXPECT_EQ(sys.stats().CounterValue("core.barriers"),
            static_cast<std::uint64_t>(p.episodes) * n);
}

INSTANTIATE_TEST_SUITE_P(
    AllKindsAndSizes, BarrierProperty,
    ::testing::Values(BarrierParam{"GL", 2, 2, 20}, BarrierParam{"GL", 4, 4, 20},
                      BarrierParam{"GL", 4, 8, 10}, BarrierParam{"CSW", 2, 2, 10},
                      BarrierParam{"CSW", 4, 4, 8}, BarrierParam{"CSW", 4, 8, 5},
                      BarrierParam{"DSW", 2, 2, 10}, BarrierParam{"DSW", 4, 4, 8},
                      BarrierParam{"DSW", 4, 8, 5}, BarrierParam{"DIS", 2, 2, 10},
                      BarrierParam{"DIS", 4, 4, 8}, BarrierParam{"DIS", 4, 8, 5}),
    [](const ::testing::TestParamInfo<BarrierParam>& pinfo) {
      const auto& p = pinfo.param;
      return std::string(p.kind) + "_" + std::to_string(p.rows) + "x" +
             std::to_string(p.cols);
    });

// The zoo barriers under the same no-early-release property, including
// the sizes where their round structures differ most: power-of-two
// (where RDBL has no proxy phase) and the 4x8=32 mesh, plus a
// tuned run long enough to cross warmup + negotiation + steady state.
INSTANTIATE_TEST_SUITE_P(
    ZooKinds, BarrierProperty,
    ::testing::Values(
        BarrierParam{"RDBL", 2, 2, 10}, BarrierParam{"RDBL", 4, 4, 8},
        BarrierParam{"RDBL", 4, 8, 5}, BarrierParam{"GALOIS", 2, 2, 10}, BarrierParam{"GALOIS", 4, 4, 8},
        BarrierParam{"GALOIS", 4, 8, 5}, BarrierParam{"TUNED", 4, 4, 12}),
    [](const ::testing::TestParamInfo<BarrierParam>& pinfo) {
      const auto& p = pinfo.param;
      return std::string(p.kind) + "_" + std::to_string(p.rows) + "x" +
             std::to_string(p.cols);
    });

// The correctness sweep at the awkward core counts: 48 (non-power-of-
// two, extras phase in RDBL), 96 and 192 (non-square meshes whose
// tree chunking and round structures exercise every branch),
// including TreeBarrier at fan-in 3 and 4 where leaf chunks straddle
// the last partial node.
INSTANTIATE_TEST_SUITE_P(
    AwkwardCoreCounts, BarrierProperty,
    ::testing::Values(
        BarrierParam{"CSW", 6, 8, 4}, BarrierParam{"DSW", 6, 8, 4},
        BarrierParam{"DIS", 6, 8, 4}, BarrierParam{"RDBL", 6, 8, 4},
        BarrierParam{"GALOIS", 6, 8, 4},
        BarrierParam{"DSW3", 6, 8, 4}, BarrierParam{"DSW4", 6, 8, 4},
        BarrierParam{"CSW", 8, 12, 3}, BarrierParam{"DSW", 8, 12, 3},
        BarrierParam{"DIS", 8, 12, 3}, BarrierParam{"RDBL", 8, 12, 3},
        BarrierParam{"GALOIS", 8, 12, 3},
        BarrierParam{"DSW3", 8, 12, 3}, BarrierParam{"DSW4", 8, 12, 3},
        BarrierParam{"CSW", 12, 16, 2}, BarrierParam{"DSW", 12, 16, 2},
        BarrierParam{"DIS", 12, 16, 2}, BarrierParam{"RDBL", 12, 16, 2},
        BarrierParam{"GALOIS", 12, 16, 2},
        BarrierParam{"DSW3", 12, 16, 2}, BarrierParam{"DSW4", 12, 16, 2}),
    [](const ::testing::TestParamInfo<BarrierParam>& pinfo) {
      const auto& p = pinfo.param;
      return std::string(p.kind) + "_" + std::to_string(p.rows) + "x" +
             std::to_string(p.cols);
    });

TEST(SwBarrier, SingleCoreBarrierIsTrivial) {
  CmpConfig cfg;
  cfg.rows = 1;
  cfg.cols = 1;
  CmpSystem sys(cfg);
  for (const char* kind :
       {"GL", "CSW", "DSW", "DIS", "RDBL", "GALOIS", "TUNED"}) {
    auto barrier = MakeBarrier(kind, sys);
    bool done = false;
    auto body = [](Core& c, Barrier* b, bool* out) -> Task {
      for (int i = 0; i < 5; ++i) co_await b->Wait(c);
      *out = true;
    };
    sys.core(0).Run(body(sys.core(0), barrier.get(), &done));
    ASSERT_TRUE(sys.engine().RunUntilIdle(10'000'000)) << kind;
    EXPECT_TRUE(done) << kind;
  }
}

TEST(ZooBarrier, NamesMatchTheRegistry) {
  CmpConfig cfg;
  cfg.rows = 2;
  cfg.cols = 2;
  CmpSystem sys(cfg);
  EXPECT_STREQ(RecursiveDoublingBarrier(sys.allocator(), 4).name(), "RDBL");
  EXPECT_STREQ(GaloisFastBarrier(sys.allocator(), 4, 2).name(), "GALOIS");
  EXPECT_STREQ(TunedBarrier(sys.allocator(), 4, 2, sys.stats()).name(), "TUNED");
}

// The coll_tuned-style decision table, pinned at its calibrated
// boundaries (DESIGN.md records the crossover study behind them).
TEST(TunedBarrier, DecisionTableBoundaries) {
  EXPECT_STREQ(TunedChoiceName(16, 1499.0), "RDBL");
  EXPECT_STREQ(TunedChoiceName(16, 1500.0), "CSW");
  EXPECT_STREQ(TunedChoiceName(64, 2499.0), "RDBL");
  EXPECT_STREQ(TunedChoiceName(64, 2500.0), "GALOIS");
  EXPECT_STREQ(TunedChoiceName(256, 6999.0), "RDBL");
  EXPECT_STREQ(TunedChoiceName(256, 7000.0), "GALOIS");
  EXPECT_STREQ(TunedChoiceName(1024, 19999.0), "RDBL");
  EXPECT_STREQ(TunedChoiceName(1024, 20000.0), "GALOIS");
}

// The tuned negotiation publishes one choice through simulated memory:
// every core must delegate to the same candidate, and the stat counters
// must record exactly one decision.
TEST(TunedBarrier, AllCoresAgreeOnOneChoice) {
  CmpConfig cfg;
  cfg.rows = 4;
  cfg.cols = 4;
  CmpSystem sys(cfg);
  TunedBarrier barrier(sys.allocator(), sys.num_cores(), cfg.cols, sys.stats());
  auto body = [](Core& c, Barrier* b) -> Task {
    for (int i = 0; i < 10; ++i) {
      co_await c.Compute(1 + c.id() % 7);
      co_await b->Wait(c);
    }
  };
  ASSERT_TRUE(sys.RunPrograms([&](Core& c, CoreId) { return body(c, &barrier); }));
  std::uint64_t decisions = 0;
  sys.stats().ForEachCounter([&](const std::string& name, const Counter& c) {
    if (name.rfind("sync.tuned.choice.", 0) == 0) decisions += c.value();
  });
  EXPECT_EQ(decisions, 1u) << "exactly one table lookup, by core 0";
  EXPECT_EQ(sys.stats().CounterValue("sync.tuned.warmup_episodes"), 4u);
  EXPECT_GT(sys.stats().CounterValue("sync.tuned.measured_period"), 0u);
  EXPECT_EQ(sys.stats().CounterValue("core.barriers"), 10u * 16u)
      << "delegation must not double-count";
}

TEST(SwBarrier, BarrierTimeIsAttributedToBarrierCategory) {
  CmpConfig cfg;
  cfg.rows = 2;
  cfg.cols = 2;
  CmpSystem sys(cfg);
  CentralBarrier barrier(sys.allocator(), sys.num_cores());
  auto body = [](Core& c, Barrier* b) -> Task {
    co_await c.Compute(10 * (c.id() + 1));
    co_await b->Wait(c);
  };
  ASSERT_TRUE(sys.RunPrograms([&](Core& c, CoreId) { return body(c, &barrier); }));
  const auto bd = sys.TotalBreakdown();
  EXPECT_GT(bd[TimeCat::kBarrier], 0u);
  EXPECT_EQ(bd[TimeCat::kRead], 0u) << "spin loads must count as Barrier";
  EXPECT_EQ(bd[TimeCat::kWrite], 0u);
}

TEST(SwBarrier, TreeStructureCoversAllCores) {
  CmpConfig cfg = CmpConfig::WithCores(32);
  CmpSystem sys(cfg);
  TreeBarrier t(sys.allocator(), 32);
  // 32 cores, fan-in 2: 16 + 8 + 4 + 2 + 1 = 31 nodes.
  EXPECT_EQ(t.num_nodes(), 31u);
  TreeBarrier t3(sys.allocator(), 9, 3);
  // 9 cores fan-in 3: 3 leaves + 1 root.
  EXPECT_EQ(t3.num_nodes(), 4u);
}

TEST(SwBarrier, GlGeneratesNoNetworkTraffic) {
  CmpConfig cfg;
  cfg.rows = 2;
  cfg.cols = 2;
  CmpSystem sys(cfg);
  GlBarrier barrier;
  auto body = [](Core& c, Barrier* b) -> Task {
    for (int i = 0; i < 10; ++i) co_await b->Wait(c);
  };
  ASSERT_TRUE(sys.RunPrograms([&](Core& c, CoreId) { return body(c, &barrier); }));
  EXPECT_EQ(sys.stats().SumCountersWithPrefix("noc.msgs."), 0u)
      << "the G-line barrier must not touch the data NoC";
  EXPECT_EQ(sys.stats().CounterValue("gl.barriers_completed"), 10u);
}

TEST(SwBarrier, SoftwareBarriersDoGenerateTraffic) {
  CmpConfig cfg;
  cfg.rows = 2;
  cfg.cols = 2;
  CmpSystem sys(cfg);
  CentralBarrier barrier(sys.allocator(), sys.num_cores());
  auto body = [](Core& c, Barrier* b) -> Task {
    for (int i = 0; i < 5; ++i) co_await b->Wait(c);
  };
  ASSERT_TRUE(sys.RunPrograms([&](Core& c, CoreId) { return body(c, &barrier); }));
  EXPECT_GT(sys.stats().SumCountersWithPrefix("noc.msgs."), 0u);
}

// --------------------------------------------------------------------------
// SpinLock
// --------------------------------------------------------------------------

TEST(SpinLock, MutualExclusionUnderContention) {
  CmpConfig cfg;
  cfg.rows = 2;
  cfg.cols = 2;
  CmpSystem sys(cfg);
  SpinLock lock(sys.allocator());
  int inside = 0;
  int max_inside = 0;
  long total = 0;
  auto body = [](Core& c, SpinLock* l, int* in, int* max_in, long* tot) -> Task {
    for (int i = 0; i < 20; ++i) {
      co_await l->Acquire(c);
      ++*in;
      *max_in = std::max(*max_in, *in);
      ++*tot;
      co_await c.Compute(5);  // critical section work
      --*in;
      co_await l->Release(c);
      co_await c.Compute(3);
    }
  };
  ASSERT_TRUE(sys.RunPrograms([&](Core& c, CoreId) {
    return body(c, &lock, &inside, &max_inside, &total);
  }));
  EXPECT_EQ(max_inside, 1) << "two cores inside the critical section";
  EXPECT_EQ(total, 80);
}

TEST(SpinLock, ProtectsSharedCounterIncrements) {
  CmpConfig cfg;
  cfg.rows = 2;
  cfg.cols = 2;
  CmpSystem sys(cfg);
  SpinLock lock(sys.allocator());
  const Addr counter = sys.allocator().AllocVar();
  auto body = [](Core& c, SpinLock* l, Addr a) -> Task {
    for (int i = 0; i < 10; ++i) {
      co_await l->Acquire(c);
      const Word v = co_await c.Load(a);   // unprotected RMW made safe by lock
      co_await c.Compute(2);
      co_await c.Store(a, v + 1);
      co_await l->Release(c);
    }
  };
  ASSERT_TRUE(sys.RunPrograms([&](Core& c, CoreId) { return body(c, &lock, counter); }));
  // Read back the final value.
  Word final_value = 0;
  auto reader = [](Core& c, Addr a, Word* out) -> Task { *out = co_await c.Load(a); };
  sys.core(0).Run(reader(sys.core(0), counter, &final_value));
  ASSERT_TRUE(sys.engine().RunUntilIdle(1'000'000));
  EXPECT_EQ(final_value, 40u);
}

TEST(SpinLock, TimeAttributedToLockCategory) {
  CmpConfig cfg;
  cfg.rows = 2;
  cfg.cols = 2;
  CmpSystem sys(cfg);
  SpinLock lock(sys.allocator());
  auto body = [](Core& c, SpinLock* l) -> Task {
    for (int i = 0; i < 5; ++i) {
      co_await l->Acquire(c);
      co_await l->Release(c);
    }
  };
  ASSERT_TRUE(sys.RunPrograms([&](Core& c, CoreId) { return body(c, &lock); }));
  const auto bd = sys.TotalBreakdown();
  EXPECT_GT(bd[TimeCat::kLock], 0u);
  EXPECT_EQ(bd[TimeCat::kWrite], 0u) << "lock stores must count as Lock";
}

}  // namespace
}  // namespace glb::sync
