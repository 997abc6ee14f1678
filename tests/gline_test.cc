// G-line barrier network tests: wire/S-CSMA behaviour, the Figure-4
// FSMs, the 4-cycle synchronization walkthrough of Figure 2, skewed
// arrivals, back-to-back barriers and transmitter-limit policies.
#include <gtest/gtest.h>

#include <algorithm>
#include <type_traits>
#include <vector>

#include "common/stats.h"
#include "gline/barrier_network.h"
#include "gline/gline.h"
#include "sim/engine.h"

namespace glb::gline {
namespace {

// ---------------------------------------------------------------------------
// GLine wire + S-CSMA
// ---------------------------------------------------------------------------

TEST(GLineWire, SingleAssertArrivesOneCycleLater) {
  sim::Engine e;
  GLine line(e, "t", 4, 6, TxPolicy::kReject, nullptr);
  Cycle at = kCycleNever;
  std::uint32_t count = 0;
  line.AddReceiver([&](std::uint32_t c) {
    at = e.Now();
    count = c;
  });
  e.ScheduleAt(10, [&]() { line.Assert(); });
  e.RunUntilIdle();
  EXPECT_EQ(at, 11u);
  EXPECT_EQ(count, 1u);
}

// S-CSMA: k simultaneous transmitters are counted exactly.
class Scsma : public ::testing::TestWithParam<int> {};

TEST_P(Scsma, CountsSimultaneousTransmitters) {
  const int k = GetParam();
  sim::Engine e;
  GLine line(e, "t", 6, 6, TxPolicy::kReject, nullptr);
  std::uint32_t count = 0;
  line.AddReceiver([&](std::uint32_t c) { count = c; });
  e.ScheduleAt(5, [&]() {
    for (int i = 0; i < k; ++i) line.Assert();
  });
  e.RunUntilIdle();
  EXPECT_EQ(count, static_cast<std::uint32_t>(k));
}

INSTANTIATE_TEST_SUITE_P(OneToSix, Scsma, ::testing::Range(1, 7));

TEST(GLineWire, SeparateCyclesAreSeparateBatches) {
  sim::Engine e;
  GLine line(e, "t", 3, 6, TxPolicy::kReject, nullptr);
  std::vector<std::pair<Cycle, std::uint32_t>> got;
  line.AddReceiver([&](std::uint32_t c) { got.emplace_back(e.Now(), c); });
  e.ScheduleAt(1, [&]() { line.Assert(); });
  e.ScheduleAt(1, [&]() { line.Assert(); });
  e.ScheduleAt(2, [&]() { line.Assert(); });
  e.RunUntilIdle();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], std::make_pair(Cycle{2}, 2u));
  EXPECT_EQ(got[1], std::make_pair(Cycle{3}, 1u));
}

TEST(GLineWire, WithinBudgetHasUnitLatency) {
  sim::Engine e;
  GLine line(e, "t", 6, 6, TxPolicy::kReject, nullptr);
  EXPECT_EQ(line.latency(), 1u);
}

TEST(GLineWire, RelaxedPolicyScalesLatency) {
  sim::Engine e;
  EXPECT_EQ(GLine(e, "a", 7, 6, TxPolicy::kRelaxed, nullptr).latency(), 2u);
  EXPECT_EQ(GLine(e, "b", 12, 6, TxPolicy::kRelaxed, nullptr).latency(), 2u);
  EXPECT_EQ(GLine(e, "c", 13, 6, TxPolicy::kRelaxed, nullptr).latency(), 3u);
}

TEST(GLineWireDeath, RejectPolicyRefusesOverload) {
  sim::Engine e;
  EXPECT_DEATH(GLine(e, "t", 7, 6, TxPolicy::kReject, nullptr), "exceeding the limit");
}

TEST(GLineWire, MultipleReceiversAllObserve) {
  sim::Engine e;
  GLine line(e, "t", 1, 6, TxPolicy::kReject, nullptr);
  int calls = 0;
  for (int i = 0; i < 3; ++i) line.AddReceiver([&](std::uint32_t) { ++calls; });
  e.ScheduleAt(0, [&]() { line.Assert(); });
  e.RunUntilIdle();
  EXPECT_EQ(calls, 3);
}

// In-flight flushes point into the line: a moved-from GLine would
// leave them dangling. The type is pinned in place
// (containers must hold it through std::unique_ptr).
static_assert(!std::is_move_constructible_v<GLine>);
static_assert(!std::is_move_assignable_v<GLine>);
static_assert(!std::is_copy_constructible_v<GLine>);
static_assert(!std::is_copy_assignable_v<GLine>);

TEST(GLineWire, CancelPendingDropsAllInFlightBatches) {
  // A relaxed 13-transmitter line has latency 3, so three batches can be
  // in flight at once; CancelPending must invalidate every one of them,
  // and batches opened afterwards must deliver normally.
  sim::Engine e;
  GLine line(e, "t", 13, 6, TxPolicy::kRelaxed, nullptr);
  ASSERT_EQ(line.latency(), 3u);
  std::vector<std::pair<Cycle, std::uint32_t>> got;
  line.AddReceiver([&](std::uint32_t c) { got.emplace_back(e.Now(), c); });
  e.ScheduleAt(1, [&]() { line.Assert(); });
  e.ScheduleAt(2, [&]() { line.Assert(); });
  e.ScheduleAt(3, [&]() { line.Assert(); });
  // Same cycle as the third Assert, but scheduled after it: the batch
  // opened this very cycle is cancelled too.
  e.ScheduleAt(3, [&]() {
    EXPECT_TRUE(line.has_pending());
    line.CancelPending();
    EXPECT_FALSE(line.has_pending());
  });
  e.ScheduleAt(4, [&]() { line.Assert(); });
  e.RunUntilIdle();
  ASSERT_EQ(got.size(), 1u) << "cancelled batches must not deliver";
  EXPECT_EQ(got[0], std::make_pair(Cycle{7}, 1u));
}

// ---------------------------------------------------------------------------
// BarrierNetwork
// ---------------------------------------------------------------------------

struct NetFixture {
  sim::Engine engine;
  StatSet stats;
  std::unique_ptr<BarrierNetwork> net;

  NetFixture(std::uint32_t rows, std::uint32_t cols, BarrierNetConfig cfg = {}) {
    net = std::make_unique<BarrierNetwork>(engine, rows, cols, cfg, stats);
  }

  /// Each core arrives at its `arrival_cycles` entry (kCycleNever: it
  /// does not arrive); returns per-core release cycles (kCycleNever for
  /// cores never released).
  std::vector<Cycle> RunOneBarrier(const std::vector<Cycle>& arrival_cycles) {
    std::vector<Cycle> released(net->num_cores(), kCycleNever);
    for (CoreId c = 0; c < net->num_cores(); ++c) {
      if (arrival_cycles[c] == kCycleNever) continue;
      engine.ScheduleAt(arrival_cycles[c], [this, c, &released]() {
        net->Arrive(c, [this, c, &released]() { released[c] = engine.Now(); });
      });
    }
    EXPECT_TRUE(engine.RunUntilIdle(1'000'000));
    return released;
  }
};

TEST(BarrierNet, LineBudgetMatchesPaperFormula) {
  // 2 x (rows + 1) lines; Figure 1's 16-core example: 10.
  NetFixture f(4, 4);
  EXPECT_EQ(f.net->total_lines(), 10u);
}

TEST(BarrierNet, FourCycleSynchronization2x2) {
  // The Figure-2 walkthrough: all four cores arrive at cycle 10; slave
  // cores resume 4 cycles later, column-0 cores one cycle earlier.
  NetFixture f(2, 2);
  const std::vector<Cycle> arrivals(4, 10);
  const auto released = f.RunOneBarrier(arrivals);
  // Nodes 1 and 3 are SlaveH nodes (col 1): T+4.
  EXPECT_EQ(released[1], 14u);
  EXPECT_EQ(released[3], 14u);
  // Nodes 0 and 2 are column-0 (MasterH) nodes: released at T+3.
  EXPECT_EQ(released[0], 13u);
  EXPECT_EQ(released[2], 13u);
  EXPECT_EQ(f.net->barriers_completed(), 1u);
}

TEST(BarrierNet, FourCycleSynchronization4x4) {
  // Latency is independent of mesh size while lines stay within budget.
  NetFixture f(4, 4);
  const std::vector<Cycle> arrivals(16, 100);
  const auto released = f.RunOneBarrier(arrivals);
  for (CoreId c = 0; c < 16; ++c) {
    const Cycle expect = (c % 4 == 0) ? 103u : 104u;
    EXPECT_EQ(released[c], expect) << "core " << c;
  }
}

TEST(BarrierNet, SevenBySevenStillFourCycles) {
  // The largest configuration the 6-transmitter budget supports.
  NetFixture f(7, 7, BarrierNetConfig{6, TxPolicy::kReject});
  const std::vector<Cycle> arrivals(49, 50);
  const auto released = f.RunOneBarrier(arrivals);
  for (CoreId c = 0; c < 49; ++c) {
    const Cycle expect = (c % 7 == 0) ? 53u : 54u;
    EXPECT_EQ(released[c], expect) << "core " << c;
  }
}

TEST(BarrierNet, NoReleaseBeforeLastArrival) {
  NetFixture f(2, 2);
  std::vector<Cycle> arrivals{10, 500, 20, 30};  // core 1 is very late
  const auto released = f.RunOneBarrier(arrivals);
  for (CoreId c = 0; c < 4; ++c) {
    EXPECT_GE(released[c], 500u) << "core " << c << " released early";
    EXPECT_LE(released[c], 505u) << "core " << c << " released too late";
  }
}

TEST(BarrierNet, SkewedArrivalsAnyOrder) {
  NetFixture f(4, 4);
  std::vector<Cycle> arrivals(16);
  for (CoreId c = 0; c < 16; ++c) arrivals[c] = 10 + ((c * 7) % 13) * 10;
  const Cycle last = *std::max_element(arrivals.begin(), arrivals.end());
  const auto released = f.RunOneBarrier(arrivals);
  for (CoreId c = 0; c < 16; ++c) {
    EXPECT_GE(released[c], last);
    EXPECT_LE(released[c], last + 4);
  }
}

TEST(BarrierNet, BackToBackBarriersReuseTheNetwork) {
  NetFixture f(2, 2);
  for (int episode = 0; episode < 50; ++episode) {
    const Cycle t = f.engine.Now() + 3;
    const auto released = f.RunOneBarrier(std::vector<Cycle>(4, t));
    for (CoreId c = 0; c < 4; ++c) {
      ASSERT_GE(released[c], t + 3) << "episode " << episode;
      ASSERT_LE(released[c], t + 4) << "episode " << episode;
    }
  }
  EXPECT_EQ(f.net->barriers_completed(), 50u);
}

TEST(BarrierNet, FsmStatesFollowFigure4) {
  NetFixture f(2, 2);
  auto& e = f.engine;
  auto& net = *f.net;
  // Initially: masters Accounting, slaves Signaling.
  EXPECT_EQ(net.MasterHState(0), BarrierNetwork::MasterState::kAccounting);
  EXPECT_EQ(net.MasterVState(), BarrierNetwork::MasterState::kAccounting);
  EXPECT_EQ(net.SlaveHState(1), BarrierNetwork::SlaveState::kSignaling);
  EXPECT_EQ(net.SlaveVState(1), BarrierNetwork::SlaveState::kSignaling);

  bool r1 = false, r3 = false;
  // Core 1 (SlaveH of row 0) arrives: Signaling -> Waiting immediately.
  e.ScheduleAt(10, [&]() { net.Arrive(1, [&]() { r1 = true; }); });
  e.RunUntil(10);
  EXPECT_EQ(net.SlaveHState(1), BarrierNetwork::SlaveState::kWaiting);
  EXPECT_EQ(net.ScntH(0), 0u) << "count arrives one cycle later";
  e.RunUntil(11);
  EXPECT_EQ(net.ScntH(0), 1u) << "S-CSMA count registered";
  EXPECT_EQ(net.MasterHState(0), BarrierNetwork::MasterState::kAccounting)
      << "row 0 master still waits for its own core";

  // Core 0 (MasterH node of row 0) arrives: Mcnt set, row completes,
  // MasterH -> Waiting, MasterV sees node-0 flag.
  e.ScheduleAt(20, [&]() { net.Arrive(0, []() {}); });
  e.RunUntil(20);
  EXPECT_TRUE(net.McntH(0));
  EXPECT_EQ(net.MasterHState(0), BarrierNetwork::MasterState::kWaiting);
  EXPECT_EQ(net.MasterVState(), BarrierNetwork::MasterState::kAccounting)
      << "row 1 has not completed yet";

  // Row 1 completes: core 3 (slave), then core 2 (master node).
  e.ScheduleAt(30, [&]() { net.Arrive(3, [&]() { r3 = true; }); });
  e.ScheduleAt(32, [&]() { net.Arrive(2, []() {}); });
  e.RunUntil(32);
  EXPECT_EQ(net.MasterHState(1), BarrierNetwork::MasterState::kWaiting);
  EXPECT_EQ(net.SlaveVState(1), BarrierNetwork::SlaveState::kWaiting)
      << "SlaveV signalled and waits";
  EXPECT_FALSE(r1);

  // Release wave: everything returns to the initial state.
  e.RunUntilIdle();
  EXPECT_TRUE(r1);
  EXPECT_TRUE(r3);
  EXPECT_EQ(net.MasterHState(0), BarrierNetwork::MasterState::kAccounting);
  EXPECT_EQ(net.MasterHState(1), BarrierNetwork::MasterState::kAccounting);
  EXPECT_EQ(net.MasterVState(), BarrierNetwork::MasterState::kAccounting);
  EXPECT_EQ(net.SlaveHState(1), BarrierNetwork::SlaveState::kSignaling);
  EXPECT_EQ(net.SlaveVState(1), BarrierNetwork::SlaveState::kSignaling);
  EXPECT_EQ(net.ScntH(0), 0u);
  EXPECT_EQ(net.ScntV(), 0u);
}

TEST(BarrierNetDeath, DoubleArrivalAborts) {
  NetFixture f(2, 2);
  f.engine.ScheduleAt(0, [&]() {
    f.net->Arrive(1, []() {});
    EXPECT_DEATH(f.net->Arrive(1, []() {}), "arrived twice");
  });
  f.engine.RunUntil(0);
}

// Latency sweep across mesh sizes (ablation A's unit-level companion).
class MeshSweep : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(MeshSweep, AllCoresReleasedTogether) {
  const auto [rows, cols] = GetParam();
  NetFixture f(static_cast<std::uint32_t>(rows), static_cast<std::uint32_t>(cols));
  const auto n = static_cast<std::uint32_t>(rows * cols);
  const auto released = f.RunOneBarrier(std::vector<Cycle>(n, 10));
  const Cycle lo = *std::min_element(released.begin(), released.end());
  const Cycle hi = *std::max_element(released.begin(), released.end());
  EXPECT_GE(lo, 11u);
  // Within budget: 4 cycles (+1 skew). Relaxed lines may add a little.
  EXPECT_LE(hi, 10u + 8u);
  EXPECT_EQ(f.net->barriers_completed(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, MeshSweep,
                         ::testing::Values(std::pair{1, 1}, std::pair{1, 4},
                                           std::pair{4, 1}, std::pair{2, 2},
                                           std::pair{2, 4}, std::pair{4, 4},
                                           std::pair{4, 8}, std::pair{7, 7},
                                           std::pair{8, 8}));

}  // namespace
}  // namespace glb::gline
