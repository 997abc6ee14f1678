// Fuzz tests for the G-line barrier layer against an independent
// closed-form oracle.
//
// The oracle re-derives the release cycle of every core from first
// principles (it shares no code with the FSM implementation):
//
//   row r completes at      C_r = max(max_s(t_s + Lh), m_r)
//   vertical completes at   V   = max(max_{r>0}(C_r + Lv), C_0)
//   column-0 cores release at   V + 1
//   all other cores release at  V + 2
//
// where t_s are the row's slave arrival cycles, m_r the master-node
// arrival, and Lh/Lv the arrival-line latencies (ceil(tx/6) under the
// relaxed policy; the release lines have one transmitter each and are
// always 1 cycle). Any divergence between this formula and the
// simulated network is a bug in one of them.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "gline/barrier_network.h"
#include "sim/engine.h"

namespace glb::gline {
namespace {

Cycle LineLatency(std::uint32_t transmitters, std::uint32_t max_tx) {
  return transmitters <= max_tx ? 1 : (transmitters + max_tx - 1) / max_tx;
}

struct Oracle {
  std::uint32_t rows, cols, max_tx;

  std::vector<Cycle> ReleaseCycles(const std::vector<Cycle>& arrival) const {
    const Cycle lh = LineLatency(cols - 1, max_tx);
    const Cycle lv = LineLatency(rows - 1, max_tx);
    std::vector<Cycle> row_complete(rows, 0);
    for (std::uint32_t r = 0; r < rows; ++r) {
      Cycle c = arrival[r * cols + 0];  // master-node arrival (Mcnt)
      for (std::uint32_t col = 1; col < cols; ++col) {
        c = std::max(c, arrival[r * cols + col] + lh);
      }
      row_complete[r] = c;
    }
    Cycle v = row_complete[0];
    for (std::uint32_t r = 1; r < rows; ++r) v = std::max(v, row_complete[r] + lv);
    std::vector<Cycle> release(rows * cols);
    for (std::uint32_t r = 0; r < rows; ++r) {
      for (std::uint32_t col = 0; col < cols; ++col) {
        // Release lines (MglineV/MglineH) have one transmitter each,
        // so the wave is 1 cycle per stage regardless of mesh width.
        release[r * cols + col] = v + 1 + (col == 0 ? 0 : 1);
      }
    }
    return release;
  }
};

class ArrivalFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ArrivalFuzz, SimulationMatchesClosedForm) {
  Rng rng(GetParam());
  const std::pair<std::uint32_t, std::uint32_t> shapes[] = {
      {1, 1}, {1, 5}, {5, 1}, {2, 2}, {3, 4}, {4, 8}, {7, 7}, {8, 8}};
  for (auto [rows, cols] : shapes) {
    sim::Engine engine;
    StatSet stats;
    BarrierNetwork net(engine, rows, cols, BarrierNetConfig{}, stats);
    const std::uint32_t n = rows * cols;
    const Oracle oracle{rows, cols, BarrierNetConfig{}.max_transmitters};

    Cycle base = 0;
    for (int episode = 0; episode < 8; ++episode) {
      std::vector<Cycle> arrival(n);
      for (CoreId c = 0; c < n; ++c) {
        arrival[c] = base + 1 + rng.NextBelow(60);
      }
      std::vector<Cycle> released(n, kCycleNever);
      for (CoreId c = 0; c < n; ++c) {
        engine.ScheduleAt(arrival[c], [&net, &engine, &released, c]() {
          net.Arrive(c, [&engine, &released, c]() {
            released[c] = engine.Now();
          });
        });
      }
      ASSERT_TRUE(engine.RunUntilIdle(1'000'000));
      const auto expected = oracle.ReleaseCycles(arrival);
      for (CoreId c = 0; c < n; ++c) {
        ASSERT_EQ(released[c], expected[c])
            << rows << "x" << cols << " episode " << episode << " core " << c;
      }
      base = *std::max_element(expected.begin(), expected.end());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArrivalFuzz, ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace glb::gline
