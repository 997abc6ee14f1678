// Randomized cross-check of the bucketed engine against a reference
// model: a plain sorted-vector event queue whose ordering rule —
// (cycle, insertion-sequence) — is trivially correct by construction.
// Scenarios are seeded and exercise the structural edges of the hybrid
// queue: ring wraparound (deltas straddling kRingCycles), far-heap
// promotion boundaries (delta == kRingCycles - 1 vs kRingCycles),
// zero-delay chains, nested scheduling from callbacks, and interleaved
// RunUntil segments.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/engine.h"

namespace glb::sim {
namespace {

/// Reference queue: linear-scan min extraction over (at, seq). Slow and
/// obviously correct.
class ReferenceEngine {
 public:
  Cycle Now() const { return now_; }

  void ScheduleAt(Cycle at, std::function<void()> fn) {
    GLB_CHECK(at >= now_) << "reference: scheduling into the past";
    q_.push_back(Event{at, next_seq_++, std::move(fn)});
  }
  void ScheduleIn(Cycle delta, std::function<void()> fn) {
    ScheduleAt(now_ + delta, std::move(fn));
  }

  bool RunUntilIdle(Cycle max_cycles = kCycleNever) {
    while (!q_.empty()) {
      const auto it = std::min_element(q_.begin(), q_.end(), Before);
      if (it->at > max_cycles) return false;
      now_ = it->at;
      auto fn = std::move(it->fn);
      q_.erase(it);
      fn();
    }
    return true;
  }

  void RunUntil(Cycle until) {
    while (!q_.empty()) {
      const auto it = std::min_element(q_.begin(), q_.end(), Before);
      if (it->at > until) break;
      now_ = it->at;
      auto fn = std::move(it->fn);
      q_.erase(it);
      fn();
    }
    now_ = until;
  }

 private:
  struct Event {
    Cycle at;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  static bool Before(const Event& a, const Event& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }
  std::vector<Event> q_;
  Cycle now_ = 0;
  std::uint64_t next_seq_ = 0;
};

/// One fired event: (cycle, creation id). Two engines agree iff their
/// full firing sequences agree.
using Trace = std::vector<std::pair<Cycle, int>>;

// Delta pool stressing the ring/heap boundary: zero-delay, in-bucket,
// just-inside / exactly-at / just-past the ring horizon, deep heap.
constexpr Cycle kDeltas[] = {0,
                             1,
                             2,
                             7,
                             63,
                             Engine::kRingCycles - 1,
                             Engine::kRingCycles,
                             Engine::kRingCycles + 1,
                             3 * Engine::kRingCycles + 5,
                             10 * Engine::kRingCycles};

/// Schedules `count` root events with seeded random deltas; every
/// callback records itself and may spawn up to two children, so load
/// keeps arriving while the queue drains (the pattern real controllers
/// produce).
template <typename EngineT>
Trace RunNestedScenario(std::uint64_t seed, int count) {
  EngineT e;
  Rng rng(seed);
  Trace trace;
  int next_id = 0;

  // Owned recursive spawner (std::function for self-reference).
  auto spawn = std::make_shared<std::function<void(int)>>();
  *spawn = [&e, &rng, &trace, &next_id, spawn](int depth) {
    const int id = next_id++;
    const Cycle delta = kDeltas[rng.NextBelow(std::size(kDeltas))];
    e.ScheduleIn(delta, [&e, &rng, &trace, id, depth, spawn]() {
      trace.emplace_back(e.Now(), id);
      if (depth > 0) {
        const std::uint64_t kids = rng.NextBelow(3);
        for (std::uint64_t k = 0; k < kids; ++k) (*spawn)(depth - 1);
      }
    });
  };

  for (int i = 0; i < count; ++i) (*spawn)(3);
  EXPECT_TRUE(e.RunUntilIdle());
  *spawn = nullptr;  // break the shared_ptr self-reference cycle
  return trace;
}

/// Interleaves scheduling batches with RunUntil segments, so events land
/// both before and after the clock has advanced (ring wraparound: the
/// same bucket index is reused for cycle c and c + kRingCycles).
template <typename EngineT>
Trace RunSegmentedScenario(std::uint64_t seed, int batches) {
  EngineT e;
  Rng rng(seed);
  Trace trace;
  int next_id = 0;
  for (int b = 0; b < batches; ++b) {
    const std::uint64_t n = 1 + rng.NextBelow(20);
    for (std::uint64_t i = 0; i < n; ++i) {
      const int id = next_id++;
      const Cycle delta = kDeltas[rng.NextBelow(std::size(kDeltas))];
      e.ScheduleIn(delta, [&trace, &e, id]() { trace.emplace_back(e.Now(), id); });
    }
    // Advance by a random stride — sometimes not far enough to fire
    // anything, sometimes across several ring wraps.
    e.RunUntil(e.Now() + rng.NextBelow(2 * Engine::kRingCycles));
  }
  EXPECT_TRUE(e.RunUntilIdle());
  return trace;
}

TEST(EngineStress, NestedSpawnsMatchReferenceModel) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const Trace fast = RunNestedScenario<Engine>(seed, 40);
    const Trace ref = RunNestedScenario<ReferenceEngine>(seed, 40);
    ASSERT_EQ(fast, ref) << "divergence at seed " << seed;
    ASSERT_FALSE(fast.empty());
  }
}

TEST(EngineStress, SegmentedRunsMatchReferenceModel) {
  for (std::uint64_t seed = 100; seed <= 120; ++seed) {
    const Trace fast = RunSegmentedScenario<Engine>(seed, 50);
    const Trace ref = RunSegmentedScenario<ReferenceEngine>(seed, 50);
    ASSERT_EQ(fast, ref) << "divergence at seed " << seed;
    ASSERT_FALSE(fast.empty());
  }
}

TEST(EngineStress, RingBoundaryDeltasFireInScheduleOrder) {
  // All boundary deltas scheduled from one cycle, twice over, must fire
  // in (cycle, scheduling order) — including the pair that lands on the
  // same bucket index one ring apart (delta d and d + kRingCycles).
  Engine e;
  Trace trace;
  int id = 0;
  e.ScheduleAt(5, [&]() {
    for (int round = 0; round < 2; ++round) {
      for (const Cycle d : kDeltas) {
        e.ScheduleIn(d, [&trace, &e, myid = id++]() {
          trace.emplace_back(e.Now(), myid);
        });
      }
    }
  });
  EXPECT_TRUE(e.RunUntilIdle());
  ASSERT_EQ(trace.size(), 2 * std::size(kDeltas));
  for (std::size_t i = 1; i < trace.size(); ++i) {
    ASSERT_LE(trace[i - 1].first, trace[i].first);
    if (trace[i - 1].first == trace[i].first) {
      ASSERT_LT(trace[i - 1].second, trace[i].second) << "FIFO tie-break violated";
    }
  }
}

TEST(EngineStress, FarHeapEventsLandInRing) {
  // An event exactly at the horizon goes to the far heap; one cycle
  // closer stays in the ring. Both must fire, in cycle order, and the
  // far count must drain to zero.
  Engine e;
  std::vector<int> order;
  e.ScheduleIn(Engine::kRingCycles, [&]() { order.push_back(2); });
  EXPECT_EQ(e.far_pending(), 1u);
  e.ScheduleIn(Engine::kRingCycles - 1, [&]() { order.push_back(1); });
  EXPECT_EQ(e.far_pending(), 1u);
  EXPECT_TRUE(e.RunUntilIdle());
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(e.far_pending(), 0u);
}

TEST(EngineStress, HeapBeforeBucketAtSameCycle) {
  // A far event and a near event colliding on the same cycle: the far
  // one was scheduled first (it had to be, the cycle was outside the
  // ring window then), so it must fire first.
  Engine e;
  std::vector<int> order;
  const Cycle target = 2 * Engine::kRingCycles;
  e.ScheduleAt(target, [&]() { order.push_back(1); });      // far at schedule time
  e.ScheduleAt(target - 10, [&e, &order, target]() {        // fires inside the window
    e.ScheduleAt(target, [&order]() { order.push_back(2); });  // ring insertion
  });
  EXPECT_TRUE(e.RunUntilIdle());
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

}  // namespace
}  // namespace glb::sim
