// Host self-profiler contract: exclusive attribution under nesting,
// zero cost / zero effect while disabled, category partition of the
// total. Wall-clock magnitudes are not asserted (they are host noise by
// design); structure is.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <thread>

#include "common/prof.h"

namespace glb::prof {
namespace {

void SpinFor(std::chrono::microseconds us) {
  const auto until = std::chrono::steady_clock::now() + us;
  while (std::chrono::steady_clock::now() < until) {
  }
}

class ProfTest : public ::testing::Test {
 protected:
  void TearDown() override { Enable(false); }
};

TEST_F(ProfTest, DisabledProfilerAccumulatesNothing) {
  Enable(false);
  {
    Scope s(Cat::kNoc);
    SpinFor(std::chrono::microseconds(200));
  }
  const Snapshot snap = Take();
  EXPECT_EQ(snap.total_ns(), 0u);
}

TEST_F(ProfTest, ScopesChargeTheirCategory) {
  Enable(true);
  {
    Scope s(Cat::kBarrier);
    SpinFor(std::chrono::microseconds(500));
  }
  const Snapshot snap = Take();
  EXPECT_GT(snap.ns[static_cast<std::size_t>(Cat::kBarrier)], 0u);
  EXPECT_EQ(snap.ns[static_cast<std::size_t>(Cat::kNoc)], 0u);
  EXPECT_EQ(snap.ns[static_cast<std::size_t>(Cat::kCoherence)], 0u);
}

TEST_F(ProfTest, NestedScopeIsExclusiveNotInclusive) {
  Enable(true);
  const auto t0 = std::chrono::steady_clock::now();
  {
    Scope outer(Cat::kEngine);
    SpinFor(std::chrono::microseconds(300));
    {
      // The inner span must be charged to kNoc only; kEngine's clock
      // pauses for its duration.
      Scope inner(Cat::kNoc);
      SpinFor(std::chrono::microseconds(2000));
    }
    SpinFor(std::chrono::microseconds(300));
  }
  const auto block_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  const Snapshot snap = Take();
  const std::uint64_t engine = snap.ns[static_cast<std::size_t>(Cat::kEngine)];
  const std::uint64_t noc = snap.ns[static_cast<std::size_t>(Cat::kNoc)];
  EXPECT_GT(engine, 0u);
  EXPECT_GE(noc, 2'000'000u) << "the inner spin is charged to kNoc";
  // Exclusive attribution splits the block into disjoint spans, so the
  // two categories never add up to more than the block's wall time,
  // however the host preempts the spins. Inclusive attribution would
  // charge the 2 ms inner spin to kEngine as well.
  constexpr std::uint64_t kSlackNs = 100'000;
  EXPECT_LE(engine + noc, block_ns + kSlackNs)
      << "engine " << engine << " ns + noc " << noc << " ns vs block " << block_ns
      << " ns";
}

TEST_F(ProfTest, TimeOutsideScopesLandsInOther) {
  Enable(true);
  SpinFor(std::chrono::microseconds(500));  // no scope open
  const Snapshot snap = Take();
  EXPECT_GT(snap.ns[static_cast<std::size_t>(Cat::kOther)], 0u);
}

TEST_F(ProfTest, EnableResetsAccumulators) {
  Enable(true);
  {
    Scope s(Cat::kWorkload);
    SpinFor(std::chrono::microseconds(300));
  }
  EXPECT_GT(Take().ns[static_cast<std::size_t>(Cat::kWorkload)], 0u);
  Enable(true);  // re-arm == reset
  const Snapshot snap = Take();
  EXPECT_EQ(snap.ns[static_cast<std::size_t>(Cat::kWorkload)], 0u);
}

TEST_F(ProfTest, CategoriesPartitionTheTotal) {
  Enable(true);
  {
    Scope a(Cat::kEngine);
    SpinFor(std::chrono::microseconds(200));
    Scope b(Cat::kCoherence);
    SpinFor(std::chrono::microseconds(200));
  }
  const Snapshot snap = Take();
  std::uint64_t sum = 0;
  for (std::size_t c = 0; c < static_cast<std::size_t>(kNumCats); ++c) {
    sum += snap.ns[c];
  }
  EXPECT_EQ(sum, snap.total_ns());
  EXPECT_GT(snap.total_ns(), 0u);
}

TEST_F(ProfTest, ToStringCoversEveryCategory) {
  for (int c = 0; c < kNumCats; ++c) {
    EXPECT_STRNE(ToString(static_cast<Cat>(c)), "?");
  }
}

TEST_F(ProfTest, ThreadsAccumulateIndependently) {
  Enable(true);
  {
    Scope s(Cat::kBarrier);
    SpinFor(std::chrono::microseconds(300));
  }
  Snapshot worker;
  std::thread t([&worker]() {
    // Fresh thread: its accumulators start empty regardless of what the
    // main thread charged.
    worker = Take();
  });
  t.join();
  EXPECT_EQ(worker.ns[static_cast<std::size_t>(Cat::kBarrier)], 0u);
  EXPECT_GT(Take().ns[static_cast<std::size_t>(Cat::kBarrier)], 0u);
}

}  // namespace
}  // namespace glb::prof
