// Unit tests for the discrete-event engine: ordering, determinism,
// run-control semantics.
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "sim/engine.h"

namespace glb::sim {
namespace {

TEST(Engine, StartsAtCycleZeroIdle) {
  Engine e;
  EXPECT_EQ(e.Now(), 0u);
  EXPECT_TRUE(e.idle());
  EXPECT_TRUE(e.RunUntilIdle());
}

TEST(Engine, EventsFireAtScheduledCycle) {
  Engine e;
  Cycle seen = kCycleNever;
  e.ScheduleAt(17, [&]() { seen = e.Now(); });
  EXPECT_TRUE(e.RunUntilIdle());
  EXPECT_EQ(seen, 17u);
  EXPECT_EQ(e.Now(), 17u);
}

TEST(Engine, SameCycleEventsRunInSchedulingOrder) {
  Engine e;
  std::vector<int> order;
  e.ScheduleAt(5, [&]() { order.push_back(1); });
  e.ScheduleAt(5, [&]() { order.push_back(2); });
  e.ScheduleAt(5, [&]() { order.push_back(3); });
  e.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, CrossCycleOrdering) {
  Engine e;
  std::vector<int> order;
  e.ScheduleAt(10, [&]() { order.push_back(10); });
  e.ScheduleAt(3, [&]() { order.push_back(3); });
  e.ScheduleAt(7, [&]() { order.push_back(7); });
  e.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{3, 7, 10}));
}

TEST(Engine, ZeroDelayRunsLaterSameCycle) {
  Engine e;
  std::vector<int> order;
  e.ScheduleAt(4, [&]() {
    order.push_back(1);
    e.ScheduleIn(0, [&]() { order.push_back(3); });
    order.push_back(2);
  });
  e.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.Now(), 4u);
}

TEST(Engine, NestedSchedulingChains) {
  Engine e;
  Cycle final_cycle = 0;
  e.ScheduleAt(1, [&]() {
    e.ScheduleIn(2, [&]() {
      e.ScheduleIn(3, [&]() { final_cycle = e.Now(); });
    });
  });
  e.RunUntilIdle();
  EXPECT_EQ(final_cycle, 6u);
}

TEST(Engine, RunUntilIdleHonoursCycleLimit) {
  Engine e;
  bool late_ran = false;
  e.ScheduleAt(5, []() {});
  e.ScheduleAt(100, [&]() { late_ran = true; });
  EXPECT_FALSE(e.RunUntilIdle(50));
  EXPECT_FALSE(late_ran);
  EXPECT_EQ(e.pending_events(), 1u);
  EXPECT_TRUE(e.RunUntilIdle());
  EXPECT_TRUE(late_ran);
}

TEST(Engine, RunUntilIdleStatusDescribesStalls) {
  Engine e;
  e.ScheduleAt(5, []() {});
  e.ScheduleAt(100, []() {});
  const RunStatus stalled = e.RunUntilIdleStatus(50);
  EXPECT_FALSE(stalled.idle);
  EXPECT_FALSE(static_cast<bool>(stalled));
  EXPECT_EQ(stalled.now, 5u);
  EXPECT_EQ(stalled.pending_events, 1u);
  EXPECT_EQ(stalled.next_event_at, 100u);
  const std::string msg = stalled.DescribeStall();
  EXPECT_NE(msg.find("simulation stalled at cycle 5"), std::string::npos) << msg;
  EXPECT_NE(msg.find("pending events: 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("earliest pending at cycle 100"), std::string::npos) << msg;

  const RunStatus done = e.RunUntilIdleStatus();
  EXPECT_TRUE(done.idle);
  EXPECT_TRUE(static_cast<bool>(done));
  EXPECT_EQ(done.pending_events, 0u);
  EXPECT_EQ(done.next_event_at, kCycleNever);
  EXPECT_EQ(done.DescribeStall(), "");
}

TEST(Engine, RunUntilAdvancesClockWithoutEvents) {
  Engine e;
  e.RunUntil(123);
  EXPECT_EQ(e.Now(), 123u);
}

TEST(Engine, RunUntilProcessesOnlyDueEvents) {
  Engine e;
  int ran = 0;
  e.ScheduleAt(10, [&]() { ++ran; });
  e.ScheduleAt(20, [&]() { ++ran; });
  e.RunUntil(15);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(e.Now(), 15u);
  e.RunUntilIdle();
  EXPECT_EQ(ran, 2);
}

TEST(Engine, EventCountTracksProcessing) {
  Engine e;
  for (int i = 0; i < 10; ++i) e.ScheduleAt(static_cast<Cycle>(i), []() {});
  e.RunUntilIdle();
  EXPECT_EQ(e.events_processed(), 10u);
}

TEST(Engine, ManyEventsStressOrdering) {
  // Events inserted in pseudo-random cycle order must still fire in
  // non-decreasing cycle order, with FIFO ties.
  Engine e;
  std::vector<std::pair<Cycle, int>> fired;
  int seq = 0;
  for (int i = 0; i < 1000; ++i) {
    const Cycle at = static_cast<Cycle>((i * 7919) % 101);
    e.ScheduleAt(at, [&fired, &e, s = seq++]() { fired.emplace_back(e.Now(), s); });
  }
  e.RunUntilIdle();
  ASSERT_EQ(fired.size(), 1000u);
  for (std::size_t i = 1; i < fired.size(); ++i) {
    ASSERT_LE(fired[i - 1].first, fired[i].first);
    if (fired[i - 1].first == fired[i].first) {
      ASSERT_LT(fired[i - 1].second, fired[i].second) << "FIFO tie-break violated";
    }
  }
}

/// A seeded soup of delay-0/1/2 and far events, plus one poll loop
/// that re-arms every cycle from event `kStartId` until event
/// `kTriggerId` ends it. The poll loop is either a self-rescheduling
/// 1-cycle Task chain or a parked Slot: every soup event must dispatch
/// in the same order and cycle either way, and the slot must fire where
/// the chain's last step ran.
class PollSoup {
 public:
  static constexpr int kStartId = 3;
  static constexpr int kTriggerId = 60;
  static constexpr int kRoots = 100;
  /// Log entry of the poll loop's final step (the chain's last event,
  /// the slot's Fire).
  static constexpr int kPollEnd = -1;

  PollSoup(std::uint64_t seed, bool use_slot)
      : rng_(seed), use_slot_(use_slot), slot_(*this) {}

  void Run() {
    for (int i = 0; i < kRoots; ++i) {
      const Cycle at = i == kStartId ? 10 : i == kTriggerId ? 120 : Pick(0, 200);
      e_.ScheduleAt(at, [this, i] { Dispatch(i); });
    }
    next_id_ = kRoots;
    ASSERT_TRUE(e_.RunUntilIdle());
  }

  std::vector<std::pair<int, Cycle>> log;
  std::uint64_t chain_steps = 0;
  std::uint64_t events() const { return e_.events_processed(); }

 private:
  class LoggingSlot final : public Engine::Slot {
   public:
    explicit LoggingSlot(PollSoup& soup) : soup_(soup) {}

   private:
    void Fire() override { soup_.log.emplace_back(kPollEnd, soup_.e_.Now()); }
    void Settle() override {}
    PollSoup& soup_;
  };

  Cycle Pick(Cycle lo, Cycle hi) {
    return std::uniform_int_distribution<Cycle>(lo, hi)(rng_);
  }

  void Dispatch(int id) {
    log.emplace_back(id, e_.Now());
    if (id == kStartId) {
      if (use_slot_) {
        e_.Park(slot_, 1);
      } else {
        e_.ScheduleIn(1, [this] { ChainStep(); });
      }
    }
    if (id == kTriggerId) {
      if (use_slot_) {
        slot_.Disarm();
      } else {
        stop_ = true;
      }
    }
    if (next_id_ >= 3000) return;
    for (Cycle children = Pick(0, 2); children > 0; --children) {
      static constexpr Cycle kDelays[] = {0, 1, 2, Engine::kRingCycles + 5};
      const Cycle delay = kDelays[Pick(0, 3)];
      const int child = next_id_++;
      e_.ScheduleIn(delay, [this, child] { Dispatch(child); });
    }
  }

  void ChainStep() {
    if (stop_) {
      log.emplace_back(kPollEnd, e_.Now());
      return;
    }
    ++chain_steps;
    e_.ScheduleIn(1, [this] { ChainStep(); });
  }

  Engine e_;
  std::mt19937_64 rng_;
  const bool use_slot_;
  LoggingSlot slot_;
  bool stop_ = false;
  int next_id_ = 0;
};

TEST(Engine, SlotKeepsPollChainOrder) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    PollSoup chain(seed, /*use_slot=*/false);
    PollSoup slot(seed, /*use_slot=*/true);
    chain.Run();
    slot.Run();
    ASSERT_GT(chain.log.size(), 200u);
    EXPECT_EQ(slot.log, chain.log);
    // Hops are not events: the slot saves exactly the chain's re-arms.
    EXPECT_GT(chain.chain_steps, 100u);
    EXPECT_EQ(chain.events() - slot.events(), chain.chain_steps);
  }
}

class CountingSlot final : public Engine::Slot {
 public:
  int fired = 0;
  int settled = 0;

 private:
  void Fire() override { ++fired; }
  void Settle() override { ++settled; }
};

TEST(Engine, LinkedSlotIsPendingAndSettledOnCutOff) {
  Engine e;
  CountingSlot slot;
  e.ScheduleAt(4, [&] { e.Park(slot, 2); });
  const RunStatus cut = e.RunUntilIdleStatus(100);
  EXPECT_FALSE(cut.idle) << "an armed slot keeps the machine live";
  EXPECT_EQ(cut.now, 100u);
  EXPECT_EQ(cut.pending_events, 1u);
  EXPECT_EQ(cut.next_event_at, 102u);
  EXPECT_EQ(slot.due(), 102u);
  EXPECT_EQ(slot.settled, 1) << "the cut-off run settles linked slots";
  EXPECT_EQ(e.events_processed(), 1u) << "hops are not events";
  slot.Disarm();
  EXPECT_TRUE(e.RunUntilIdle());
  EXPECT_EQ(slot.fired, 1);
  EXPECT_EQ(e.Now(), 102u);
  EXPECT_EQ(e.events_processed(), 2u);
}

// --- batches (Engine::JoinAt) -------------------------------------------

/// A batch member that logs its id and the cycle it ran at.
struct LogMember : Engine::Member {
  LogMember(int member_id, std::vector<std::pair<int, Cycle>>* out, Engine* eng)
      : id(member_id), log(out), e(eng) {
    run = [](Engine::Member& m) {
      auto& self = static_cast<LogMember&>(m);
      self.log->emplace_back(self.id, self.e->Now());
    };
  }
  int id;
  std::vector<std::pair<int, Cycle>>* log;
  Engine* e;
};

TEST(EngineBatch, MembersJoinTheTailBatchAsOneEvent) {
  Engine e;
  std::vector<std::pair<int, Cycle>> log;
  std::vector<std::unique_ptr<LogMember>> members;
  for (int i = 0; i < 5; ++i) members.push_back(std::make_unique<LogMember>(i, &log, &e));
  for (auto& m : members) e.JoinAt(7, *m);
  EXPECT_EQ(e.pending_events(), 1u) << "every join extended the tail batch";
  ASSERT_TRUE(e.RunUntilIdle());
  EXPECT_EQ(e.events_processed(), 1u);
  const std::vector<std::pair<int, Cycle>> want = {{0, 7}, {1, 7}, {2, 7}, {3, 7}, {4, 7}};
  EXPECT_EQ(log, want) << "members run in join order";
}

TEST(EngineBatch, AnInterleavedEventEndsTheBatch) {
  Engine e;
  std::vector<std::pair<int, Cycle>> log;
  LogMember a(1, &log, &e), b(2, &log, &e), c(4, &log, &e), d(5, &log, &e),
      next(0, &log, &e);
  e.JoinAt(3, a);
  e.JoinAt(3, b);
  e.ScheduleAt(3, [&] { log.emplace_back(3, e.Now()); });
  e.JoinAt(3, c);  // the event is the tail now: a new batch starts
  e.JoinAt(3, d);
  e.JoinAt(4, next);
  EXPECT_EQ(e.pending_events(), 4u);
  ASSERT_TRUE(e.RunUntilIdle());
  EXPECT_EQ(e.events_processed(), 4u);
  const std::vector<std::pair<int, Cycle>> want = {{1, 3}, {2, 3}, {3, 3}, {4, 3}, {5, 3},
                                                   {0, 4}};
  EXPECT_EQ(log, want);
}

TEST(EngineBatch, ADispatchingBatchTakesNoNewMember) {
  Engine e;
  std::vector<std::pair<int, Cycle>> log;
  LogMember late(3, &log, &e), b(2, &log, &e);
  // The first member joins another one at its own cycle while its batch
  // runs: that join starts a new batch, which runs after the rest of
  // the running one, exactly where a ScheduleIn(0) event would run.
  struct Rejoin : Engine::Member {
    Engine* e;
    Engine::Member* other;
    std::vector<std::pair<int, Cycle>>* log;
  } first;
  first.e = &e;
  first.other = &late;
  first.log = &log;
  first.run = [](Engine::Member& m) {
    auto& self = static_cast<Rejoin&>(m);
    self.log->emplace_back(1, self.e->Now());
    self.e->JoinIn(0, *self.other);
  };
  e.JoinAt(9, first);
  e.JoinAt(9, b);
  ASSERT_TRUE(e.RunUntilIdle());
  const std::vector<std::pair<int, Cycle>> want = {{1, 9}, {2, 9}, {3, 9}};
  EXPECT_EQ(log, want);
  EXPECT_EQ(e.events_processed(), 2u) << "the late join was an event of its own";
}

/// A member that runs a closure (the soup below).
struct ClosureMember : Engine::Member {
  explicit ClosureMember(std::function<void()> fn) : body(std::move(fn)) {
    run = [](Engine::Member& m) { static_cast<ClosureMember&>(m).body(); };
  }
  std::function<void()> body;
};

/// Random soups of events and members, once with every member joined
/// and once with each as an event of its own: the same run order.
TEST(EngineBatch, BatchedRunOrderEqualsOneEventPerMember) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    auto run = [seed](bool batched, std::uint64_t* events) {
      Engine e;
      std::mt19937_64 rng(seed);
      std::vector<int> order;
      std::vector<std::unique_ptr<ClosureMember>> members;
      int next_id = 0;
      std::function<void(int)> spawn = [&](int depth) {
        const int children = static_cast<int>(rng() % 3) + (depth < 4 ? 1 : 0);
        for (int i = 0; i < children && depth < 10 && next_id < 2000; ++i) {
          const int id = next_id++;
          const Cycle delay = std::array<Cycle, 4>{0, 1, 1, 2}[rng() % 4];
          if (rng() % 3 != 0) {
            auto m = std::make_unique<ClosureMember>([&order, &spawn, id, depth] {
              order.push_back(id);
              spawn(depth + 1);
            });
            if (batched) {
              e.JoinIn(delay, *m);
            } else {
              e.ScheduleIn(delay, [raw = m.get()] { raw->run(*raw); });
            }
            members.push_back(std::move(m));
          } else {
            e.ScheduleIn(delay, [&order, &spawn, id, depth] {
              order.push_back(id);
              spawn(depth + 1);
            });
          }
        }
      };
      e.ScheduleAt(0, [&] {
        for (int root = 0; root < 8; ++root) spawn(0);
      });
      EXPECT_TRUE(e.RunUntilIdle());
      *events = e.events_processed();
      return order;
    };
    std::uint64_t batched_events = 0, plain_events = 0;
    const std::vector<int> batched = run(true, &batched_events);
    const std::vector<int> plain = run(false, &plain_events);
    ASSERT_GT(plain.size(), 200u);
    EXPECT_EQ(batched, plain);
    EXPECT_LT(batched_events, plain_events) << "some members shared an event";
  }
}

#if GLB_DCHECK_ENABLED
// Past-scheduling is a hot-path GLB_DCHECK: enforced in Debug/sanitizer
// builds (the asan preset runs this), compiled out of optimized builds.
TEST(EngineDeath, SchedulingIntoThePastAborts) {
  Engine e;
  e.ScheduleAt(10, [&]() {
    EXPECT_DEATH(e.ScheduleAt(5, []() {}), "scheduling into the past");
  });
  e.RunUntilIdle();
}
#endif

}  // namespace
}  // namespace glb::sim
