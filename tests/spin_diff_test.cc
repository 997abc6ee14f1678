// Differential test of Core::SpinUntil: the production software
// barriers (CSW, DSW) and the TTAS lock park spinning cores in an
// engine slot instead of running one event per poll. Test-local copies
// that still poll with core.Load define the behaviour SpinUntil must
// reproduce exactly: the same StatSet dump, per-core time breakdown,
// completion cycle, run status and interval-sampler series, with and
// without NoC faults and when a run is cut off mid-spin.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cmp/cmp_system.h"
#include "coherence/protocol.h"
#include "core/core.h"
#include "harness/experiment.h"
#include "harness/spec.h"
#include "mem/addr_allocator.h"
#include "sync/barrier.h"
#include "sync/spinlock.h"
#include "trace/sampler.h"

namespace glb {
namespace {

using coherence::AmoOp;
using core::CategoryScope;
using core::Core;
using core::Task;
using core::TimeCat;

// --- polling references: the spin sites as plain Load loops -----------

class PollingCentralBarrier final : public sync::Barrier {
 public:
  PollingCentralBarrier(mem::AddrAllocator& alloc, std::uint32_t num_cores)
      : num_cores_(num_cores),
        counter_(alloc.AllocVar()),
        sense_(alloc.AllocVar()),
        local_sense_(num_cores, 0) {}

  Task Wait(Core& core) override {
    CategoryScope scope(core, TimeCat::kBarrier);
    core.NoteBarrier();
    const Word my_sense = local_sense_[core.rank()] ^ 1;
    local_sense_[core.rank()] = my_sense;
    const Word prior = co_await core.Amo(counter_, AmoOp::kFetchAdd, 1);
    if (prior == num_cores_ - 1) {
      co_await core.Store(counter_, 0);
      co_await core.Store(sense_, my_sense);
    } else {
      while (co_await core.Load(sense_) != my_sense) {
      }
    }
  }
  const char* name() const override { return "CSW"; }

 private:
  std::uint32_t num_cores_;
  Addr counter_;
  Addr sense_;
  std::vector<Word> local_sense_;
};

/// sync::TreeBarrier with fan-in 2, allocating the same words in the
/// same order.
class PollingTreeBarrier final : public sync::Barrier {
 public:
  PollingTreeBarrier(mem::AddrAllocator& alloc, std::uint32_t num_cores)
      : local_sense_(num_cores, 0), leaf_of_core_(num_cores) {
    constexpr std::uint32_t kFanin = 2;
    std::vector<std::uint32_t> level;
    for (std::uint32_t first = 0; first < num_cores; first += kFanin) {
      const std::uint32_t count = std::min(kFanin, num_cores - first);
      level.push_back(AddNode(alloc, count));
      for (std::uint32_t c = first; c < first + count; ++c) {
        leaf_of_core_[c] = level.back();
      }
    }
    while (level.size() > 1) {
      std::vector<std::uint32_t> next;
      for (std::uint32_t i = 0; i < level.size(); i += kFanin) {
        const auto count = std::min<std::uint32_t>(
            kFanin, static_cast<std::uint32_t>(level.size()) - i);
        next.push_back(AddNode(alloc, count));
        for (std::uint32_t j = 0; j < count; ++j) nodes_[level[i + j]].parent = next.back();
      }
      level = std::move(next);
    }
  }

  Task Wait(Core& core) override {
    CategoryScope scope(core, TimeCat::kBarrier);
    core.NoteBarrier();
    const Word my_sense = local_sense_[core.rank()] ^ 1;
    local_sense_[core.rank()] = my_sense;
    std::vector<std::uint32_t> owned;
    std::uint32_t node = leaf_of_core_[core.rank()];
    while (true) {
      const Word prior = co_await core.Amo(nodes_[node].count_addr, AmoOp::kFetchAdd, 1);
      if (prior + 1 < nodes_[node].expected) {
        while (co_await core.Load(nodes_[node].release_addr) != my_sense) {
        }
        break;
      }
      if (nodes_[node].parent == kRoot) {
        co_await core.Store(nodes_[node].count_addr, 0);
        co_await core.Store(nodes_[node].release_addr, my_sense);
        break;
      }
      owned.push_back(node);
      node = nodes_[node].parent;
    }
    for (auto it = owned.rbegin(); it != owned.rend(); ++it) {
      co_await core.Store(nodes_[*it].count_addr, 0);
      co_await core.Store(nodes_[*it].release_addr, my_sense);
    }
  }
  const char* name() const override { return "DSW"; }

 private:
  static constexpr std::uint32_t kRoot = ~0u;
  struct Node {
    Addr count_addr;
    Addr release_addr;
    std::uint32_t expected;
    std::uint32_t parent;
  };

  std::uint32_t AddNode(mem::AddrAllocator& alloc, std::uint32_t expected) {
    const Addr count = alloc.AllocVar();
    const Addr release = alloc.AllocVar();
    nodes_.push_back(Node{count, release, expected, kRoot});
    return static_cast<std::uint32_t>(nodes_.size() - 1);
  }

  std::vector<Node> nodes_;
  std::vector<Word> local_sense_;
  std::vector<std::uint32_t> leaf_of_core_;
};

/// sync::SpinLock's Acquire with its test phase as a Load loop.
class PollingSpinLock {
 public:
  explicit PollingSpinLock(mem::AddrAllocator& alloc) : addr_(alloc.AllocVar()) {}

  Task Acquire(Core& core) {
    CategoryScope scope(core, TimeCat::kLock);
    Cycle backoff = 4;
    while (true) {
      if (co_await core.Load(addr_) == 0) {
        if (co_await core.Amo(addr_, AmoOp::kTestAndSet, 1) == 0) co_return;
        co_await core.Compute(backoff);
        backoff = std::min<Cycle>(backoff * 2, 64);
      }
    }
  }
  Task Release(Core& core) {
    CategoryScope scope(core, TimeCat::kLock);
    co_await core.Store(addr_, 0);
  }

 private:
  Addr addr_;
};

// --- one run, everything a spin could perturb --------------------------

enum class SpinKind { kPolled, kParked };

struct RunSpec {
  std::string workload;  // a registry name, or "LOCK" for LockBody
  harness::BarrierKind barrier = harness::BarrierKind::kCSW;
  std::uint32_t cores = 4;
  bool noc_faults = false;
  Cycle sample_interval = 0;
  Cycle max_cycles = kCycleNever;
};

std::string Describe(const RunSpec& r) {
  std::ostringstream os;
  os << r.workload << '/' << harness::ToString(r.barrier) << '/' << r.cores << "c"
     << (r.noc_faults ? "/noc-faults" : "") << (r.sample_interval ? "/sampled" : "");
  if (r.max_cycles != kCycleNever) os << "/max-cycles " << r.max_cycles;
  return os.str();
}

struct Outcome {
  sim::RunStatus status;
  std::string stats;
  std::vector<std::array<Cycle, core::kNumTimeCats>> breakdown;
  Cycle last_finish = 0;
  std::string samples;
};

/// Lock-heavy program: every core bumps one shared counter `rounds`
/// times under the lock.
template <typename Lock>
Task LockBody(Core& core, Lock& lock, Addr counter, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    co_await lock.Acquire(core);
    const Word v = co_await core.Load(counter);
    co_await core.Compute(3);
    co_await core.Store(counter, v + 1);
    co_await lock.Release(core);
    co_await core.Compute(5 + (core.id() * 3) % 7);
  }
}

std::unique_ptr<sync::Barrier> MakeBarrier(const RunSpec& r, SpinKind spin,
                                           cmp::CmpSystem& sys) {
  if (spin == SpinKind::kParked) return harness::MakeBarrier(r.barrier, sys);
  if (r.barrier == harness::BarrierKind::kCSW) {
    return std::make_unique<PollingCentralBarrier>(sys.allocator(), r.cores);
  }
  return std::make_unique<PollingTreeBarrier>(sys.allocator(), r.cores);
}

Outcome Run(const RunSpec& r, SpinKind spin) {
  cmp::CmpConfig cfg = cmp::CmpConfig::WithCores(r.cores).ForBarrier(r.barrier);
  if (r.noc_faults) {
    cfg.fault.seed = 7;
    cfg.fault.noc_delay_rate = 0.1;
    cfg.fault.noc_drop_rate = 0.05;
  }
  cmp::CmpSystem sys(cfg);
  trace::Sampler sampler(sys.engine(), sys.stats(), r.sample_interval);
  for (int c = 0; c < core::kNumTimeCats; ++c) {
    const auto cat = static_cast<core::TimeCat>(c);
    sampler.AddGauge(std::string("core.cycles.") + core::ToString(cat),
                     [&sys, cat] { return sys.TotalBreakdown()[cat]; });
  }

  Outcome out;
  sampler.Start();
  if (r.workload == "LOCK") {
    const Addr counter = sys.allocator().AllocVar();
    constexpr int kRounds = 12;
    if (spin == SpinKind::kParked) {
      sync::SpinLock lock(sys.allocator());
      out.status = sys.RunProgramsStatus(
          [&](Core& c, CoreId) { return LockBody(c, lock, counter, kRounds); },
          r.max_cycles);
    } else {
      PollingSpinLock lock(sys.allocator());
      out.status = sys.RunProgramsStatus(
          [&](Core& c, CoreId) { return LockBody(c, lock, counter, kRounds); },
          r.max_cycles);
    }
  } else {
    harness::Scale scale = harness::Scale::ForCores(r.cores);
    scale.synthetic_iters = 30;
    scale.k2_iters = 3;
    scale.ocean_iters = 1;
    auto workload = harness::MakeWorkload(r.workload, scale);
    workload->Init(sys);
    auto barrier = MakeBarrier(r, spin, sys);
    out.status = sys.RunProgramsStatus(
        [&](Core& c, CoreId id) { return workload->Body(c, id, *barrier); },
        r.max_cycles);
    if (out.status.idle) {
      EXPECT_EQ(workload->Validate(sys), "");
    }
  }
  sampler.FinalSample();

  std::ostringstream stats;
  sys.stats().Print(stats);
  out.stats = stats.str();
  for (CoreId c = 0; c < r.cores; ++c) out.breakdown.push_back(sys.core(c).breakdown().cycles);
  out.last_finish = sys.LastFinish();
  std::ostringstream samples;
  for (const trace::Sample& s : sampler.samples()) {
    samples << s.t << ':';
    for (const auto& [name, value] : s.values) samples << ' ' << name << '=' << value;
    samples << '\n';
  }
  out.samples = samples.str();
  return out;
}

void ExpectSame(const RunSpec& r) {
  SCOPED_TRACE(Describe(r));
  const Outcome polled = Run(r, SpinKind::kPolled);
  const Outcome parked = Run(r, SpinKind::kParked);
  EXPECT_EQ(parked.status.idle, polled.status.idle);
  EXPECT_EQ(parked.status.now, polled.status.now);
  EXPECT_EQ(parked.status.pending_events, polled.status.pending_events);
  EXPECT_EQ(parked.status.next_event_at, polled.status.next_event_at);
  EXPECT_EQ(parked.stats, polled.stats);
  EXPECT_EQ(parked.breakdown, polled.breakdown);
  EXPECT_EQ(parked.last_finish, polled.last_finish);
  EXPECT_EQ(parked.samples, polled.samples);
}

class SpinDiff : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SpinDiff, SoftwareBarriersMatchPolling) {
  for (const char* workload : {"Synthetic", "Kernel2", "OCEAN"}) {
    for (const auto kind : {harness::BarrierKind::kCSW, harness::BarrierKind::kDSW}) {
      ExpectSame(RunSpec{.workload = workload, .barrier = kind, .cores = GetParam()});
    }
  }
}

TEST_P(SpinDiff, SpinLockMatchesPolling) {
  ExpectSame(RunSpec{.workload = "LOCK", .cores = GetParam()});
}

INSTANTIATE_TEST_SUITE_P(Cores, SpinDiff, ::testing::Values(4u, 9u, 16u));

TEST(SpinDiffPlans, NocFaultPlanMatchesPolling) {
  ExpectSame(RunSpec{.workload = "OCEAN",
                     .barrier = harness::BarrierKind::kDSW,
                     .cores = 16,
                     .noc_faults = true});
  ExpectSame(RunSpec{.workload = "LOCK", .cores = 9, .noc_faults = true});
}

TEST(SpinDiffPlans, SampledRunMatchesPolling) {
  // Ticks land while cores are parked: the lazily credited polls must
  // be in every sampled counter and core.cycles.* gauge.
  ExpectSame(RunSpec{.workload = "OCEAN",
                     .barrier = harness::BarrierKind::kCSW,
                     .cores = 9,
                     .sample_interval = 97});
  ExpectSame(RunSpec{.workload = "LOCK", .cores = 16, .sample_interval = 50});
}

TEST(SpinDiffPlans, RunCutOffMidSpinMatchesPolling) {
  // A run that hits max_cycles while cores are parked reports the same
  // status and counts as the polling loop left behind.
  ExpectSame(RunSpec{.workload = "Synthetic",
                     .barrier = harness::BarrierKind::kDSW,
                     .cores = 16,
                     .max_cycles = 1500});
  ExpectSame(RunSpec{.workload = "LOCK", .cores = 9, .max_cycles = 400});
}

Task WaitForFlag(Core& core, Addr flag, bool parked) {
  if (parked) {
    co_await core.SpinUntil(flag, [](Word v) { return v == 1; });
  } else {
    while (co_await core.Load(flag) != 1) {
    }
  }
}

// A spin nobody ever releases: the machine never goes idle (which would
// trip RunProgramsStatus's deadlock check), and the cut-off at
// max_cycles reports what the polling loop reports.
TEST(SpinDiffPlans, UnreleasedSpinEndsAtMaxCyclesLikePolling) {
  sim::RunStatus status[2];
  std::uint64_t loads[2] = {};
  for (int parked = 0; parked < 2; ++parked) {
    cmp::CmpSystem sys(cmp::CmpConfig::WithCores(4));
    const Addr flag = sys.allocator().AllocVar();
    status[parked] = sys.RunProgramsStatus(
        [&](Core& c, CoreId) { return WaitForFlag(c, flag, parked == 1); }, 5000);
    loads[parked] = sys.stats().CounterValue("core.loads");
  }
  EXPECT_FALSE(status[1].idle);
  EXPECT_EQ(status[1].now, status[0].now);
  EXPECT_EQ(status[1].pending_events, status[0].pending_events);
  EXPECT_EQ(status[1].next_event_at, status[0].next_event_at);
  EXPECT_EQ(loads[1], loads[0]);
  EXPECT_GT(loads[1], 4u * 1000) << "the parked polls are credited";
}

}  // namespace
}  // namespace glb
