// The chip's one G-line device: GL is the device at depth 1 (one node
// spanning the mesh), GLH the same class with 7x7 clusters.
//
//   * wherever both shapes fit one cluster (up to 7x7), they are the same
//     4-cycle network and give identical runs;
//   * each shape registers exactly the stats it uses, pinned against a
//     checked-in name list (tests/data/gline_stat_names.txt);
//   * a clustered run registers no flat-network ("gl.*") stat, and
//     neither shape a NoC-fallback ("hyb.*") one, even with every
//     resilience knob armed;
//   * once degraded, both shapes run the one software fallback: at depth
//     1 they still agree, and no barrier arrival touches the NoC.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "cmp/cmp_system.h"
#include "core/timebreak.h"
#include "harness/experiment.h"
#include "harness/spec.h"

namespace glb {
namespace {

using harness::BarrierKind;

struct Outcome {
  Cycle finish = 0;
  core::TimeBreakdown breakdown;
  std::uint64_t events = 0;
  std::vector<std::string> stat_names;
  std::uint64_t degraded_episodes = 0;
  std::uint64_t noc_msgs = 0;
};

Outcome RunOn(const std::string& workload, const harness::Scale& scale, BarrierKind kind,
            const cmp::CmpConfig& cfg) {
  cmp::CmpSystem sys(cfg.ForBarrier(kind));
  auto wl = harness::MakeWorkload(workload, scale);
  wl->Init(sys);
  auto barrier = harness::MakeBarrier(kind, sys);
  EXPECT_TRUE(sys.RunPrograms(
      [&](core::Core& c, CoreId id) { return wl->Body(c, id, *barrier); }));
  EXPECT_EQ(wl->Validate(sys), "");
  Outcome out{sys.LastFinish(), sys.TotalBreakdown(), sys.engine().events_processed(), {},
              sys.gline().AggregateCounter("degraded_episodes"), 0};
  for (const char* cls : {"request", "reply", "coherence"}) {
    out.noc_msgs += sys.stats().CounterValue(std::string("noc.msgs.") + cls);
  }
  sys.stats().ForEachCounter(
      [&](const std::string& name, const Counter&) { out.stat_names.push_back(name); });
  sys.stats().ForEachHistogram(
      [&](const std::string& name, const Histogram&) { out.stat_names.push_back(name); });
  std::sort(out.stat_names.begin(), out.stat_names.end());
  return out;
}

struct DepthOneCase {
  const char* workload;
  std::uint32_t cores;
};

void PrintTo(const DepthOneCase& c, std::ostream* os) {
  *os << c.workload << ' ' << c.cores << 'c';
}

class DepthOne : public ::testing::TestWithParam<DepthOneCase> {};

TEST_P(DepthOne, FlatAndClusteredShapesRunIdentically) {
  const DepthOneCase& p = GetParam();
  harness::Scale scale;
  scale.synthetic_iters = 50;
  const cmp::CmpConfig cfg = cmp::CmpConfig::WithCores(p.cores);
  const Outcome gl = RunOn(p.workload, scale, BarrierKind::kGL, cfg);
  const Outcome glh = RunOn(p.workload, scale, BarrierKind::kGLH, cfg);
  EXPECT_EQ(gl.finish, glh.finish);
  EXPECT_EQ(gl.breakdown.cycles, glh.breakdown.cycles);
  EXPECT_EQ(gl.events, glh.events);
}

INSTANTIATE_TEST_SUITE_P(
    UpTo7x7, DepthOne,
    ::testing::Values(DepthOneCase{"Synthetic", 4}, DepthOneCase{"Synthetic", 16},
                      DepthOneCase{"Synthetic", 36}, DepthOneCase{"Synthetic", 49},
                      DepthOneCase{"Kernel2", 4}, DepthOneCase{"Kernel2", 16},
                      DepthOneCase{"Kernel2", 36}, DepthOneCase{"Kernel2", 49}),
    [](const ::testing::TestParamInfo<DepthOneCase>& param) {
      return std::string(param.param.workload) + "_" + std::to_string(param.param.cores) + "c";
    });

/// The checked-in names for `kind` at `cores`.
std::vector<std::string> ExpectedNames(const std::string& kind, std::uint32_t cores) {
  std::ifstream in(GLB_TEST_DATA_DIR "/gline_stat_names.txt");
  EXPECT_TRUE(in) << "missing " GLB_TEST_DATA_DIR "/gline_stat_names.txt";
  std::vector<std::string> names;
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line.front() == '#') continue;
    std::istringstream fields(line);
    std::string k, name;
    std::uint32_t c = 0;
    fields >> k >> c >> name;
    if (k == kind && c == cores) names.push_back(name);
  }
  return names;
}

class StatNames : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(StatNames, EachShapeRegistersTheCheckedInNames) {
  const std::uint32_t cores = GetParam();
  harness::Scale scale;
  scale.synthetic_iters = 5;
  const cmp::CmpConfig cfg = cmp::CmpConfig::WithCores(cores);
  for (const BarrierKind kind : {BarrierKind::kGL, BarrierKind::kGLH}) {
    const std::vector<std::string> expected = ExpectedNames(harness::ToString(kind), cores);
    ASSERT_FALSE(expected.empty()) << harness::ToString(kind) << ' ' << cores;
    EXPECT_EQ(RunOn("Synthetic", scale, kind, cfg).stat_names, expected)
        << harness::ToString(kind) << ' ' << cores;
  }
}

INSTANTIATE_TEST_SUITE_P(Cores, StatNames, ::testing::Values(16u, 64u, 1024u));

TEST(ClusteredDevice, RegistersNoFlatNetworkOrNocFallbackStat) {
  harness::Scale scale;
  scale.synthetic_iters = 5;
  cmp::CmpConfig cfg = cmp::CmpConfig::WithCores(64);
  cfg.gline.watchdog_timeout = 400;
  cfg.gline.watchdog_mult = 3.0;
  cfg.gline.probe_after = 2;
  for (const std::string& name :
       RunOn("Synthetic", scale, BarrierKind::kGLH, cfg).stat_names) {
    EXPECT_NE(name.rfind("gl.", 0), 0u) << name;
    EXPECT_NE(name.rfind("hyb.", 0), 0u) << name;
  }
  // The flat chip degrades to the same software fallback: no NoC unit.
  for (const std::string& name :
       RunOn("Synthetic", scale, BarrierKind::kGL, cfg).stat_names) {
    EXPECT_NE(name.rfind("hyb.", 0), 0u) << name;
  }
}

TEST(GlineDevice, DepthOneGlAndGlhAgreeWhenDegraded) {
  // Every assertion is lost and no retry is allowed, so each node
  // degrades on its first episode and runs the rest in software.
  harness::Scale scale;
  scale.synthetic_iters = 50;
  for (const std::uint32_t cores : {16u, 36u}) {
    cmp::CmpConfig cfg = cmp::CmpConfig::WithCores(cores);
    cfg.fault.gline_drop_rate = 1.0;
    cfg.gline.watchdog_timeout = 200;
    cfg.gline.max_retries = 0;
    const Outcome gl = RunOn("Synthetic", scale, BarrierKind::kGL, cfg);
    const Outcome glh = RunOn("Synthetic", scale, BarrierKind::kGLH, cfg);
    EXPECT_EQ(gl.finish, glh.finish) << cores;
    EXPECT_EQ(gl.breakdown.cycles, glh.breakdown.cycles) << cores;
    EXPECT_EQ(gl.degraded_episodes, glh.degraded_episodes) << cores;
    EXPECT_GT(gl.degraded_episodes, 0u) << cores;
    // Synthetic is barrier-only: every NoC message would be the barrier's.
    EXPECT_EQ(gl.noc_msgs, 0u) << cores;
    EXPECT_EQ(glh.noc_msgs, 0u) << cores;
  }
}

}  // namespace
}  // namespace glb
