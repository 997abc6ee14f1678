// Workload validation: every benchmark runs on the full simulated CMP
// under every barrier mechanism and core count, and its results must
// match the sequential reference bit-for-bit.
#include <gtest/gtest.h>

#include <cstddef>
#include <iterator>
#include <memory>
#include <string>
#include <type_traits>

#include "harness/experiment.h"
#include "workloads/em3d.h"
#include "workloads/livermore.h"
#include "workloads/ocean.h"
#include "workloads/synthetic.h"
#include "workloads/unstructured.h"

namespace glb::workloads {
namespace {

using harness::BarrierKind;
using harness::RunExperiment;
using harness::RunMetrics;
using harness::WorkloadFactory;

WorkloadFactory FactoryFor(const std::string& name) {
  if (name == "Synthetic") {
    return []() { return std::make_unique<Synthetic>(25); };
  }
  if (name == "Kernel2") {
    return []() { return std::make_unique<Kernel2>(128, 3); };
  }
  if (name == "Kernel3") {
    return []() { return std::make_unique<Kernel3>(128, 6); };
  }
  if (name == "Kernel6") {
    return []() { return std::make_unique<Kernel6>(48, 2); };
  }
  if (name == "EM3D") {
    Em3d::Config cfg;
    cfg.nodes = 256;
    cfg.timesteps = 3;
    return [cfg]() { return std::make_unique<Em3d>(cfg); };
  }
  if (name == "OCEAN") {
    Ocean::Config cfg;
    cfg.grid = 20;
    cfg.iterations = 3;
    return [cfg]() { return std::make_unique<Ocean>(cfg); };
  }
  Unstructured::Config cfg;
  cfg.nodes = 128;
  cfg.edges = 512;
  cfg.timesteps = 2;
  return [cfg]() { return std::make_unique<Unstructured>(cfg); };
}

constexpr const char* kApps[] = {"Synthetic", "Kernel2", "Kernel3", "Kernel6",
                                 "EM3D",      "OCEAN",   "UNSTRUCTURED"};

// gtest names each instance after a byte dump of its Param. An index
// into kApps instead of a name pointer, and no padding bytes, keep that
// dump the same in every build and every launch.
struct Param {
  std::size_t app;  // index into kApps
  BarrierKind barrier;
  std::uint32_t cores;
};
static_assert(std::has_unique_object_representations_v<Param>, "no padding");

class WorkloadValidation : public ::testing::TestWithParam<Param> {};

TEST_P(WorkloadValidation, ResultsMatchSequentialReference) {
  const Param p = GetParam();
  const auto cfg = cmp::CmpConfig::WithCores(p.cores);
  const RunMetrics m =
      RunExperiment(FactoryFor(kApps[p.app]), p.barrier, cfg, 2'000'000'000ull);
  ASSERT_TRUE(m.completed) << "simulation timed out / deadlocked";
  EXPECT_EQ(m.validation, "") << "results diverged from the reference";
  EXPECT_GT(m.cycles, 0u);
  if (std::string(kApps[p.app]) != "Synthetic") {
    EXPECT_GT(m.total_msgs(), 0u) << "real workloads must use the NoC";
  }
}

std::vector<Param> AllParams() {
  std::vector<Param> out;
  for (std::size_t w = 0; w < std::size(kApps); ++w) {
    for (BarrierKind b : {BarrierKind::kGL, BarrierKind::kCSW, BarrierKind::kDSW}) {
      for (std::uint32_t cores : {4u, 16u}) {
        out.push_back(Param{w, b, cores});
      }
    }
  }
  // 64 cores = an 8x8 mesh whose G-lines exceed the 6-transmitter
  // budget (relaxed-latency lines) — the workloads must still validate.
  for (std::size_t w : {0u, 1u, 2u, 4u}) {  // Synthetic, Kernel2, Kernel3, EM3D
    out.push_back(Param{w, BarrierKind::kGL, 64});
    out.push_back(Param{w, BarrierKind::kDSW, 64});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadValidation,
                         ::testing::ValuesIn(AllParams()),
                         [](const ::testing::TestParamInfo<Param>& pinfo) {
                           const Param& p = pinfo.param;
                           return std::string(kApps[p.app]) + "_" +
                                  harness::ToString(p.barrier) + "_" +
                                  std::to_string(p.cores) + "c";
                         });

// A couple of full-width (32-core) validations of the heavier apps.
TEST(WorkloadValidation32, Kernel2At32Cores) {
  const RunMetrics m = RunExperiment(FactoryFor("Kernel2"), BarrierKind::kGL,
                                     cmp::CmpConfig::Table1(), 2'000'000'000ull);
  ASSERT_TRUE(m.completed);
  EXPECT_EQ(m.validation, "");
  EXPECT_EQ(m.cores, 32u);
}

TEST(WorkloadValidation32, Em3dAt32Cores) {
  Em3d::Config cfg;
  cfg.nodes = 512;
  cfg.timesteps = 2;
  const RunMetrics m = RunExperiment([cfg]() { return std::make_unique<Em3d>(cfg); },
                                     BarrierKind::kDSW, cmp::CmpConfig::Table1(),
                                     2'000'000'000ull);
  ASSERT_TRUE(m.completed);
  EXPECT_EQ(m.validation, "");
}

// Problem sizes are checked before a machine exists: the smallest size
// each partition rule admits passes, one less names its flag.
TEST(WorkloadConfig, ValidateConfigNamesTheSizeFlag) {
  Ocean::Config ocean;
  ocean.grid = 18;  // 16 interior rows
  EXPECT_EQ(Ocean(ocean).ValidateConfig(16), "");
  ocean.grid = 17;
  EXPECT_NE(Ocean(ocean).ValidateConfig(16).find("--ocean-grid 17"), std::string::npos);
  ocean.grid = 2;  // below the 4-row floor even for one core
  EXPECT_NE(Ocean(ocean).ValidateConfig(1).find("--ocean-grid 2"), std::string::npos);

  Unstructured::Config unstr;
  unstr.nodes = 16;
  EXPECT_EQ(Unstructured(unstr).ValidateConfig(16), "");
  unstr.nodes = 0;
  EXPECT_NE(Unstructured(unstr).ValidateConfig(16).find("--unstr-nodes 0"),
            std::string::npos);

  Em3d::Config em3d;
  em3d.nodes = 16;
  EXPECT_EQ(Em3d(em3d).ValidateConfig(16), "");
  em3d.nodes = 15;
  EXPECT_NE(Em3d(em3d).ValidateConfig(16).find("--em3d-nodes 15"), std::string::npos);

  EXPECT_EQ(Synthetic(5).ValidateConfig(1024), "");  // no size rule
}

// Barrier census: the kernels' structures imply exact barrier counts.
TEST(WorkloadCensus, Kernel2BarriersPerIteration) {
  Kernel2 k(128, 3);
  // n=128: levels for ii = 128,64,...,1 -> 8 levels per iteration.
  EXPECT_EQ(k.levels(), 8u);
  const RunMetrics m = RunExperiment(
      []() { return std::make_unique<Kernel2>(128, 3); }, BarrierKind::kGL,
      cmp::CmpConfig::WithCores(4), 1'000'000'000ull);
  ASSERT_TRUE(m.completed);
  EXPECT_EQ(m.barriers, 24u);  // 8 levels x 3 iterations
}

TEST(WorkloadCensus, Kernel3OneBarrierPerIteration) {
  const RunMetrics m = RunExperiment(
      []() { return std::make_unique<Kernel3>(128, 6); }, BarrierKind::kGL,
      cmp::CmpConfig::WithCores(4), 1'000'000'000ull);
  ASSERT_TRUE(m.completed);
  EXPECT_EQ(m.barriers, 6u);
}

TEST(WorkloadCensus, Kernel6BarrierPerRecurrenceStep) {
  const RunMetrics m = RunExperiment(
      []() { return std::make_unique<Kernel6>(48, 2); }, BarrierKind::kGL,
      cmp::CmpConfig::WithCores(4), 1'000'000'000ull);
  ASSERT_TRUE(m.completed);
  EXPECT_EQ(m.barriers, 2u * 47u);  // (n-1) per iteration
}

TEST(WorkloadCensus, SyntheticFourPerIteration) {
  const RunMetrics m = RunExperiment(
      []() { return std::make_unique<Synthetic>(25); }, BarrierKind::kGL,
      cmp::CmpConfig::WithCores(4), 1'000'000'000ull);
  ASSERT_TRUE(m.completed);
  EXPECT_EQ(m.barriers, 100u);
}

// The headline sanity check at small scale: GL barriers beat DSW beat
// CSW on the barrier-dominated synthetic benchmark.
TEST(WorkloadOrdering, SyntheticBarrierCostOrdering) {
  const auto cfg = cmp::CmpConfig::WithCores(16);
  auto run = [&](BarrierKind k) {
    return RunExperiment([]() { return std::make_unique<Synthetic>(50); }, k, cfg,
                         1'000'000'000ull);
  };
  const RunMetrics gl = run(BarrierKind::kGL);
  const RunMetrics dsw = run(BarrierKind::kDSW);
  const RunMetrics csw = run(BarrierKind::kCSW);
  ASSERT_TRUE(gl.completed && dsw.completed && csw.completed);
  EXPECT_LT(gl.cycles, dsw.cycles) << "GL must beat the combining tree";
  EXPECT_LT(dsw.cycles, csw.cycles) << "the tree must beat the central barrier";
  EXPECT_EQ(gl.total_msgs(), 0u) << "GL synthetic run must be traffic-free";
  // Both software barriers pay real coherence traffic; their relative
  // message counts depend on spin/retry dynamics, so only the
  // qualitative claim (software pays, hardware does not) is checked.
  EXPECT_GT(csw.total_msgs(), 0u);
  EXPECT_GT(dsw.total_msgs(), 0u);
}

}  // namespace
}  // namespace glb::workloads
