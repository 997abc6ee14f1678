// Synthetic barrier-latency microbenchmark (paper §4.2).
//
// Following the methodology of Culler/Singh/Gupta that the paper cites:
// a loop of four consecutive barriers with no work between them,
// executed `iterations` times; average time per barrier is the total
// runtime divided by 4*iterations. This is the Figure-5 workload.
#pragma once

#include "workloads/workload.h"

namespace glb::workloads {

class Synthetic final : public Workload {
 public:
  /// The paper runs 100,000 iterations; the default is scaled for
  /// simulation wall-clock while leaving the per-barrier average
  /// unchanged (it is already stationary after a few iterations).
  explicit Synthetic(std::uint32_t iterations = 1000) : iterations_(iterations) {}

  const char* name() const override { return "Synthetic"; }
  std::string input_desc() const override {
    return std::to_string(iterations_) + " iterations";
  }

  void Init(cmp::CmpSystem&) override {}

  core::Task Body(core::Core& core, CoreId, sync::Barrier& barrier) override {
    for (std::uint32_t it = 0; it < iterations_; ++it) {
      for (int b = 0; b < 4; ++b) {
        co_await barrier.Wait(core);
        // Per-instance count, so Validate holds when other tenants
        // share the chip and the chip-global "core.barriers" counter
        // mixes everyone's waits.
        ++waits_;
      }
    }
  }

  std::string Validate(cmp::CmpSystem& sys) override {
    const std::uint64_t expected =
        std::uint64_t{4} * iterations_ * Participants(sys);
    const std::uint64_t got = waits_;
    if (got != expected) {
      return "barrier count mismatch: got " + std::to_string(got) + ", expected " +
             std::to_string(expected);
    }
    return "";
  }

  std::uint64_t total_barriers() const { return std::uint64_t{4} * iterations_; }

 private:
  std::uint32_t iterations_;
  std::uint64_t waits_ = 0;
};

}  // namespace glb::workloads
