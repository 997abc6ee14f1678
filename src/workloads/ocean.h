// OCEAN-like large-scale ocean-current study (substitute for SPLASH-2
// OCEAN — see DESIGN.md §1 for the substitution argument).
//
// Red-black successive over-relaxation of the stream-function equation
// on a square grid: per iteration, a red half-sweep, a barrier, a black
// half-sweep, a barrier, then a lock-protected accumulation of the
// global residual followed by a barrier. Rows are block-partitioned
// across cores; only the partition-boundary rows are shared, so — like
// the real OCEAN — barriers are few and far apart (high barrier period)
// and the Figure-6 profile is dominated by Busy/Read time, with a Lock
// component from the reduction.
#pragma once

#include <vector>

#include "sync/spinlock.h"
#include "workloads/workload.h"

namespace glb::workloads {

class Ocean final : public Workload {
 public:
  struct Config {
    std::uint32_t grid = 66;        // grid edge including boundary; paper: 258
    std::uint32_t iterations = 30;  // relaxation sweeps
    double omega = 1.6;             // SOR relaxation factor
  };

  /// Weak-scaling grid rule for the 256-1024-core study: two interior
  /// rows per core, the same per-core share as the 32-core default
  /// (66 = 2*32 + 2). Anything narrower leaves cores without rows —
  /// a degenerate partition where idle cores only inflate barrier
  /// skew — and anything wider grows a sweep quadratically.
  static std::uint32_t GridForCores(std::uint32_t cores) {
    return cores <= 32 ? 66 : 2 * cores + 2;
  }

  Ocean();  // default configuration
  explicit Ocean(const Config& cfg) : cfg_(cfg) {}

  const char* name() const override { return "OCEAN"; }
  std::string input_desc() const override {
    return std::to_string(cfg_.grid) + "x" + std::to_string(cfg_.grid) +
           " ocean, " + std::to_string(cfg_.iterations) + " sweeps";
  }
  std::string ValidateConfig(std::uint32_t cores) const override;
  void Init(cmp::CmpSystem& sys) override;
  core::Task Body(core::Core& core, CoreId id, sync::Barrier& barrier) override;
  std::string Validate(cmp::CmpSystem& sys) override;

 private:
  Addr Cell(std::uint32_t r, std::uint32_t c) const {
    return grid_ + (static_cast<Addr>(r) * cfg_.grid + c) * 8;
  }
  static double InitVal(std::uint32_t r, std::uint32_t c, std::uint32_t grid);

  /// One red (parity 0) or black (parity 1) half-sweep over rows
  /// [rows.begin, rows.end), returning the local residual contribution.
  core::Task HalfSweep(core::Core& core, Range rows, std::uint32_t parity,
                       double* local_residual);

  Config cfg_;
  std::uint32_t num_cores_ = 0;
  Addr grid_ = 0;
  Addr residual_ = 0;
  std::unique_ptr<sync::SpinLock> lock_;
  std::vector<double> ref_grid_;
  double ref_residual_ = 0.0;
};

}  // namespace glb::workloads
