// Livermore Loops kernels 2, 3 and 6 (paper §4.2), parallelized with
// one barrier mechanism under study and validated bit-for-bit against
// sequential references (the parallelizations fix the floating-point
// evaluation order, so results are exact).
//
// Barrier census (matching Table 2's structure):
//   Kernel 2 — ICCG elimination: one barrier per reduction level,
//              ~log2(n) levels per iteration (10,000 barriers for
//              n=1024, 1,000 iterations in the paper).
//   Kernel 3 — inner product: one barrier per iteration (1,000).
//   Kernel 6 — general linear recurrence: one barrier per recurrence
//              step, n-2 steps per iteration (1,022,000 for n=1024,
//              1,000 iterations).
#pragma once

#include <vector>

#include "workloads/workload.h"

namespace glb::workloads {

/// Kernel 2: excerpt from an incomplete Cholesky conjugate gradient.
/// Each halving level writes a fresh region of x from the previous one;
/// levels are separated by barriers, elements within a level are
/// partitioned across cores.
class Kernel2 final : public Workload {
 public:
  explicit Kernel2(std::uint32_t n = 1024, std::uint32_t iterations = 20);

  const char* name() const override { return "Kernel2"; }
  std::string input_desc() const override;
  std::string ValidateConfig(std::uint32_t cores) const override;
  void Init(cmp::CmpSystem& sys) override;
  core::Task Body(core::Core& core, CoreId id, sync::Barrier& barrier) override;
  std::string Validate(cmp::CmpSystem& sys) override;

  /// Barriers each core executes per outer iteration (= #levels).
  std::uint32_t levels() const;

 private:
  std::uint32_t n_;
  std::uint32_t iterations_;
  std::uint32_t num_cores_ = 0;
  Addr x_ = 0;
  Addr v_ = 0;
  std::vector<double> ref_x_;  // sequential reference result
};

/// Kernel 3: inner product q = sum_k x[k]*z[k]. Per-core partial sums
/// land in double-buffered per-core slots; core 0 combines them after
/// the barrier while the others move on.
class Kernel3 final : public Workload {
 public:
  explicit Kernel3(std::uint32_t n = 1024, std::uint32_t iterations = 100);

  const char* name() const override { return "Kernel3"; }
  std::string input_desc() const override;
  std::string ValidateConfig(std::uint32_t cores) const override;
  void Init(cmp::CmpSystem& sys) override;
  core::Task Body(core::Core& core, CoreId id, sync::Barrier& barrier) override;
  std::string Validate(cmp::CmpSystem& sys) override;

 private:
  std::uint32_t n_;
  std::uint32_t iterations_;
  std::uint32_t num_cores_ = 0;
  Addr x_ = 0;
  Addr z_ = 0;
  Addr partials_ = 0;  // [2 parities][P cores], one line per slot
  Addr q_ = 0;         // [2 parities]
  double ref_q_ = 0.0;

  Addr PartialSlot(std::uint32_t parity, CoreId c) const;
};

/// Kernel 6: general linear recurrence
///   w[i] = 0.01 + sum_{k<i} b[k][i] * w[i-k-1].
/// The inner reduction is partitioned across cores; every core keeps a
/// private full copy of w and applies each completed element
/// redundantly, so one barrier per recurrence step suffices.
class Kernel6 final : public Workload {
 public:
  explicit Kernel6(std::uint32_t n = 256, std::uint32_t iterations = 2);

  const char* name() const override { return "Kernel6"; }
  std::string input_desc() const override;
  std::string ValidateConfig(std::uint32_t cores) const override;
  void Init(cmp::CmpSystem& sys) override;
  core::Task Body(core::Core& core, CoreId id, sync::Barrier& barrier) override;
  std::string Validate(cmp::CmpSystem& sys) override;

 private:
  std::uint32_t n_;
  std::uint32_t iterations_;
  std::uint32_t num_cores_ = 0;
  Addr b_ = 0;         // n x n row-major, b[k][i] at b_ + (k*n+i)*8
  Addr w_private_ = 0; // per-core private w arrays, n words each
  Addr partials_ = 0;  // [2 parities][P cores]
  std::vector<double> ref_w_;

  Addr WSlot(CoreId c, std::uint32_t i) const;
  Addr PartialSlot(std::uint32_t parity, CoreId c) const;
  static double BVal(std::uint32_t k, std::uint32_t i);
};

}  // namespace glb::workloads
