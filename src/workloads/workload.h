// Workload interface and helpers.
//
// A Workload owns a region of the simulated address space, provides one
// coroutine program per core (parameterized by the barrier mechanism
// under study), and can validate the simulated machine's results
// against an in-repo sequential reference — validation is exact
// (bit-for-bit) because each parallelization fixes the floating-point
// summation order.
#pragma once

#include <bit>
#include <cstdint>
#include <string>

#include "cmp/cmp_system.h"
#include "common/types.h"
#include "core/core.h"
#include "core/task.h"
#include "sync/barrier.h"

namespace glb::workloads {

class Workload {
 public:
  virtual ~Workload() = default;

  /// Table-2 style identity: short name and input description.
  virtual const char* name() const = 0;
  virtual std::string input_desc() const = 0;

  /// Checks the problem size against `cores` participants without a
  /// live system, so CLI front-ends can reject it (exit 2) before
  /// building anything. Returns "" when Init can run, else a diagnostic
  /// naming the size flag.
  virtual std::string ValidateConfig(std::uint32_t /*cores*/) const { return ""; }

  /// Allocates simulated memory and writes initial data to DRAM.
  /// Called exactly once, before any program runs.
  virtual void Init(cmp::CmpSystem& sys) = 0;

  /// The per-core program. Every core calls this once; programs
  /// synchronize through `barrier` (GL, CSW or DSW).
  virtual core::Task Body(core::Core& core, CoreId id, sync::Barrier& barrier) = 0;

  /// Compares simulated results against the sequential reference.
  /// Returns an empty string on success, else a diagnostic.
  virtual std::string Validate(cmp::CmpSystem& sys) = 0;

  /// Restricts the workload to `n` participating cores (a space-shared
  /// tenant partition runs Body with ranks 0..n-1 instead of one
  /// program per chip core). Call before Init; 0 restores the default
  /// whole-chip behavior.
  void BindParticipants(std::uint32_t n) { participants_ = n; }

 protected:
  /// The core count every partitioning/validation rule should use:
  /// the bound participant count, or the whole chip when unbound.
  std::uint32_t Participants(const cmp::CmpSystem& sys) const {
    return participants_ != 0 ? participants_ : sys.num_cores();
  }

 private:
  std::uint32_t participants_ = 0;
};

// --- floating point in simulated memory -----------------------------------

inline Word AsWord(double d) { return std::bit_cast<Word>(d); }
inline double AsDouble(Word w) { return std::bit_cast<double>(w); }

// --- block partitioning -----------------------------------------------------

struct Range {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  std::uint64_t size() const { return end - begin; }
  bool empty() const { return begin >= end; }
};

/// Contiguous block partition of [0, total) into `parts` pieces; the
/// first `total % parts` pieces get one extra element.
inline Range BlockPartition(std::uint64_t total, std::uint32_t parts,
                            std::uint32_t idx) {
  const std::uint64_t base = total / parts;
  const std::uint64_t extra = total % parts;
  const std::uint64_t begin =
      idx * base + (idx < extra ? idx : extra);
  const std::uint64_t len = base + (idx < extra ? 1 : 0);
  return Range{begin, begin + len};
}

/// Cycles charged for `flops` arithmetic operations on the 2-way
/// in-order core (Table 1).
inline Cycle FlopCycles(std::uint64_t flops) { return (flops + 1) / 2; }

}  // namespace glb::workloads
