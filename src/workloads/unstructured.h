// UNSTRUCTURED-like computational fluid dynamics kernel (substitute for
// the Mukherjee et al. UNSTRUCTURED application — see DESIGN.md §1).
//
// An irregular mesh of nodes connected by random edges is swept
// edge-by-edge: each edge computes a flux from its endpoint values and
// accumulates it into both endpoints. Edges are block-partitioned
// across cores; accumulation goes into per-core private buffers, which
// are then folded into the shared node array in a lock-protected,
// chunk-interleaved reduction — the classic shared-memory port of an
// irregular gather/scatter code. Phases are separated by barriers;
// like the real application, the barrier period is large and the time
// profile is dominated by Busy/Read with a visible Lock component.
#pragma once

#include <memory>
#include <vector>

#include "common/rng.h"
#include "sync/spinlock.h"
#include "workloads/workload.h"

namespace glb::workloads {

class Unstructured final : public Workload {
 public:
  struct Config {
    std::uint32_t nodes = 2048;   // paper mesh.2K
    std::uint32_t edges = 8192;
    std::uint32_t timesteps = 4;  // paper: 1 time step, 80 barriers total
    std::uint64_t seed = 0x0F1D;
  };

  Unstructured();  // default configuration
  explicit Unstructured(const Config& cfg) : cfg_(cfg) {}

  /// Weak-scaling mesh rule: 64 nodes and 256 edges per core, the
  /// benches' 32-core share (2048 / 8192). The 4x edge-to-node ratio —
  /// what drives the gather/scatter and the lock-protected fold — is
  /// preserved at every mesh size.
  static std::uint32_t NodesForCores(std::uint32_t cores) {
    return cores <= 32 ? 2048 : 64 * cores;
  }
  static std::uint32_t EdgesForCores(std::uint32_t cores) {
    return cores <= 32 ? 8192 : 256 * cores;
  }

  const char* name() const override { return "UNSTRUCTURED"; }
  std::string input_desc() const override {
    return "mesh " + std::to_string(cfg_.nodes) + " nodes / " +
           std::to_string(cfg_.edges) + " edges, " +
           std::to_string(cfg_.timesteps) + " time steps";
  }
  std::string ValidateConfig(std::uint32_t cores) const override;
  void Init(cmp::CmpSystem& sys) override;
  core::Task Body(core::Core& core, CoreId id, sync::Barrier& barrier) override;
  std::string Validate(cmp::CmpSystem& sys) override;

 private:
  Addr NodeVal(std::uint32_t i) const { return vals_ + static_cast<Addr>(i) * 8; }
  Addr PrivAcc(CoreId c, std::uint32_t i) const;

  Config cfg_;
  std::uint32_t num_cores_ = 0;
  std::vector<std::uint32_t> edge_a_, edge_b_;  // endpoints
  Addr vals_ = 0;      // shared node values
  Addr priv_acc_ = 0;  // per-core private accumulation arrays
  Addr energy_ = 0;    // lock-protected global statistic
  std::vector<std::unique_ptr<sync::SpinLock>> chunk_locks_;
  std::vector<double> ref_vals_;
  std::uint64_t ref_energy_ = 0;
};

}  // namespace glb::workloads
