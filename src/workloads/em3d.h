// EM3D — electromagnetic wave propagation on a bipartite graph (the
// Split-C benchmark, shared-memory port; paper §4.2).
//
// E-nodes and H-nodes form a bipartite dependency graph: each E-node
// depends on `degree` H-nodes and vice versa. Per time step, all E
// values are updated from their H neighbours, then (after a barrier)
// all H values from their E neighbours. Nodes are block-partitioned
// across cores; a configurable fraction of the edges is "remote"
// (crosses a partition boundary), which is what generates coherence
// traffic. Paper input: 38,400 nodes, degree 2, 15% remote, 25 steps.
#pragma once

#include <vector>

#include "common/rng.h"
#include "workloads/workload.h"

namespace glb::workloads {

class Em3d final : public Workload {
 public:
  struct Config {
    std::uint32_t nodes = 4800;  // per class (E and H); paper: 38400
    std::uint32_t degree = 2;
    double remote_fraction = 0.15;
    std::uint32_t timesteps = 25;
    std::uint64_t seed = 0xE3D;
  };

  Em3d();  // default configuration
  explicit Em3d(const Config& cfg) : cfg_(cfg) {}

  /// Weak-scaling node rule: 75 nodes per class per core, the benches'
  /// 32-core share (2400 = 75*32). Keeps every block partition
  /// populated and the remote-edge fraction meaningful as the mesh
  /// grows; at 1024 cores this is 76,800 nodes per class, double the
  /// paper's largest input.
  static std::uint32_t NodesForCores(std::uint32_t cores) {
    return cores <= 32 ? 2400 : 75 * cores;
  }

  const char* name() const override { return "EM3D"; }
  std::string input_desc() const override;
  std::string ValidateConfig(std::uint32_t cores) const override;
  void Init(cmp::CmpSystem& sys) override;
  core::Task Body(core::Core& core, CoreId id, sync::Barrier& barrier) override;
  std::string Validate(cmp::CmpSystem& sys) override;

 private:
  // One directed dependency list per node: node i of class X reads
  // neighbour indices (into the other class) and weights.
  struct Graph {
    std::vector<std::uint32_t> nbr;   // nodes*degree neighbour indices
    std::vector<double> weight;       // nodes*degree weights
  };

  void BuildGraph(Graph* g, Rng& rng, std::uint32_t owner_span) const;
  /// Core owning a node under the block partition.
  std::uint32_t BlockPartitionOwner(std::uint32_t node) const;
  Addr EVal(std::uint32_t i) const { return e_vals_ + static_cast<Addr>(i) * 8; }
  Addr HVal(std::uint32_t i) const { return h_vals_ + static_cast<Addr>(i) * 8; }

  Config cfg_;
  std::uint32_t num_cores_ = 0;
  Graph e_graph_;  // how E-nodes read H-nodes
  Graph h_graph_;  // how H-nodes read E-nodes
  Addr e_vals_ = 0;
  Addr h_vals_ = 0;
  std::vector<double> ref_e_;
  std::vector<double> ref_h_;
};

}  // namespace glb::workloads
