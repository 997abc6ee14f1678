// The chip's G-line barrier device: a tree of Figure-1 networks
// (gline::BarrierNetwork nodes) in one of two shapes.
//
//   * Flat (kGL, HierConfig::Flat): one node spanning the mesh, built
//     with the node config's own transmitter policy (kRelaxed on the
//     chip). It registers under the root prefix ("gl.signals",
//     "gl.ctx0.sglineH0"), and its barriers_completed is the global
//     count.
//   * Clustered (kGLH, the default HierConfig): the paper's §5 answer to
//     the 7x7 technology limit. The mesh is tiled into clusters of at
//     most `cluster_rows x cluster_cols` nodes (7x7, the largest a
//     6-transmitter G-line supports), each a kReject Figure-1 network
//     whose MasterV, instead of starting the release wave, signals the
//     next level up. Level k+1 tiles level k's cluster grid the same
//     way until one network covers it, so depth =
//     ceil(log_cap(sqrt(N))) with every line inside the budget. Nodes
//     register under "<stat_prefix>.l<level>.c<node>." at every depth,
//     and "<stat_prefix>.barriers_completed" counts each global barrier
//     once, when its last core is released (degraded mode included).
//
// Latency: each level adds a 2-cycle gather and a 2-cycle release wave;
// the hand-off between levels is combinational (the cluster master's
// flag IS the upper level's bar_reg write). Last core release = T +
// 4*depth for simultaneous arrivals at T when every level is at least
// 2x2: 4 cycles flat, 8 for up to 49x49 = 2401 cores, 12 for 343x343.
//
// The device is the one arrival entry point, so it owns the injected
// core-freeze stall; line faults land on every node's lines.
//
// Resilience: with `watchdog_timeout` set every node runs
// BarrierNetwork's watchdog/retry/degrade machinery, and a degraded
// node has one fallback: it counts its arrivals in software and
// completes through the same path as a healthy gather. A non-root node
// must NOT release its own cores — that would release a cluster before
// the rest of the chip arrived — so its full batch arrives at the
// parent as the node's own arrival there, and the parent's release
// releases the batch. The root (the flat node at depth 1) releases its
// batch after the flat kFallbackLatency; its arrivals are whole
// subtrees, so that is the global release. At every depth no core is
// released before all cores arrived, and every episode completes.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "core/barrier_device.h"
#include "gline/barrier_network.h"
#include "sim/engine.h"

namespace glb::gline {

/// One level's wire budget and observed activity, for the energy model
/// and the wire-count tables. `span_tiles` is the mesh distance between
/// adjacent endpoints of this level's lines: level 0 connects adjacent
/// cores (span 1); level k connects cluster masters that sit one
/// level-(k-1) cluster apart, so its lines are physically longer and a
/// signal on them proportionally more expensive.
struct LevelWireSummary {
  std::uint32_t level = 0;       // 0 = leaves over cores
  std::uint32_t nodes = 0;       // sub-networks at this level
  std::uint32_t lines = 0;       // G-lines across those sub-networks
  std::uint32_t span_tiles = 1;  // tiles spanned between adjacent endpoints
  std::uint64_t signals = 0;     // sum of the nodes' ".signals" counters
  std::uint64_t handoffs = 0;    // cluster-master arrivals handed into this
                                 // level (0 at level 0: cores arrive by
                                 // bar_reg write, not by hand-off)
};

struct HierConfig {
  /// Maximum cluster dimensions (default: the 7x7 technology limit).
  /// Zero means one cluster spanning the mesh: the flat network.
  std::uint32_t cluster_rows = 7;
  std::uint32_t cluster_cols = 7;
  /// Every node's transmitter budget, policy and resilience knobs; its
  /// stat_prefix roots the device's names ("glh" -> node prefixes
  /// "glh.l0.c3"). With the adaptive watchdog on, a clustered device
  /// scales level k's window floor (and so its ceiling) by (k+1): a level-k
  /// episode spans the slowest subtree below it, so upper levels
  /// legitimately run longer windows (depth-aware straggler tolerance).
  BarrierNetConfig node{.policy = TxPolicy::kReject, .stat_prefix = "glh"};

  bool flat() const { return cluster_rows == 0 || cluster_cols == 0; }

  /// The flat network as a device: one node spanning the mesh, with
  /// `node`'s own policy and names.
  static HierConfig Flat(BarrierNetConfig node = {}) {
    return HierConfig{.cluster_rows = 0, .cluster_cols = 0, .node = std::move(node)};
  }
};

class HierarchicalBarrierNetwork final : public core::BarrierDevice {
 public:
  HierarchicalBarrierNetwork(sim::Engine& engine, std::uint32_t rows,
                             std::uint32_t cols, const HierConfig& cfg,
                             StatSet& stats);

  HierarchicalBarrierNetwork(const HierarchicalBarrierNetwork&) = delete;
  HierarchicalBarrierNetwork& operator=(const HierarchicalBarrierNetwork&) = delete;

  using core::BarrierDevice::Arrive;
  /// bar_reg write of a core (global id, row-major over the full mesh).
  void Arrive(CoreId core, core::BarrierWaiter& waiter) override;

  // --- fault-injection hooks (see fault::FaultInjector) ---------------

  /// Installs `hook` on every G-line of every node at every level.
  void SetLineFaultHook(GLine::DeliverFaultHook hook);
  /// Consulted once per core bar_reg write (global core ids); a nonzero
  /// return stalls the arrival that many cycles (a frozen core's write
  /// reaching the controllers late). nullptr clears.
  using ArrivalFaultHook = std::function<Cycle(CoreId core)>;
  void SetArrivalFaultHook(ArrivalFaultHook hook);

  std::uint32_t num_cores() const { return rows_ * cols_; }
  const HierConfig& config() const { return cfg_; }
  /// Hierarchy depth (1 = the mesh fits one flat network).
  std::uint32_t num_levels() const {
    return static_cast<std::uint32_t>(levels_.size());
  }
  /// Leaf clusters (level-0 nodes).
  std::uint32_t num_clusters() const {
    return static_cast<std::uint32_t>(levels_.front().nodes.size());
  }
  const BarrierNetwork& node(std::uint32_t level, std::uint32_t idx) const {
    return *levels_.at(level).nodes.at(idx).net;
  }
  BarrierNetwork& node(std::uint32_t level, std::uint32_t idx) {
    return *levels_.at(level).nodes.at(idx).net;
  }
  /// Total G-lines across every node at every level.
  std::uint32_t total_lines() const;
  /// Per-level wire counts and activity (one entry per level, leaves
  /// first); signal/hand-off counts are read from the shared StatSet,
  /// so call after the run whose energy is being priced.
  std::vector<LevelWireSummary> LevelSummaries() const;
  /// Global barriers completed (once per barrier).
  std::uint64_t barriers_completed() const { return completed_->value(); }
  /// True if any node has tripped its sticky degraded flag.
  bool degraded_any() const;
  /// Sum of the per-node aggregate counter `suffix` (e.g. "timeouts")
  /// over every node at every level ("gl.timeouts" for the flat
  /// device). The "ctx0." duplicates are not included.
  std::uint64_t AggregateCounter(const std::string& suffix) const;

 private:
  struct Node {
    std::unique_ptr<BarrierNetwork> net;
    std::string prefix;          // "glh.l<k>.c<i>", or the root when flat
    std::uint32_t row0, col0;    // origin within this level's mesh
    std::uint32_t nrows, ncols;  // dims of this node's network
    std::uint32_t parent_node = 0;  // index within the level above
    CoreId parent_slot = 0;         // local id within the parent network
  };
  struct Level {
    std::uint32_t mesh_rows, mesh_cols;  // the mesh this level tiles
    std::uint32_t grid_rows, grid_cols;  // node grid dimensions
    std::uint32_t eff_rows, eff_cols;    // balanced node dimensions
    std::vector<Node> nodes;
  };

  /// A core's entry into its leaf node, built once: the leaf, the
  /// core's id there, and (clustered devices) the waiter the leaf
  /// releases, which counts the global episode and then releases the
  /// core's own waiter.
  struct Port : core::BarrierWaiter {
    HierarchicalBarrierNetwork* device = nullptr;
    BarrierNetwork* leaf = nullptr;
    CoreId local = 0;
    core::BarrierWaiter* inner = nullptr;
  };

  void BuildLevels(StatSet& stats);
  void ChainLevels();
  void BuildPorts();
  void DoArrive(CoreId core, core::BarrierWaiter& waiter);
  /// Node index within `level` covering mesh position (r, c).
  static std::uint32_t NodeIndexAt(const Level& level, std::uint32_t r,
                                   std::uint32_t c);

  sim::Engine& engine_;
  std::uint32_t rows_, cols_;
  HierConfig cfg_;
  StatSet& stats_;
  std::vector<Level> levels_;  // [0] = leaves over cores, back() = root
  std::vector<Port> ports_;    // per core
  /// Releases delivered in the current global episode; the global
  /// completion counter increments when this wraps at num_cores (a
  /// clustered device only: the flat node counts its own episodes).
  std::uint32_t released_ = 0;
  ArrivalFaultHook arrival_fault_;
  Counter* completed_ = nullptr;
};

}  // namespace glb::gline
