// Hierarchical (multi-level) G-line barrier network — the paper's §5
// future-work answer to the 7x7 technology limit ("design efficient and
// scalable schemes to interconnect G-line-based networks").
//
// The mesh is tiled into clusters of at most `cluster_rows x
// cluster_cols` nodes (7x7 by default, the largest a 6-transmitter
// G-line supports). Each cluster runs a full Figure-1 barrier network;
// its MasterV, instead of starting the release wave, signals the next
// level up, whose "nodes" are the cluster masters. Clustering recurses
// until one network covers the whole grid: level k+1 tiles level k's
// cluster grid the same way, so any mesh is reachable with
// depth = ceil(log_{cap}(sqrt(N))) levels, every individual line inside
// the transmitter budget (all sub-networks are built with
// TxPolicy::kReject, so an overloaded line is a construction error).
//
// Latency: each level adds one gather (2 cycles) on the way up and one
// release wave (2 cycles) on the way down; the hand-off between levels
// is combinational (the cluster master's flag IS the upper level's
// bar_reg write). Last core release = T + 4*depth for simultaneous
// arrivals at T when every level is at least 2x2 — depth 1 is the
// paper's flat 4-cycle network, depth 2 covers 49x49 = 2401 cores at 8
// cycles, depth 3 covers 343x343 at 12.
//
// Stats: every node registers under its own prefix
// "<stat_prefix>.l<level>.c<node>." so per-network counters never alias
// in the shared StatSet; the network-wide "<stat_prefix>.barriers_completed"
// counts each *global* barrier exactly once (it increments when the last
// core is released, which also holds in degraded mode).
//
// Resilience: with `watchdog_timeout` set every node runs the flat
// network's watchdog/retry/degrade machinery. A degraded non-root node
// must NOT count its own cores and release them — that would release a
// cluster before the rest of the chip arrived — so the hierarchy
// installs a fallback on every non-root node that buffers local
// arrivals and forwards one arrival to the parent when the node is
// full; the parent's release then releases the buffered batch. Only the
// root may count-and-release locally (its arrivals are already
// fully-gathered clusters), so the root keeps the flat network's
// built-in counting fallback. The invariant at every depth: no core is
// released before all cores arrived, and every episode completes.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
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
  std::uint32_t cluster_rows = 7;
  std::uint32_t cluster_cols = 7;
  std::uint32_t max_transmitters = 6;
  /// Root of every stat/trace name ("glh" -> "glh.barriers_completed",
  /// node prefixes "glh.l0.c3.*").
  std::string stat_prefix = "glh";
  /// Selects the hierarchical network as the chip's barrier device when
  /// embedded in a CmpConfig; the network itself ignores this.
  bool enabled = false;

  // --- resilience (0 = off), applied to every node ---------------------
  Cycle watchdog_timeout = 0;
  std::uint32_t max_retries = 2;
  /// Modeled cost of the root's built-in counting fallback.
  Cycle fallback_latency = 32;

  // --- self-healing v2 (see BarrierNetConfig) --------------------------
  /// Adaptive watchdog multiplier; when > 0, each level k additionally
  /// scales its window floor by (k+1) — a level-k episode spans the
  /// slowest subtree below it, so upper levels legitimately run longer
  /// windows (depth-aware straggler tolerance).
  double watchdog_mult = 0.0;
  double watchdog_alpha = 0.25;
  Cycle watchdog_max = 0;
  /// Hardware rejoin, applied to every node (0 = v1 sticky).
  std::uint32_t probe_after = 0;
  std::uint32_t probe_successes = 2;

  bool resilient() const { return watchdog_timeout > 0; }
  bool adaptive() const { return resilient() && watchdog_mult > 0; }
};

class HierarchicalBarrierNetwork final : public core::BarrierDevice {
 public:
  HierarchicalBarrierNetwork(sim::Engine& engine, std::uint32_t rows,
                             std::uint32_t cols, const HierConfig& cfg,
                             StatSet& stats);

  HierarchicalBarrierNetwork(const HierarchicalBarrierNetwork&) = delete;
  HierarchicalBarrierNetwork& operator=(const HierarchicalBarrierNetwork&) = delete;

  /// bar_reg write of a core (global id, row-major over the full mesh).
  void Arrive(CoreId core, std::function<void()> on_release) override;

  // --- fault-injection hooks (see fault::FaultInjector) ---------------

  /// Installs `hook` on every G-line of every node at every level.
  void SetLineFaultHook(GLine::DeliverFaultHook hook);
  /// Consulted once per core bar_reg write (global core ids); a nonzero
  /// return stalls the arrival that many cycles.
  void SetArrivalFaultHook(BarrierNetwork::ArrivalFaultHook hook);

  sim::Engine& engine() { return engine_; }
  std::uint32_t rows() const { return rows_; }
  std::uint32_t cols() const { return cols_; }
  std::uint32_t num_cores() const { return rows_ * cols_; }
  /// Hierarchy depth (1 = the mesh fits one flat network).
  std::uint32_t num_levels() const {
    return static_cast<std::uint32_t>(levels_.size());
  }
  /// Leaf clusters (level-0 nodes).
  std::uint32_t num_clusters() const {
    return static_cast<std::uint32_t>(levels_.front().nodes.size());
  }
  std::uint32_t nodes_at(std::uint32_t level) const {
    return static_cast<std::uint32_t>(levels_.at(level).nodes.size());
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
  /// over every node at every level. The "ctx0." duplicates are not
  /// included.
  std::uint64_t AggregateCounter(const std::string& suffix) const;

 private:
  struct Node {
    std::unique_ptr<BarrierNetwork> net;
    std::string prefix;          // "glh.l<k>.c<i>"
    std::uint32_t row0, col0;    // origin within this level's mesh
    std::uint32_t nrows, ncols;  // dims of this node's network
    std::uint32_t parent_node = 0;  // index within the level above
    CoreId parent_slot = 0;         // local id within the parent network
    /// Degraded-mode buffering (resilient non-root nodes only): local
    /// releases owed, forwarded upward as one arrival.
    std::vector<std::function<void()>> fb;
  };
  struct Level {
    std::uint32_t mesh_rows, mesh_cols;  // the mesh this level tiles
    std::uint32_t grid_rows, grid_cols;  // node grid dimensions
    std::uint32_t eff_rows, eff_cols;    // balanced node dimensions
    std::vector<Node> nodes;
  };

  void BuildLevels(StatSet& stats);
  void ChainLevels();
  void DoArrive(CoreId core, std::function<void()> on_release);
  /// Node index within `level` covering mesh position (r, c).
  static std::uint32_t NodeIndexAt(const Level& level, std::uint32_t r,
                                   std::uint32_t c);

  sim::Engine& engine_;
  std::uint32_t rows_, cols_;
  HierConfig cfg_;
  StatSet& stats_;
  std::vector<Level> levels_;  // [0] = leaves over cores, back() = root
  /// Releases delivered in the current global episode; the global
  /// completion counter increments when this wraps at num_cores.
  std::uint32_t released_ = 0;
  BarrierNetwork::ArrivalFaultHook arrival_fault_;
  Counter* completed_ = nullptr;
};

}  // namespace glb::gline
