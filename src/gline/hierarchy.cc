#include "gline/hierarchy.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace glb::gline {

namespace {
std::uint32_t CeilDiv(std::uint32_t a, std::uint32_t b) {
  return (a + b - 1) / b;
}
}  // namespace

HierarchicalBarrierNetwork::HierarchicalBarrierNetwork(sim::Engine& engine,
                                                       std::uint32_t rows,
                                                       std::uint32_t cols,
                                                       const HierConfig& cfg,
                                                       StatSet& stats)
    : engine_(engine), rows_(rows), cols_(cols), cfg_(cfg), stats_(stats) {
  GLB_CHECK(rows > 0 && cols > 0) << "empty mesh";
  GLB_CHECK(!cfg.node.stat_prefix.empty()) << "empty stat prefix";
  if (!cfg.flat()) {
    // A 1-wide cluster dimension cannot tile a larger mesh: the grid
    // would be as large as the mesh and the recursion would never
    // terminate.
    GLB_CHECK(rows <= cfg.cluster_rows || cfg.cluster_rows >= 2)
        << "cluster_rows=1 cannot tile " << rows << " rows";
    GLB_CHECK(cols <= cfg.cluster_cols || cfg.cluster_cols >= 2)
        << "cluster_cols=1 cannot tile " << cols << " cols";
    // Every node must itself respect the transmitter budget: the whole
    // point of clustering is that no line is overloaded.
    GLB_CHECK(cfg.cluster_rows <= cfg.node.max_transmitters + 1 &&
              cfg.cluster_cols <= cfg.node.max_transmitters + 1)
        << "cluster " << cfg.cluster_rows << "x" << cfg.cluster_cols
        << " exceeds the " << cfg.node.max_transmitters << "-transmitter budget";
  }

  // The flat node registers this same counter itself, so at depth 1 the
  // node's own count is the global one.
  completed_ = stats.GetCounter(cfg_.node.stat_prefix + ".barriers_completed");
  BuildLevels(stats);
  ChainLevels();
  BuildPorts();
}

void HierarchicalBarrierNetwork::BuildLevels(StatSet& stats) {
  // The flat device is one cluster the size of the mesh.
  const std::uint32_t cap_rows = cfg_.flat() ? rows_ : cfg_.cluster_rows;
  const std::uint32_t cap_cols = cfg_.flat() ? cols_ : cfg_.cluster_cols;
  BarrierNetConfig sub = cfg_.node;
  std::uint32_t mr = rows_, mc = cols_;
  for (std::uint32_t k = 0;; ++k) {
    if (cfg_.node.adaptive()) {
      // Depth-aware windows: a level-k episode spans the slowest
      // subtree below it (k extra gather/release hops plus the leaf
      // skew), so its floor grows with depth, and with it the ceiling
      // (a multiple of the floor). Fixed-window mode keeps the uniform
      // v1 windows bit-for-bit.
      sub.watchdog_timeout = cfg_.node.watchdog_timeout * (k + 1);
    }
    Level lv;
    lv.mesh_rows = mr;
    lv.mesh_cols = mc;
    lv.grid_rows = CeilDiv(mr, cap_rows);
    lv.grid_cols = CeilDiv(mc, cap_cols);
    // Balance the grid: with the cluster count fixed, spread rows and
    // columns evenly (8x8 becomes four 4x4 clusters rather than a 7x7
    // plus slivers), then drop grid cells the balanced dims emptied.
    lv.eff_rows = CeilDiv(mr, lv.grid_rows);
    lv.eff_cols = CeilDiv(mc, lv.grid_cols);
    lv.grid_rows = CeilDiv(mr, lv.eff_rows);
    lv.grid_cols = CeilDiv(mc, lv.eff_cols);
    for (std::uint32_t gr = 0; gr < lv.grid_rows; ++gr) {
      for (std::uint32_t gc = 0; gc < lv.grid_cols; ++gc) {
        Node n;
        n.row0 = gr * lv.eff_rows;
        n.col0 = gc * lv.eff_cols;
        n.nrows = std::min(lv.eff_rows, mr - n.row0);
        n.ncols = std::min(lv.eff_cols, mc - n.col0);
        n.prefix = cfg_.flat() ? cfg_.node.stat_prefix
                               : cfg_.node.stat_prefix + ".l" + std::to_string(k) +
                                     ".c" + std::to_string(lv.nodes.size());
        sub.stat_prefix = n.prefix;
        n.net = std::make_unique<BarrierNetwork>(engine_, n.nrows, n.ncols, sub,
                                                 stats);
        lv.nodes.push_back(std::move(n));
      }
    }
    const bool root = lv.grid_rows == 1 && lv.grid_cols == 1;
    levels_.push_back(std::move(lv));
    if (root) break;
    mr = levels_.back().grid_rows;
    mc = levels_.back().grid_cols;
  }
}

std::uint32_t HierarchicalBarrierNetwork::NodeIndexAt(const Level& level,
                                                      std::uint32_t r,
                                                      std::uint32_t c) {
  return (r / level.eff_rows) * level.grid_cols + (c / level.eff_cols);
}

void HierarchicalBarrierNetwork::ChainLevels() {
  for (std::uint32_t k = 0; k + 1 < levels_.size(); ++k) {
    Level& lv = levels_[k];
    const Level& up = levels_[k + 1];
    for (std::uint32_t i = 0; i < lv.nodes.size(); ++i) {
      Node& n = lv.nodes[i];
      // This node is "core" (gr, gc) of the level above.
      const std::uint32_t gr = i / lv.grid_cols, gc = i % lv.grid_cols;
      n.parent_node = NodeIndexAt(up, gr, gc);
      const Node& p = up.nodes[n.parent_node];
      n.parent_slot = (gr - p.row0) * p.ncols + (gc - p.col0);

      // Chain: node completion, in hardware or (degraded) in software,
      // arrives at the level above; the upper release triggers this
      // node's deferred release.
      n.net->SetParent(*up.nodes[n.parent_node].net, n.parent_slot);
    }
  }
  // The root has no parent: its own release IS the global release, and
  // a degraded root's counting fallback is safe because every arrival
  // it sees is a fully-gathered subtree.
}

void HierarchicalBarrierNetwork::BuildPorts() {
  const Level& l0 = levels_.front();
  ports_.resize(num_cores());
  for (CoreId core = 0; core < num_cores(); ++core) {
    const std::uint32_t r = core / cols_, c = core % cols_;
    const Node& leaf = l0.nodes[NodeIndexAt(l0, r, c)];
    Port& p = ports_[core];
    p.device = this;
    p.leaf = leaf.net.get();
    p.local = (r - leaf.row0) * leaf.ncols + (c - leaf.col0);
    // Count the global barrier on the LAST core release (not at the
    // root's completion): correct even when nodes complete through the
    // degraded fallback path, where the root's gather may be bypassed
    // entirely.
    p.run = [](sim::Engine::Member& m) {
      Port& port = static_cast<Port&>(m);
      HierarchicalBarrierNetwork& dev = *port.device;
      if (++dev.released_ == dev.num_cores()) {
        dev.released_ = 0;
        dev.completed_->Inc();
      }
      std::exchange(port.inner, nullptr)->Release();
    };
  }
}

void HierarchicalBarrierNetwork::Arrive(CoreId core, core::BarrierWaiter& waiter) {
  GLB_CHECK(core < num_cores()) << "bad core id " << core;
  if (arrival_fault_ != nullptr) {
    const Cycle stall = arrival_fault_(core);
    if (stall > 0) {
      engine_.ScheduleIn(stall, [this, core, w = &waiter] { DoArrive(core, *w); });
      return;
    }
  }
  DoArrive(core, waiter);
}

void HierarchicalBarrierNetwork::DoArrive(CoreId core, core::BarrierWaiter& waiter) {
  Port& port = ports_[core];
  if (cfg_.flat()) {
    // The single node counts its own episodes: that count is global.
    port.leaf->Arrive(port.local, waiter);
    return;
  }
  port.inner = &waiter;
  port.leaf->Arrive(port.local, port);
}

void HierarchicalBarrierNetwork::SetLineFaultHook(GLine::DeliverFaultHook hook) {
  for (auto& lv : levels_) {
    for (auto& n : lv.nodes) n.net->SetLineFaultHook(hook);
  }
}

void HierarchicalBarrierNetwork::SetArrivalFaultHook(ArrivalFaultHook hook) {
  arrival_fault_ = std::move(hook);
}

std::uint32_t HierarchicalBarrierNetwork::total_lines() const {
  std::uint32_t total = 0;
  for (const auto& lv : levels_) {
    for (const auto& n : lv.nodes) total += n.net->total_lines();
  }
  return total;
}

std::vector<LevelWireSummary> HierarchicalBarrierNetwork::LevelSummaries() const {
  std::vector<LevelWireSummary> out;
  out.reserve(levels_.size());
  std::uint32_t span = 1;
  for (std::uint32_t k = 0; k < levels_.size(); ++k) {
    const Level& lv = levels_[k];
    LevelWireSummary s;
    s.level = k;
    s.nodes = static_cast<std::uint32_t>(lv.nodes.size());
    s.span_tiles = span;
    for (const Node& n : lv.nodes) {
      s.lines += n.net->total_lines();
      s.signals += stats_.CounterValue(n.prefix + ".signals");
    }
    // Every completed sub-barrier one level down is one cluster-master
    // arrival handed into this level.
    if (k > 0) {
      for (const Node& n : levels_[k - 1].nodes) {
        s.handoffs += stats_.CounterValue(n.prefix + ".barriers_completed");
      }
    }
    out.push_back(s);
    // Adjacent nodes of the next level sit one of this level's clusters
    // apart; use the longer cluster edge (conservative for energy).
    span *= std::max(lv.eff_rows, lv.eff_cols);
  }
  return out;
}

bool HierarchicalBarrierNetwork::degraded_any() const {
  for (const auto& lv : levels_) {
    for (const auto& n : lv.nodes) {
      if (n.net->degraded()) return true;
    }
  }
  return false;
}

std::uint64_t HierarchicalBarrierNetwork::AggregateCounter(
    const std::string& suffix) const {
  std::uint64_t sum = 0;
  for (const auto& lv : levels_) {
    for (const auto& n : lv.nodes) {
      sum += stats_.CounterValue(n.prefix + "." + suffix);
    }
  }
  return sum;
}

}  // namespace glb::gline
