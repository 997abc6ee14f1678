#include "workloads/em3d.h"

#include "common/check.h"

namespace glb::workloads {

Em3d::Em3d() : Em3d(Config()) {}

std::string Em3d::input_desc() const {
  return std::to_string(2 * cfg_.nodes) + " nodes, degree " +
         std::to_string(cfg_.degree) + ", " +
         std::to_string(static_cast<int>(cfg_.remote_fraction * 100)) +
         "% remote, " + std::to_string(cfg_.timesteps) + " time steps";
}

void Em3d::BuildGraph(Graph* g, Rng& rng, std::uint32_t) const {
  const std::uint64_t edges =
      static_cast<std::uint64_t>(cfg_.nodes) * cfg_.degree;
  g->nbr.resize(edges);
  g->weight.resize(edges);
  for (std::uint32_t i = 0; i < cfg_.nodes; ++i) {
    const CoreId owner = static_cast<CoreId>(
        BlockPartitionOwner(i));
    for (std::uint32_t d = 0; d < cfg_.degree; ++d) {
      std::uint32_t nbr;
      if (rng.NextBool(cfg_.remote_fraction)) {
        nbr = static_cast<std::uint32_t>(rng.NextBelow(cfg_.nodes));
      } else {
        // Local edge: a neighbour owned by the same core.
        const Range r = BlockPartition(cfg_.nodes, num_cores_, owner);
        nbr = static_cast<std::uint32_t>(r.begin + rng.NextBelow(r.size()));
      }
      g->nbr[static_cast<std::size_t>(i) * cfg_.degree + d] = nbr;
      g->weight[static_cast<std::size_t>(i) * cfg_.degree + d] =
          0.001 + 0.0001 * static_cast<double>(rng.NextBelow(100));
    }
  }
}

std::uint32_t Em3d::BlockPartitionOwner(std::uint32_t node) const {
  for (CoreId c = 0; c < num_cores_; ++c) {
    const Range r = BlockPartition(cfg_.nodes, num_cores_, c);
    if (node >= r.begin && node < r.end) return c;
  }
  GLB_UNREACHABLE("node outside every partition");
}

std::string Em3d::ValidateConfig(std::uint32_t cores) const {
  if (cfg_.nodes < cores) {
    return "--em3d-nodes " + std::to_string(cfg_.nodes) + " is fewer than the " +
           std::to_string(cores) + " cores (need at least one node per core)";
  }
  return "";
}

void Em3d::Init(cmp::CmpSystem& sys) {
  num_cores_ = Participants(sys);
  GLB_CHECK(cfg_.nodes >= num_cores_) << "fewer nodes than cores";
  Rng rng(cfg_.seed);
  BuildGraph(&e_graph_, rng, 0);
  BuildGraph(&h_graph_, rng, 0);

  e_vals_ = sys.allocator().AllocWords(cfg_.nodes);
  h_vals_ = sys.allocator().AllocWords(cfg_.nodes);

  ref_e_.resize(cfg_.nodes);
  ref_h_.resize(cfg_.nodes);
  for (std::uint32_t i = 0; i < cfg_.nodes; ++i) {
    ref_e_[i] = 1.0 + 0.01 * static_cast<double>(i % 89);
    ref_h_[i] = -1.0 + 0.01 * static_cast<double>(i % 71);
    sys.memory().WriteWord(EVal(i), AsWord(ref_e_[i]));
    sys.memory().WriteWord(HVal(i), AsWord(ref_h_[i]));
  }

  // Sequential reference: same phase structure (all E from old H, then
  // all H from new E), element-wise so any partition gives identical
  // floating-point results.
  for (std::uint32_t t = 0; t < cfg_.timesteps; ++t) {
    for (std::uint32_t i = 0; i < cfg_.nodes; ++i) {
      double acc = ref_e_[i];
      for (std::uint32_t d = 0; d < cfg_.degree; ++d) {
        const auto e = static_cast<std::size_t>(i) * cfg_.degree + d;
        acc -= e_graph_.weight[e] * ref_h_[e_graph_.nbr[e]];
      }
      ref_e_[i] = acc;
    }
    for (std::uint32_t i = 0; i < cfg_.nodes; ++i) {
      double acc = ref_h_[i];
      for (std::uint32_t d = 0; d < cfg_.degree; ++d) {
        const auto e = static_cast<std::size_t>(i) * cfg_.degree + d;
        acc -= h_graph_.weight[e] * ref_e_[h_graph_.nbr[e]];
      }
      ref_h_[i] = acc;
    }
  }
}

core::Task Em3d::Body(core::Core& core, CoreId id, sync::Barrier& barrier) {
  const Range r = BlockPartition(cfg_.nodes, num_cores_, id);
  // Initial barrier: everyone sees the initialized fields.
  co_await barrier.Wait(core);
  for (std::uint32_t t = 0; t < cfg_.timesteps; ++t) {
    // E-phase: new E from old H.
    for (std::uint64_t i = r.begin; i < r.end; ++i) {
      double acc = AsDouble(co_await core.Load(EVal(static_cast<std::uint32_t>(i))));
      for (std::uint32_t d = 0; d < cfg_.degree; ++d) {
        const auto e = static_cast<std::size_t>(i) * cfg_.degree + d;
        const double h = AsDouble(co_await core.Load(HVal(e_graph_.nbr[e])));
        acc -= e_graph_.weight[e] * h;
      }
      co_await core.Compute(FlopCycles(2 * cfg_.degree));
      co_await core.Store(EVal(static_cast<std::uint32_t>(i)), AsWord(acc));
    }
    co_await barrier.Wait(core);
    // H-phase: new H from new E.
    for (std::uint64_t i = r.begin; i < r.end; ++i) {
      double acc = AsDouble(co_await core.Load(HVal(static_cast<std::uint32_t>(i))));
      for (std::uint32_t d = 0; d < cfg_.degree; ++d) {
        const auto e = static_cast<std::size_t>(i) * cfg_.degree + d;
        const double ev = AsDouble(co_await core.Load(EVal(h_graph_.nbr[e])));
        acc -= h_graph_.weight[e] * ev;
      }
      co_await core.Compute(FlopCycles(2 * cfg_.degree));
      co_await core.Store(HVal(static_cast<std::uint32_t>(i)), AsWord(acc));
    }
    co_await barrier.Wait(core);
  }
}

std::string Em3d::Validate(cmp::CmpSystem& sys) {
  for (std::uint32_t i = 0; i < cfg_.nodes; ++i) {
    const double ge = AsDouble(sys.memory().ReadWord(EVal(i)));
    if (ge != ref_e_[i]) {
      return "e[" + std::to_string(i) + "] = " + std::to_string(ge) +
             ", expected " + std::to_string(ref_e_[i]);
    }
    const double gh = AsDouble(sys.memory().ReadWord(HVal(i)));
    if (gh != ref_h_[i]) {
      return "h[" + std::to_string(i) + "] = " + std::to_string(gh) +
             ", expected " + std::to_string(ref_h_[i]);
    }
  }
  return "";
}

}  // namespace glb::workloads
