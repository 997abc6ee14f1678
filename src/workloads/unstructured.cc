#include "workloads/unstructured.h"

#include "common/check.h"

namespace glb::workloads {

Unstructured::Unstructured() : Unstructured(Config()) {}

namespace {
std::uint64_t ScaleEnergy(double e) { return static_cast<std::uint64_t>(e * 1e6); }
constexpr double kFluxCoef = 0.05;
}  // namespace

Addr Unstructured::PrivAcc(CoreId c, std::uint32_t i) const {
  const std::uint64_t stride =
      (static_cast<std::uint64_t>(cfg_.nodes) * kWordBytes + 63) / 64 * 64;
  return priv_acc_ + c * stride + static_cast<Addr>(i) * kWordBytes;
}

std::string Unstructured::ValidateConfig(std::uint32_t cores) const {
  if (cfg_.nodes < cores) {
    return "--unstr-nodes " + std::to_string(cfg_.nodes) + " is fewer than the " +
           std::to_string(cores) + " cores (need at least one node per core)";
  }
  return "";
}

void Unstructured::Init(cmp::CmpSystem& sys) {
  num_cores_ = Participants(sys);
  GLB_CHECK(cfg_.nodes >= num_cores_) << "fewer nodes than cores";
  Rng rng(cfg_.seed);
  edge_a_.resize(cfg_.edges);
  edge_b_.resize(cfg_.edges);
  for (std::uint32_t e = 0; e < cfg_.edges; ++e) {
    edge_a_[e] = static_cast<std::uint32_t>(rng.NextBelow(cfg_.nodes));
    std::uint32_t b = static_cast<std::uint32_t>(rng.NextBelow(cfg_.nodes));
    if (b == edge_a_[e]) b = (b + 1) % cfg_.nodes;
    edge_b_[e] = b;
  }

  vals_ = sys.allocator().AllocWords(cfg_.nodes);
  const std::uint64_t stride =
      (static_cast<std::uint64_t>(cfg_.nodes) * kWordBytes + 63) / 64 * 64;
  priv_acc_ = sys.allocator().AllocLines(stride * num_cores_);
  // One lock guards the shared energy statistic; a second is kept per
  // construction parity with real codes that stripe locks.
  chunk_locks_.push_back(std::make_unique<sync::SpinLock>(sys.allocator()));
  energy_ = sys.allocator().AllocVar();

  ref_vals_.resize(cfg_.nodes);
  for (std::uint32_t i = 0; i < cfg_.nodes; ++i) {
    ref_vals_[i] = 1.0 + 0.01 * static_cast<double>(i % 101);
    sys.memory().WriteWord(NodeVal(i), AsWord(ref_vals_[i]));
  }

  // Sequential reference mirroring the exact parallel arithmetic:
  // per-core private accumulation in edge order, then per-node folds in
  // core order.
  std::uint64_t ref_energy = 0;
  std::vector<std::vector<double>> acc(num_cores_, std::vector<double>(cfg_.nodes));
  for (std::uint32_t t = 0; t < cfg_.timesteps; ++t) {
    for (auto& a : acc) std::fill(a.begin(), a.end(), 0.0);
    for (CoreId c = 0; c < num_cores_; ++c) {
      const Range r = BlockPartition(cfg_.edges, num_cores_, c);
      for (std::uint64_t e = r.begin; e < r.end; ++e) {
        const double flux = kFluxCoef * (ref_vals_[edge_a_[e]] - ref_vals_[edge_b_[e]]);
        acc[c][edge_a_[e]] -= flux;
        acc[c][edge_b_[e]] += flux;
      }
    }
    std::vector<double> energy_partials(num_cores_, 0.0);
    for (CoreId c = 0; c < num_cores_; ++c) {
      const Range r = BlockPartition(cfg_.nodes, num_cores_, c);
      for (std::uint64_t i = r.begin; i < r.end; ++i) {
        double v = ref_vals_[i];
        for (CoreId j = 0; j < num_cores_; ++j) v += acc[j][i];
        ref_vals_[i] = v;
        energy_partials[c] += v * v;
      }
    }
    for (CoreId c = 0; c < num_cores_; ++c) {
      ref_energy += ScaleEnergy(energy_partials[c]);
    }
  }
  ref_energy_ = ref_energy;
}

core::Task Unstructured::Body(core::Core& core, CoreId id, sync::Barrier& barrier) {
  const Range my_edges = BlockPartition(cfg_.edges, num_cores_, id);
  const Range my_nodes = BlockPartition(cfg_.nodes, num_cores_, id);
  co_await barrier.Wait(core);
  for (std::uint32_t t = 0; t < cfg_.timesteps; ++t) {
    // Phase 1: clear the private accumulator (all L1 hits after the
    // first touch).
    for (std::uint64_t i = 0; i < cfg_.nodes; ++i) {
      co_await core.Store(PrivAcc(id, static_cast<std::uint32_t>(i)), AsWord(0.0));
    }
    // Phase 2: edge sweep into the private accumulator.
    for (std::uint64_t e = my_edges.begin; e < my_edges.end; ++e) {
      const std::uint32_t a = edge_a_[e], b = edge_b_[e];
      const double va = AsDouble(co_await core.Load(NodeVal(a)));
      const double vb = AsDouble(co_await core.Load(NodeVal(b)));
      const double flux = kFluxCoef * (va - vb);
      co_await core.Compute(FlopCycles(4));
      const double aa = AsDouble(co_await core.Load(PrivAcc(id, a)));
      co_await core.Store(PrivAcc(id, a), AsWord(aa - flux));
      const double ab = AsDouble(co_await core.Load(PrivAcc(id, b)));
      co_await core.Store(PrivAcc(id, b), AsWord(ab + flux));
    }
    co_await barrier.Wait(core);
    // Phase 3: owner folds every core's contribution into its nodes (a
    // remote gather across all private accumulators), tracking the
    // local energy.
    double local_energy = 0.0;
    for (std::uint64_t i = my_nodes.begin; i < my_nodes.end; ++i) {
      double v = AsDouble(co_await core.Load(NodeVal(static_cast<std::uint32_t>(i))));
      for (CoreId j = 0; j < num_cores_; ++j) {
        v += AsDouble(co_await core.Load(PrivAcc(j, static_cast<std::uint32_t>(i))));
      }
      co_await core.Compute(FlopCycles(num_cores_ + 2));
      co_await core.Store(NodeVal(static_cast<std::uint32_t>(i)), AsWord(v));
      local_energy += v * v;
    }
    // Lock-protected global energy statistic (integer-scaled so the
    // accumulation order cannot perturb the result).
    co_await chunk_locks_[0]->Acquire(core);
    const Word cur = co_await core.Load(energy_);
    co_await core.Store(energy_, cur + ScaleEnergy(local_energy));
    co_await chunk_locks_[0]->Release(core);
    co_await barrier.Wait(core);
  }
}

std::string Unstructured::Validate(cmp::CmpSystem& sys) {
  for (std::uint32_t i = 0; i < cfg_.nodes; ++i) {
    const double got = AsDouble(sys.memory().ReadWord(NodeVal(i)));
    if (got != ref_vals_[i]) {
      return "node " + std::to_string(i) + " = " + std::to_string(got) +
             ", expected " + std::to_string(ref_vals_[i]);
    }
  }
  const std::uint64_t got_e = sys.memory().ReadWord(energy_);
  if (got_e != ref_energy_) {
    return "energy " + std::to_string(got_e) + ", expected " +
           std::to_string(ref_energy_);
  }
  return "";
}

}  // namespace glb::workloads
