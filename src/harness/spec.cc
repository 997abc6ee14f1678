#include "harness/spec.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <map>
#include <mutex>

#include "common/check.h"
#include "workloads/em3d.h"
#include "workloads/livermore.h"
#include "workloads/ocean.h"
#include "workloads/synthetic.h"
#include "workloads/unstructured.h"

namespace glb::harness {

Scale Scale::ForCores(std::uint32_t cores) {
  Scale s;
  if (cores <= 32) return s;
  // Sizes: keep the 32-core default's per-core share. The application
  // rules live next to the workloads they size; the kernel vectors grow
  // by the same 32-elements-per-core (8 for the tridiagonal Kernel6,
  // whose parallelism is level-limited anyway).
  s.k2_n = 32 * cores;
  s.k3_n = 32 * cores;
  s.k6_n = 8 * cores;
  s.em3d_nodes = workloads::Em3d::NodesForCores(cores);
  s.ocean_grid = workloads::Ocean::GridForCores(cores);
  s.unstr_nodes = workloads::Unstructured::NodesForCores(cores);
  s.unstr_edges = workloads::Unstructured::EdgesForCores(cores);
  // Iterations: total work per sweep grows with the sizes above, so
  // shrink the repeat counts by the same factor (bounded below — every
  // workload keeps enough phases for its barrier structure to show) to
  // hold one run at host-minutes. --*-iters / --*-steps flags override.
  const double f = static_cast<double>(cores) / 32.0;
  const auto shrink = [f](std::uint32_t base, std::uint32_t floor) {
    const auto scaled = static_cast<std::uint32_t>(
        std::llround(static_cast<double>(base) / f));
    return std::max(scaled, floor);
  };
  s.synthetic_iters = shrink(s.synthetic_iters, 50);
  s.k2_iters = shrink(s.k2_iters, 2);
  s.k3_iters = shrink(s.k3_iters, 4);
  s.k6_iters = std::max(s.k6_iters, 2u);
  s.em3d_steps = shrink(s.em3d_steps, 3);
  s.ocean_iters = shrink(s.ocean_iters, 2);
  s.unstr_steps = shrink(s.unstr_steps, 1);
  return s;
}

Scale Scale::WithFlags(const Flags& flags) const {
  Scale s = *this;
  if (flags.GetBool("paper-scale", false)) {
    s.paper = true;
    s.synthetic_iters = 100000;
    s.k2_n = 1024;
    s.k2_iters = 1000;
    s.k3_n = 1024;
    s.k3_iters = 1000;
    s.k6_n = 1024;
    s.k6_iters = 1000;
    s.em3d_nodes = 19200;  // 38,400 total E+H nodes
    s.em3d_steps = 25;
    s.ocean_grid = 258;
    s.ocean_iters = 120;
    s.unstr_nodes = 2048;
    s.unstr_edges = 8192;
    s.unstr_steps = 8;
  }
  const auto u32 = [&flags](const char* name, std::uint32_t fallback) {
    return flags.GetUint32(name, fallback);
  };
  s.synthetic_iters = u32("synthetic-iters", s.synthetic_iters);
  s.k2_n = u32("k2-n", s.k2_n);
  s.k2_iters = u32("k2-iters", s.k2_iters);
  s.k3_n = u32("k3-n", s.k3_n);
  s.k3_iters = u32("k3-iters", s.k3_iters);
  s.k6_n = u32("k6-n", s.k6_n);
  s.k6_iters = u32("k6-iters", s.k6_iters);
  s.em3d_nodes = u32("em3d-nodes", s.em3d_nodes);
  s.em3d_steps = u32("em3d-steps", s.em3d_steps);
  s.ocean_grid = u32("ocean-grid", s.ocean_grid);
  s.ocean_iters = u32("ocean-iters", s.ocean_iters);
  s.unstr_nodes = u32("unstr-nodes", s.unstr_nodes);
  s.unstr_edges = u32("unstr-edges", s.unstr_edges);
  s.unstr_steps = u32("unstr-steps", s.unstr_steps);
  return s;
}

Scale Scale::FromFlags(const Flags& flags) { return Scale{}.WithFlags(flags); }

Scale Scale::FromFlags(const Flags& flags, std::uint32_t cores) {
  return ForCores(cores).WithFlags(flags);
}

const std::vector<BarrierKind>& AllBarrierKinds() {
  static const std::vector<BarrierKind> kinds = {
      BarrierKind::kGL,   BarrierKind::kGLH,    BarrierKind::kCSW,
      BarrierKind::kDSW,  BarrierKind::kHYB,    BarrierKind::kDIS,
      BarrierKind::kRDBL, BarrierKind::kGALOIS, BarrierKind::kTUNED};
  return kinds;
}

std::optional<BarrierKind> BarrierKindFromName(const std::string& name) {
  // CLI aliases (the canonical ToString spellings and their lowercase
  // forms are handled by the loop below).
  if (name == "gl-hier") return BarrierKind::kGLH;
  if (name == "galois-fast") return BarrierKind::kGALOIS;
  for (BarrierKind k : AllBarrierKinds()) {
    std::string canon = ToString(k);
    if (name == canon) return k;
    std::transform(canon.begin(), canon.end(), canon.begin(),
                   [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
    if (name == canon) return k;
  }
  return std::nullopt;
}

BarrierKind BarrierKindFromNameOrExit(const std::string& name) {
  if (auto k = BarrierKindFromName(name)) return *k;
  std::cerr << "unknown barrier '" << name << "' (valid:";
  for (BarrierKind k : AllBarrierKinds()) std::cerr << ' ' << ToString(k);
  std::cerr << " gl-hier galois-fast)\n";
  std::exit(2);
}

namespace {

struct Registry {
  std::mutex mu;
  std::map<std::string, ScaledWorkloadFactory> entries;
};

Registry& TheRegistry() {
  static Registry* reg = [] {
    using namespace workloads;
    auto* r = new Registry();
    auto& e = r->entries;
    e["Synthetic"] = [](const Scale& s) {
      return std::make_unique<Synthetic>(s.synthetic_iters);
    };
    e["Kernel2"] = [](const Scale& s) {
      return std::make_unique<Kernel2>(s.k2_n, s.k2_iters);
    };
    e["Kernel3"] = [](const Scale& s) {
      return std::make_unique<Kernel3>(s.k3_n, s.k3_iters);
    };
    e["Kernel6"] = [](const Scale& s) {
      return std::make_unique<Kernel6>(s.k6_n, s.k6_iters);
    };
    e["EM3D"] = [](const Scale& s) {
      Em3d::Config cfg;
      cfg.nodes = s.em3d_nodes;
      cfg.timesteps = s.em3d_steps;
      return std::make_unique<Em3d>(cfg);
    };
    e["OCEAN"] = [](const Scale& s) {
      Ocean::Config cfg;
      cfg.grid = s.ocean_grid;
      cfg.iterations = s.ocean_iters;
      return std::make_unique<Ocean>(cfg);
    };
    e["UNSTRUCTURED"] = [](const Scale& s) {
      Unstructured::Config cfg;
      cfg.nodes = s.unstr_nodes;
      cfg.edges = s.unstr_edges;
      cfg.timesteps = s.unstr_steps;
      return std::make_unique<Unstructured>(cfg);
    };
    return r;
  }();
  return *reg;
}

ScaledWorkloadFactory FindWorkload(const std::string& name) {
  Registry& reg = TheRegistry();
  const std::lock_guard<std::mutex> lock(reg.mu);
  const auto it = reg.entries.find(name);
  return it == reg.entries.end() ? ScaledWorkloadFactory{} : it->second;
}

}  // namespace

void RegisterWorkload(const std::string& name, ScaledWorkloadFactory factory) {
  GLB_CHECK(factory != nullptr);
  Registry& reg = TheRegistry();
  const std::lock_guard<std::mutex> lock(reg.mu);
  reg.entries[name] = std::move(factory);
}

bool KnownWorkload(const std::string& name) {
  return FindWorkload(name) != nullptr;
}

std::vector<std::string> WorkloadNames() {
  Registry& reg = TheRegistry();
  const std::lock_guard<std::mutex> lock(reg.mu);
  std::vector<std::string> names;
  names.reserve(reg.entries.size());
  for (const auto& [name, factory] : reg.entries) names.push_back(name);
  return names;  // std::map iterates sorted
}

std::unique_ptr<workloads::Workload> MakeWorkload(const std::string& name,
                                                  const Scale& scale) {
  const ScaledWorkloadFactory factory = FindWorkload(name);
  return factory ? factory(scale) : nullptr;
}

WorkloadFactory MakeWorkloadFactory(const std::string& name, const Scale& scale) {
  ScaledWorkloadFactory factory = FindWorkload(name);
  if (!factory) return nullptr;
  return [factory = std::move(factory), scale]() { return factory(scale); };
}

std::unique_ptr<workloads::Workload> MakeWorkloadOrExit(const std::string& name,
                                                        const Scale& scale) {
  auto workload = MakeWorkload(name, scale);
  if (!workload) {
    std::cerr << "unknown workload '" << name << "' (valid:";
    for (const std::string& n : WorkloadNames()) std::cerr << ' ' << n;
    std::cerr << ")\n";
    std::exit(2);
  }
  return workload;
}

WorkloadFactory FactoryOf(const ExperimentSpec& spec) {
  WorkloadFactory factory =
      spec.factory ? spec.factory : MakeWorkloadFactory(spec.workload, spec.scale);
  GLB_CHECK(factory != nullptr) << "unknown workload " << spec.workload;
  return factory;
}

RunMetrics RunExperiment(const ExperimentSpec& spec) {
  return RunExperiment(FactoryOf(spec), spec.barrier, spec.cfg, spec.max_cycles);
}

}  // namespace glb::harness
