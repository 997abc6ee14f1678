#include "cmp/cmp_system.h"

#include <algorithm>

#include "common/check.h"

namespace glb::cmp {

gline::HierConfig GlineDevice(sync::BarrierKind kind, gline::BarrierNetConfig node,
                              const std::string& root) {
  if (kind != sync::BarrierKind::kGLH) {
    node.stat_prefix = root + "gl";
    return gline::HierConfig::Flat(std::move(node));
  }
  gline::HierConfig h;
  h.cluster_rows = std::min(h.cluster_rows, node.max_transmitters + 1);
  h.cluster_cols = std::min(h.cluster_cols, node.max_transmitters + 1);
  h.node = std::move(node);
  h.node.policy = gline::TxPolicy::kReject;
  h.node.stat_prefix = root + "glh";
  return h;
}

namespace {
noc::MeshConfig MeshConfigFor(const CmpConfig& cfg) {
  noc::MeshConfig m = cfg.noc;
  m.rows = cfg.rows;
  m.cols = cfg.cols;
  return m;
}
}  // namespace

CmpConfig CmpConfig::WithCores(std::uint32_t n) {
  GLB_CHECK(n > 0 && n <= 1024) << "supported core counts: 1..1024";
  // Pick the most square factorization r*c = n with r <= c.
  std::uint32_t best_r = 1;
  for (std::uint32_t r = 1; r * r <= n; ++r) {
    if (n % r == 0) best_r = r;
  }
  CmpConfig cfg;
  cfg.rows = best_r;
  cfg.cols = n / best_r;
  return cfg;
}

CmpConfig CmpConfig::ForBarrier(sync::BarrierKind kind) const {
  CmpConfig cfg = *this;
  cfg.hier.enabled = hier.enabled || kind == sync::BarrierKind::kGLH;
  return cfg;
}

CmpSystem::CmpSystem(const CmpConfig& cfg)
    : cfg_(cfg),
      backing_(cfg.coherence.line_bytes),
      alloc_(cfg.coherence.line_bytes),
      mesh_(engine_, MeshConfigFor(cfg), stats_),
      fabric_(engine_, mesh_, backing_, cfg.coherence, cfg.l1, cfg.l2, stats_),
      gline_(engine_, cfg.rows, cfg.cols, GlineDevice(cfg.gline_kind(), cfg.gline, ""),
             stats_) {
  cores_.reserve(cfg.num_cores());
  for (CoreId c = 0; c < cfg.num_cores(); ++c) {
    cores_.push_back(
        std::make_unique<core::Core>(engine_, fabric_.l1(c), c, cfg.core, stats_));
    cores_.back()->SetBarrierDevice(chip_barrier_device());
  }

  if (cfg.fault.enabled()) {
    injector_ = std::make_unique<fault::FaultInjector>(engine_, cfg.fault, stats_);
    injector_->Arm(gline_);
    injector_->Arm(mesh_);
    if (cfg.fault.stragglers()) {
      // Straggler sites stretch compute phases at the core, not the
      // network; the hook costs nothing on cores the plan leaves alone.
      injector_->ConfigureCompute(cfg.num_cores());
      for (auto& core : cores_) {
        core->SetComputeFaultHook([inj = injector_.get()](CoreId c, Cycle cycles) {
          return inj->StretchCompute(c, cycles);
        });
      }
    }
  }
}

sim::RunStatus CmpSystem::RunProgramsStatus(
    const std::function<core::Task(core::Core&, CoreId)>& make, Cycle max_cycles) {
  for (CoreId c = 0; c < num_cores(); ++c) {
    cores_[c]->Run(make(*cores_[c], c));
  }
  const sim::RunStatus status = engine_.RunUntilIdleStatus(max_cycles);
  if (status.idle) {
    for (CoreId c = 0; c < num_cores(); ++c) {
      GLB_CHECK(cores_[c]->done())
          << "machine went idle but core " << c
          << " never finished — a core is deadlocked (lost wakeup?)";
    }
    // Make the architectural memory image observable through the
    // backing store (validation, examples) without perturbing timing.
    fabric_.DrainToBacking();
  }
  return status;
}

Cycle CmpSystem::LastFinish() const {
  Cycle last = 0;
  for (const auto& c : cores_) last = std::max(last, c->finished_at());
  return last;
}

core::TimeBreakdown CmpSystem::TotalBreakdown() const {
  core::TimeBreakdown total;
  for (const auto& c : cores_) total += c->breakdown();
  return total;
}

}  // namespace glb::cmp
