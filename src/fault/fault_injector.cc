#include "fault/fault_injector.h"

#include <algorithm>
#include <string>

#include "common/check.h"
#include "common/log.h"

namespace glb::fault {

FaultInjector::FaultInjector(sim::Engine& engine, const FaultPlan& plan,
                             StatSet& stats)
    : engine_(engine),
      plan_(plan),
      rng_(plan.seed),
      script_fired_(plan.script.size(), false) {
  total_ = stats.GetCounter("fault.injected");
  gline_drop_ = stats.GetCounter("fault.gline_drop");
  gline_dup_ = stats.GetCounter("fault.gline_dup");
  csma_corrupt_ = stats.GetCounter("fault.csma_corrupt");
  core_freeze_ = stats.GetCounter("fault.core_freeze");
  noc_delay_ = stats.GetCounter("fault.noc_delay");
  noc_drop_ = stats.GetCounter("fault.noc_drop");
  core_slow_ = stats.GetCounter("fault.core_slow");
  work_skew_ = stats.GetCounter("fault.work_skew");
  for (const ScriptedFault& f : plan_.script) {
    if (f.site == FaultSite::kCoreSlowdown || f.site == FaultSite::kWorkSkew) {
      has_straggler_script_ = true;
    }
  }
}

void FaultInjector::ConfigureCompute(std::uint32_t num_cores) {
  if (compute_cores_ >= num_cores) return;
  compute_cores_ = num_cores;
  compute_factor_.assign(num_cores, 1.0);
  for (CoreId core = 0; core < num_cores; ++core) {
    double f = 1.0;
    if (plan_.core_slow_rate > 0) {
      // Per-core hash-derived draw: a private stream seeded from
      // (plan seed, core id) keeps the pick order-independent.
      Rng pick(plan_.seed ^ (0x9E3779B97F4A7C15ull * (core + 1)));
      if (pick.NextDouble() < plan_.core_slow_rate) {
        f *= plan_.core_slow_factor;
        core_slow_->Inc();
        total_->Inc();
        GLB_TRACE(engine_.Now(), "fault",
                  "core " << core << " slowed x" << plan_.core_slow_factor);
      }
    }
    if (plan_.work_skew > 0 && num_cores > 1) {
      f *= 1.0 + plan_.work_skew * static_cast<double>(core) /
                     static_cast<double>(num_cores - 1);
      if (core > 0) {
        work_skew_->Inc();
        total_->Inc();
      }
    }
    compute_factor_[core] = f;
  }
}

Cycle FaultInjector::StretchCompute(CoreId core, Cycle cycles) {
  if (has_straggler_script_) {
    // Scripted stragglers fire at the core's first compute phase at or
    // after the entry's cycle, then stick for the rest of the run.
    const std::string id = std::to_string(core);
    std::int32_t mag = 0;
    while (ConsumeScript(FaultSite::kCoreSlowdown, id, &mag)) {
      if (core >= compute_factor_.size()) compute_factor_.resize(core + 1, 1.0);
      const double f = mag > 0 ? 1.0 + mag / 100.0 : plan_.core_slow_factor;
      compute_factor_[core] *= f;
      core_slow_->Inc();
      total_->Inc();
      GLB_TRACE(engine_.Now(), "fault", "core " << core << " slowed x" << f);
      mag = 0;
    }
    while (ConsumeScript(FaultSite::kWorkSkew, id, &mag)) {
      if (core >= compute_factor_.size()) compute_factor_.resize(core + 1, 1.0);
      const double f = mag > 0 ? 1.0 + mag / 100.0 : 1.0 + plan_.work_skew;
      compute_factor_[core] *= f;
      work_skew_->Inc();
      total_->Inc();
      GLB_TRACE(engine_.Now(), "fault", "core " << core << " skewed x" << f);
      mag = 0;
    }
  }
  const double f = ComputeFactor(core);
  if (f == 1.0 || cycles == 0) return cycles;
  return static_cast<Cycle>(static_cast<double>(cycles) * f + 0.5);
}

double FaultInjector::ComputeFactor(CoreId core) const {
  if (core >= compute_factor_.size()) return 1.0;
  return compute_factor_[core];
}

void FaultInjector::Arm(gline::HierarchicalBarrierNetwork& net) {
  net.SetLineFaultHook([this](const gline::GLine& line, std::uint32_t count) {
    return AdjustCount(line, count);
  });
  net.SetArrivalFaultHook([this](CoreId core) { return FreezeDelay(core); });
}

void FaultInjector::Arm(noc::Mesh& mesh) {
  mesh.SetFaultHook([this](const noc::Packet& pkt) { return LinkPenalty(pkt); });
}

bool FaultInjector::ConsumeScript(FaultSite site, const std::string& target,
                                  std::int32_t* magnitude) {
  for (std::size_t i = 0; i < plan_.script.size(); ++i) {
    if (script_fired_[i]) continue;
    const ScriptedFault& f = plan_.script[i];
    if (f.site != site || f.cycle > engine_.Now()) continue;
    if (!f.target.empty() && target.find(f.target) == std::string::npos) continue;
    script_fired_[i] = true;
    *magnitude = f.magnitude;
    return true;
  }
  return false;
}

std::uint32_t FaultInjector::AdjustCount(const gline::GLine& line,
                                         std::uint32_t count) {
  std::int32_t mag = 0;
  auto skewed = [&](std::int64_t delta) {
    const std::int64_t v = static_cast<std::int64_t>(count) + delta;
    return static_cast<std::uint32_t>(std::max<std::int64_t>(v, 0));
  };

  if (ConsumeScript(FaultSite::kGlineDrop, line.name(), &mag) ||
      (plan_.gline_drop_rate > 0 && rng_.NextBool(plan_.gline_drop_rate))) {
    gline_drop_->Inc();
    total_->Inc();
    GLB_TRACE(engine_.Now(), "fault", "drop assertion on " << line.name());
    count = skewed(-1);
  }
  if (ConsumeScript(FaultSite::kGlineDuplicate, line.name(), &mag) ||
      (plan_.gline_dup_rate > 0 && rng_.NextBool(plan_.gline_dup_rate))) {
    gline_dup_->Inc();
    total_->Inc();
    GLB_TRACE(engine_.Now(), "fault", "duplicate assertion on " << line.name());
    count = skewed(+1);
  }
  mag = 0;
  bool corrupt = ConsumeScript(FaultSite::kCsmaCorrupt, line.name(), &mag);
  if (!corrupt && plan_.csma_corrupt_rate > 0 &&
      rng_.NextBool(plan_.csma_corrupt_rate)) {
    corrupt = true;
  }
  if (corrupt) {
    std::int32_t skew = mag;
    if (skew == 0) {
      // Uniform nonzero skew in [-max_skew, +max_skew].
      const auto k = static_cast<std::int32_t>(
          rng_.NextInRange(1, std::max(plan_.csma_max_skew, 1u)));
      skew = rng_.NextBool(0.5) ? k : -k;
    }
    csma_corrupt_->Inc();
    total_->Inc();
    GLB_TRACE(engine_.Now(), "fault",
              "corrupt S-CSMA count on " << line.name() << " by " << skew);
    count = skewed(skew);
  }
  return count;
}

Cycle FaultInjector::FreezeDelay(CoreId core) {
  std::int32_t mag = 0;
  bool freeze = ConsumeScript(FaultSite::kCoreFreeze, std::to_string(core), &mag);
  if (!freeze && plan_.core_freeze_rate > 0 &&
      rng_.NextBool(plan_.core_freeze_rate)) {
    freeze = true;
  }
  if (!freeze) return 0;
  core_freeze_->Inc();
  total_->Inc();
  const Cycle d = mag > 0 ? static_cast<Cycle>(mag) : plan_.core_freeze_cycles;
  GLB_TRACE(engine_.Now(), "fault", "freeze core " << core << " for " << d);
  return d;
}

Cycle FaultInjector::LinkPenalty(const noc::Packet& pkt) {
  const std::string dst = std::to_string(pkt.dst);
  Cycle penalty = 0;
  std::int32_t mag = 0;
  if (ConsumeScript(FaultSite::kNocDelay, dst, &mag) ||
      (plan_.noc_delay_rate > 0 && rng_.NextBool(plan_.noc_delay_rate))) {
    noc_delay_->Inc();
    total_->Inc();
    penalty += mag > 0 ? static_cast<Cycle>(mag) : plan_.noc_delay_cycles;
  }
  mag = 0;
  if (ConsumeScript(FaultSite::kNocDrop, dst, &mag) ||
      (plan_.noc_drop_rate > 0 && rng_.NextBool(plan_.noc_drop_rate))) {
    // The link CRC catches the corrupted transfer; it is retransmitted
    // after the detection round-trip rather than silently lost.
    noc_drop_->Inc();
    total_->Inc();
    penalty += mag > 0 ? static_cast<Cycle>(mag) : plan_.noc_retransmit_cycles;
  }
  if (penalty > 0) {
    GLB_TRACE(engine_.Now(), "fault",
              "link transfer " << pkt.src << "->" << pkt.dst << " penalized "
                               << penalty);
  }
  return penalty;
}

}  // namespace glb::fault
