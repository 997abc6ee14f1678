#include "harness/tenants.h"

#include <algorithm>
#include <chrono>
#include <string_view>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "harness/parallel.h"

namespace glb::harness {

namespace {

/// Non-member cores run an empty program: they are done at cycle 0 and
/// contribute nothing to any counter or breakdown.
core::Task IdleProgram() { co_return; }

bool StragglerOnly(const fault::FaultPlan& f) {
  return f.gline_drop_rate == 0 && f.gline_dup_rate == 0 &&
         f.csma_corrupt_rate == 0 && f.core_freeze_rate == 0 &&
         f.noc_delay_rate == 0 && f.noc_drop_rate == 0 && f.script.empty();
}

/// Per-rank compute stretch factors, mirroring the chip injector's
/// ConfigureCompute: hash-derived slow picks (order-independent) plus
/// the deterministic work-skew ramp — but keyed by tenant-local rank,
/// so a tenant's straggler pattern travels with it across resizes.
std::vector<double> StragglerFactors(const fault::FaultPlan& plan,
                                     std::uint32_t n) {
  std::vector<double> factors(n, 1.0);
  for (std::uint32_t rank = 0; rank < n; ++rank) {
    double f = 1.0;
    if (plan.core_slow_rate > 0) {
      Rng pick(plan.seed ^ (0x9E3779B97F4A7C15ull * (rank + 1)));
      if (pick.NextDouble() < plan.core_slow_rate) f *= plan.core_slow_factor;
    }
    if (plan.work_skew > 0 && n > 1) {
      f *= 1.0 + plan.work_skew * static_cast<double>(rank) /
                     static_cast<double>(n - 1);
    }
    factors[rank] = f;
  }
  return factors;
}

/// Joins per-tenant labels for the chip-level RunMetrics fields.
std::string JoinLabels(const std::vector<TenantMetrics>& tenants,
                       const std::function<std::string(const TenantMetrics&)>& f) {
  std::string out;
  for (const TenantMetrics& t : tenants) {
    if (!out.empty()) out += "+";
    out += f(t);
  }
  return out;
}

}  // namespace

std::string ValidateRunSpec(const RunSpec& spec) {
  if (spec.tenants.empty()) return "RunSpec needs at least one tenant";
  for (std::size_t i = 0; i < spec.tenants.size(); ++i) {
    const TenantSpec& t = spec.tenants[i];
    cmp::TenantConfig tc;
    tc.name = t.name;
    tc.rect = t.rect;
    tc.barrier = t.barrier;
    tc.max_transmitters = t.max_transmitters;
    std::string why = cmp::ValidateTenantConfig(tc, spec.cfg);
    if (!why.empty()) return why;
    if (!t.factory) {
      const auto workload = MakeWorkload(t.workload, t.scale);
      if (workload == nullptr) {
        return "tenant '" + t.name + "': unknown workload '" + t.workload + "'";
      }
      why = workload->ValidateConfig(t.rect.num_cores());
      if (!why.empty()) return "tenant '" + t.name + "': " + why;
    }
    if (!StragglerOnly(t.fault)) {
      return "tenant '" + t.name +
             "': tenant fault plans support only the straggler knobs "
             "(core_slow_rate/core_slow_factor/work_skew); chip-wide "
             "campaigns belong in the run's fault plan";
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (spec.tenants[j].name == t.name) {
        return "duplicate tenant name '" + t.name + "'";
      }
      if (spec.tenants[j].rect.Overlaps(t.rect)) {
        return "rect " + t.rect.ToString() + " of tenant '" + t.name +
               "' overlaps tenant '" + spec.tenants[j].name + "' (" +
               spec.tenants[j].rect.ToString() + ")";
      }
    }
  }
  return "";
}

MultiRunMetrics RunTenantsOn(cmp::CmpSystem& sys, const RunSpec& spec) {
  const std::string why = ValidateRunSpec(spec);
  GLB_CHECK(why.empty()) << why;
  GLB_CHECK(sys.config().rows == spec.cfg.rows &&
            sys.config().cols == spec.cfg.cols)
      << "RunTenantsOn: system geometry does not match spec.cfg";

  cmp::PartitionManager pm(sys);
  struct Live {
    const TenantSpec* ts = nullptr;
    cmp::Tenant* tenant = nullptr;
    std::unique_ptr<workloads::Workload> workload;
  };
  std::vector<Live> live;
  live.reserve(spec.tenants.size());
  for (const TenantSpec& ts : spec.tenants) {
    cmp::TenantConfig tc;
    tc.name = ts.name;
    tc.rect = ts.rect;
    tc.barrier = ts.barrier;
    tc.max_transmitters = ts.max_transmitters;
    std::string err;
    cmp::Tenant* tenant = pm.Create(tc, &err);
    GLB_CHECK(tenant != nullptr) << err;

    Live l;
    l.ts = &ts;
    l.tenant = tenant;
    l.workload = ts.factory ? ts.factory() : MakeWorkload(ts.workload, ts.scale);
    GLB_CHECK(l.workload != nullptr)
        << "unknown workload '" << ts.workload << "'";
    l.workload->BindParticipants(tenant->num_cores());
    l.workload->Init(sys);

    if (ts.fault.stragglers()) {
      const std::vector<double> factors =
          StragglerFactors(ts.fault, tenant->num_cores());
      for (std::uint32_t rank = 0; rank < tenant->num_cores(); ++rank) {
        const double f = factors[rank];
        if (f == 1.0) continue;
        sys.core(tenant->GlobalId(rank))
            .SetComputeFaultHook([f](CoreId, Cycle cycles) {
              return static_cast<Cycle>(static_cast<double>(cycles) * f + 0.5);
            });
      }
    }
    live.push_back(std::move(l));
  }

  const auto t0 = std::chrono::steady_clock::now();
  const sim::RunStatus status = sys.RunProgramsStatus(
      [&](core::Core& core, CoreId id) -> core::Task {
        for (Live& l : live) {
          if (l.tenant->Contains(id)) {
            return l.workload->Body(core, l.tenant->RankOf(id),
                                    l.tenant->barrier());
          }
        }
        return IdleProgram();
      },
      spec.max_cycles);
  const std::chrono::duration<double, std::milli> wall =
      std::chrono::steady_clock::now() - t0;

  MultiRunMetrics mm;
  mm.run = CollectSystemMetrics(sys, status, wall.count());
  mm.tenants.reserve(live.size());
  for (Live& l : live) {
    const cmp::Tenant& t = *l.tenant;
    TenantMetrics tm;
    tm.name = t.name();
    tm.rect = t.rect();
    tm.workload = l.workload->name();
    tm.barrier = ToString(l.ts->barrier);
    tm.cores = t.num_cores();
    tm.waits = t.barrier_waits();
    tm.barriers = tm.cores > 0 ? tm.waits / tm.cores : 0;
    tm.wait_cycles = t.wait_cycles();  // quiescent value snapshot
    for (std::uint32_t rank = 0; rank < t.num_cores(); ++rank) {
      const CoreId g = l.tenant->GlobalId(rank);
      const core::Core& core = sys.core(g);
      tm.breakdown += core.breakdown();
      tm.finished_at = std::max(tm.finished_at, core.finished_at());
      tm.router_flits += sys.mesh().RouterFlits(g);
    }
    // G-line signals of the tenant's private network (flat: one
    // counter; hierarchical: one per node per level).
    const std::string sig_prefix = t.stat_prefix() + ".";
    sys.stats().ForEachCounter(
        [&](const std::string& name, const Counter& c) {
          constexpr std::string_view kSuffix = ".signals";
          const std::string_view n(name);
          if (n.substr(0, sig_prefix.size()) == sig_prefix &&
              n.size() >= kSuffix.size() &&
              n.substr(n.size() - kSuffix.size()) == kSuffix) {
            tm.gline_signals += c.value();
          }
        });
    tm.validation = status.idle ? l.workload->Validate(sys) : mm.run.stall;
    mm.tenants.push_back(std::move(tm));
  }

  mm.run.workload = JoinLabels(mm.tenants, [](const TenantMetrics& t) {
    return t.name + ":" + t.workload;
  });
  mm.run.barrier = JoinLabels(mm.tenants, [](const TenantMetrics& t) {
    return t.barrier;
  });
  std::string validation;
  for (const TenantMetrics& t : mm.tenants) {
    if (t.validation.empty()) continue;
    if (!validation.empty()) validation += "; ";
    validation += t.name + ": " + t.validation;
  }
  mm.run.validation = validation;
  return mm;
}

MultiRunMetrics RunTenants(const RunSpec& spec) {
  const std::string why = ValidateRunSpec(spec);
  GLB_CHECK(why.empty()) << why;
  cmp::CmpSystem sys(spec.cfg);
  return RunTenantsOn(sys, spec);
}

std::vector<MultiRunMetrics> RunTenantsParallel(
    const std::vector<RunSpec>& specs, int jobs) {
  std::vector<MultiRunMetrics> results(specs.size());
  ParallelFor(specs.size(), jobs,
              [&](std::size_t i) { results[i] = RunTenants(specs[i]); });
  return results;
}

}  // namespace glb::harness
