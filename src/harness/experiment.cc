#include "harness/experiment.h"

#include <chrono>

#include <string_view>

#include "common/check.h"
#include "sync/registry.h"

namespace glb::harness {

std::unique_ptr<sync::Barrier> MakeBarrier(BarrierKind kind, cmp::CmpSystem& sys) {
  if (kind == BarrierKind::kGLH) {
    GLB_CHECK(sys.hier() != nullptr)
        << "GLH barrier requested but cfg.hier.enabled was false";
  }
  sync::BarrierEnv env;
  env.alloc = &sys.allocator();
  env.mesh = &sys.mesh();
  env.stats = &sys.stats();
  env.participants = sys.num_cores();
  // One counting cluster per mesh row keeps each cluster's counter
  // line within the row that hammers it (kGALOIS/kTUNED).
  env.cluster_cols = sys.config().cols;
  // kHYB's unit at the central tile, minimizing worst-case hop distance.
  env.hyb_home = (sys.config().rows / 2) * sys.config().cols +
                 sys.config().cols / 2;
  return sync::MakeBarrier(kind, env);
}

RunMetrics RunExperiment(const WorkloadFactory& make_workload, BarrierKind kind,
                         const cmp::CmpConfig& cfg, Cycle max_cycles) {
  cmp::CmpConfig run_cfg = cfg;
  // Selecting the hierarchical barrier implies building it.
  if (kind == BarrierKind::kGLH) run_cfg.hier.enabled = true;
  cmp::CmpSystem sys(run_cfg);
  auto workload = make_workload();
  workload->Init(sys);
  auto barrier = MakeBarrier(kind, sys);

  const auto t0 = std::chrono::steady_clock::now();
  const sim::RunStatus status = sys.RunProgramsStatus(
      [&](core::Core& core, CoreId id) { return workload->Body(core, id, *barrier); },
      max_cycles);
  const std::chrono::duration<double, std::milli> wall =
      std::chrono::steady_clock::now() - t0;
  return CollectMetrics(sys, status, *workload, ToString(kind), wall.count());
}

RunMetrics CollectMetrics(cmp::CmpSystem& sys, const sim::RunStatus& status,
                          workloads::Workload& workload, const std::string& barrier_name,
                          double wall_ms) {
  RunMetrics m = CollectSystemMetrics(sys, status, wall_ms);
  m.workload = workload.name();
  m.barrier = barrier_name;
  m.validation = m.completed ? workload.Validate(sys) : m.stall;
  return m;
}

RunMetrics CollectSystemMetrics(cmp::CmpSystem& sys, const sim::RunStatus& status,
                                double wall_ms) {
  RunMetrics m;
  m.cores = sys.num_cores();
  m.completed = status.idle;
  m.stall = status.DescribeStall();

  m.cycles = sys.LastFinish();
  const std::uint64_t total_arrivals = sys.stats().CounterValue("core.barriers");
  m.barriers = total_arrivals / sys.num_cores();
  m.barrier_period =
      m.barriers == 0 ? 0.0
                      : static_cast<double>(m.cycles) / static_cast<double>(m.barriers);
  m.breakdown = sys.TotalBreakdown();
  m.msgs_request = sys.stats().CounterValue("noc.msgs.request");
  m.msgs_reply = sys.stats().CounterValue("noc.msgs.reply");
  m.msgs_coherence = sys.stats().CounterValue("noc.msgs.coherence");
  m.host_events = sys.engine().events_processed();
  m.wall_ms = wall_ms;
  m.events_per_sec =
      wall_ms > 0.0 ? static_cast<double>(m.host_events) / (wall_ms / 1000.0) : 0.0;
  m.faults_injected = sys.stats().CounterValue("fault.injected");
  m.barrier_timeouts = sys.stats().CounterValue("gl.timeouts");
  m.barrier_retries = sys.stats().CounterValue("gl.retries");
  m.degraded_episodes = sys.stats().CounterValue("gl.degraded_episodes");
  m.barrier_probes = sys.stats().CounterValue("gl.probes");
  m.barrier_rejoins = sys.stats().CounterValue("gl.rejoins");
  if (sys.hier() != nullptr) {
    // Hier mode: fold in the per-node aggregates from every level.
    m.barrier_timeouts += sys.hier()->AggregateCounter("timeouts");
    m.barrier_retries += sys.hier()->AggregateCounter("retries");
    m.degraded_episodes += sys.hier()->AggregateCounter("degraded_episodes");
    m.barrier_probes += sys.hier()->AggregateCounter("probes");
    m.barrier_rejoins += sys.hier()->AggregateCounter("rejoins");
  }
  // TUNED echo: the decision lands in the stats as
  // sync.tuned.choice.<NAME> (exactly one, bumped once by core 0).
  sys.stats().ForEachCounter([&m](const std::string& name, const Counter& c) {
    constexpr std::string_view kPrefix = "sync.tuned.choice.";
    if (c.value() > 0 && std::string_view(name).substr(0, kPrefix.size()) == kPrefix) {
      m.tuned_choice = name.substr(kPrefix.size());
    }
  });
  m.tuned_measured_period = sys.stats().CounterValue("sync.tuned.measured_period");
  m.tuned_warmup_episodes = sys.stats().CounterValue("sync.tuned.warmup_episodes");
  return m;
}

}  // namespace glb::harness
