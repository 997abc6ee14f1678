#include "harness/experiment.h"

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <mutex>
#include <string_view>

#include "common/check.h"
#include "sync/registry.h"

namespace glb::harness {

std::unique_ptr<sync::Barrier> MakeBarrier(BarrierKind kind, cmp::CmpSystem& sys) {
  GLB_CHECK(kind != BarrierKind::kGLH || sys.config().hier.enabled)
      << "GLH barrier requested but cfg.hier.enabled was false";
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

void ValidateSizeOrExit(const workloads::Workload& workload, std::uint32_t cores) {
  if (const std::string why = workload.ValidateConfig(cores); !why.empty()) {
    // Diagnosed like a bad flag. Sweeps land here from worker threads:
    // the first to fail reports, and no exit handler runs under the rest.
    static std::mutex report;
    report.lock();
    std::cout.flush();
    std::cerr << "bad workload size: " << why << "\n";
    std::_Exit(2);
  }
}

RunMetrics RunExperiment(const WorkloadFactory& make_workload, BarrierKind kind,
                         const cmp::CmpConfig& cfg, Cycle max_cycles) {
  auto workload = make_workload();
  ValidateSizeOrExit(*workload, cfg.num_cores());
  cmp::CmpSystem sys(cfg.ForBarrier(kind));
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
  const gline::HierarchicalBarrierNetwork& gl = sys.gline();
  m.barrier_timeouts = gl.AggregateCounter("timeouts");
  m.barrier_retries = gl.AggregateCounter("retries");
  m.degraded_episodes = gl.AggregateCounter("degraded_episodes");
  m.barrier_probes = gl.AggregateCounter("probes");
  m.barrier_rejoins = gl.AggregateCounter("rejoins");
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
