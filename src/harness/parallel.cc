#include "harness/parallel.h"

#include <algorithm>
#include <atomic>
#include <thread>

namespace glb::harness {

int NormalizeJobs(int jobs) {
  if (jobs >= 1) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void ParallelFor(std::size_t n, int jobs, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t workers =
      std::min(static_cast<std::size_t>(NormalizeJobs(jobs)), n);
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  const auto worker = [&]() {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      fn(i);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t t = 0; t < workers; ++t) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
}

std::vector<RunMetrics> RunExperimentsParallel(const std::vector<ExperimentSpec>& specs,
                                               int jobs) {
  // A bad size anywhere in the sweep exits before any run starts, not
  // after the runs queued ahead of it.
  for (const ExperimentSpec& spec : specs) {
    ValidateSizeOrExit(*FactoryOf(spec)(), spec.cfg.num_cores());
  }
  std::vector<RunMetrics> results(specs.size());
  ParallelFor(specs.size(), jobs,
              [&](std::size_t i) { results[i] = RunExperiment(specs[i]); });
  return results;
}

}  // namespace glb::harness
