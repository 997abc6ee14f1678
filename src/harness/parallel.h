// Deterministic parallel execution of independent experiment runs.
//
// Figure/table sweeps and fault campaigns run many completely
// independent simulations (each builds its own Engine, CmpSystem,
// StatSet and RNGs). RunExperimentsParallel fans them out over a fixed
// pool of --jobs threads while keeping every observable output
// identical to a serial run: work is handed out in submission order
// from a shared cursor (no stealing, no shared mutable simulation
// state) and results land in a submission-order-indexed vector, so
// tables, CSV and JSON artifacts are byte-identical regardless of the
// jobs value or thread timing. Wall-clock is the only thing that
// changes. See docs/PERFORMANCE.md.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "cmp/cmp_system.h"
#include "common/types.h"
#include "harness/experiment.h"
#include "harness/spec.h"

namespace glb::harness {

/// Canonicalizes a --jobs flag value: values < 1 mean "all hardware
/// threads"; the result is always >= 1.
int NormalizeJobs(int jobs);

/// Runs fn(i) for every i in [0, n) across min(jobs, n) threads and
/// returns when all indices completed. Indices are claimed in
/// submission order from one atomic cursor. fn must confine itself to
/// per-index state (element i of a pre-sized results vector is fine;
/// growing a shared container is not). With jobs <= 1 the calls happen
/// inline on the calling thread.
void ParallelFor(std::size_t n, int jobs, const std::function<void(std::size_t)>& fn);

/// Runs every spec via RunExperiment and returns results indexed in
/// submission order. Each run is fully self-contained; nothing is
/// shared across threads, which the TSan job in scripts/check.sh
/// verifies.
std::vector<RunMetrics> RunExperimentsParallel(const std::vector<ExperimentSpec>& specs,
                                               int jobs);

}  // namespace glb::harness
