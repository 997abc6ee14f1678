#!/usr/bin/env bash
# Gatekeeper: build the default and sanitizer configurations and run the
# full test suite under both, then prove the --jobs parallel sweep
# runner race-free under ThreadSanitizer. Every test gets a per-test
# timeout so a hung simulation fails loudly instead of wedging CI.
#
#   scripts/check.sh            # default + asan + tsan sweep
#   scripts/check.sh --fast     # default only
set -euo pipefail
cd "$(dirname "$0")/.."

PRESETS=(default asan)
RUN_TSAN=1
if [ "${1:-}" = "--fast" ]; then
  PRESETS=(default)
  RUN_TSAN=0
fi

for preset in "${PRESETS[@]}"; do
  echo "=== configure+build+test [$preset] ==="
  cmake --preset "$preset"
  cmake --build --preset "$preset" -j
  ctest --preset "$preset" -j "$(nproc)"
  if [ "$preset" = default ]; then
    # Where the gate's wall-clock goes: the five slowest tests of this
    # pass, read back from ctest's log.
    echo "--- five slowest tests [$preset] ---"
    awk '/^[0-9]+\/[0-9]+ Test: / { sub(/^[0-9]+\/[0-9]+ Test: /, ""); name = $0 }
         /^Test time =/ { printf "%8.2f s  %s\n", $4, name }' \
      build/Testing/Temporary/LastTest.log | sort -rn | awk 'NR <= 5'
  fi
done

# Hierarchical smoke: the full fig5 --hier sweep (64/256/1024 cores,
# latency + wire-count curves), so a regression in the multi-level
# network fails the gate even though the figures themselves are only
# rebuilt on demand. The gl-hier fault campaign is a ctest
# (FaultCampaign.Hier).
echo "=== gl-hier sweep ==="
./build/bench/fig5_barrier_latency --hier --jobs "$(nproc)" > /dev/null

# Scaling-study smoke: one bounded 256-core point through the fig6/fig7
# --scale sweeps — EM3D on the hierarchical network with the weak-scaled
# input and a small step count, so the name-addressed sweep path and the
# 256-core machine stay green without figure-scale runtimes.
echo "=== 256-core scaling smoke ==="
./build/bench/fig6_exec_breakdown --scale --cores 256 --barrier gl-hier \
  --workloads EM3D --em3d-steps 2 --jobs 2 > /dev/null
./build/bench/fig7_network_traffic --scale --cores 256 --barrier gl-hier \
  --workloads EM3D --em3d-steps 2 --jobs 2 > /dev/null

# Self-healing v2 smoke: the straggler+rejoin fuzz under ASan (the asan
# ctest pass runs it too; this filtered rerun keeps the gate loud even
# if test labels move) and a bounded straggler ablation whose
# glb.straggler manifest is left in the tree for CI to publish.
echo "=== straggler resilience smoke ==="
if [ -x ./build-asan/tests/gline_fault_fuzz_test ]; then
  ./build-asan/tests/gline_fault_fuzz_test \
    --gtest_filter='*Straggler*:*Rejoin*' > /dev/null
fi
rm -f BENCH_straggler.json
./build/bench/ablate_straggler --cores 64 --iters 10 \
  --jobs "$(nproc)" --json BENCH_straggler.json > /dev/null

# EM3D smoke: a bounded 64-core gl-hier EM3D run must reproduce the
# checked-in glb.run baseline exactly (deterministic fields only), so
# any drift in the NoC, coherence or hierarchical-barrier timing of a
# remote-read-heavy workload is a hard failure on any machine.
echo "=== EM3D smoke ==="
rm -f BENCH_em3d_gate.json
./build/tools/glbsim --workload EM3D --barrier GLH --cores 64 \
  --scale-cores 64 --em3d-steps 3 --json BENCH_em3d_gate.json > /dev/null
./build/tools/glb_bench_diff --no-time \
  bench/baselines/em3d_smoke.json BENCH_em3d_gate.json

# Observability + perf-regression gate (docs/OBSERVABILITY.md):
#  1. the bounded fig5 sweeps must reproduce the checked-in baseline
#     EXACTLY — every fig5 field is deterministic simulated output, so
#     --no-time makes any drift a hard failure on any machine;
#  2. a micro_engine self-diff must pass clean AND must fail once a
#     synthetic 10% regression is injected (proves the gate can fire);
#  3. a 64-core GLH straggler run with the interval sampler on: its
#     glb.timeseries row must show the adaptive watchdog above its
#     configured floor and at least one hardware rejoin (the artifact CI
#     publishes), and glb_report must render the whole file.
echo "=== observability + perf-regression gate ==="
rm -f BENCH_fig5_smoke.json
./build/bench/fig5_barrier_latency --max-cores 8 \
  --json BENCH_fig5_smoke.json > /dev/null
./build/bench/fig5_barrier_latency --hier --hier-max-cores 64 \
  --json BENCH_fig5_smoke.json > /dev/null
./build/tools/glb_bench_diff --no-time \
  bench/baselines/fig5_smoke.json BENCH_fig5_smoke.json

./build/bench/micro_engine --benchmark_filter='BM_EngineScheduleRun/1024' \
  --benchmark_format=json --benchmark_min_time=0.05 \
  > BENCH_micro_smoke.json 2> /dev/null
./build/tools/glb_bench_diff BENCH_micro_smoke.json BENCH_micro_smoke.json
if ./build/tools/glb_bench_diff --time-threshold 0.05 --inject-regression 10 \
    BENCH_micro_smoke.json BENCH_micro_smoke.json > /dev/null; then
  echo "FAIL: glb_bench_diff did not flag an injected regression" >&2
  exit 1
fi

# Barrier-zoo smoke: every zoo barrier completes and validates through
# glbsim at a non-power-of-two core count; a tuned run must echo the
# decision-table choice for its measured period into the manifest
# (64-core tight Synthetic measures a DSW warmup period < 2500 cycles,
# so the table says RDBL); and a bounded crossover cell plus a fig5
# --scale sweep over the whole zoo are gated byte-exactly against the
# checked-in glb.zoo/glb.fig5_scale baseline. CI publishes the manifest.
echo "=== barrier-zoo smoke ==="
for b in rdbl galois-fast; do
  ./build/tools/glbsim --workload Synthetic --barrier "$b" --cores 48 \
    --synthetic-iters 20 > /dev/null
done
rm -f BENCH_tuned_smoke.json
./build/tools/glbsim --workload Synthetic --barrier tuned --cores 64 \
  --synthetic-iters 30 --json BENCH_tuned_smoke.json > /dev/null
grep -q '"choice":"RDBL"' BENCH_tuned_smoke.json || {
  echo "FAIL: tuned manifest does not echo the expected RDBL choice" >&2
  exit 1; }
rm -f BENCH_zoo_smoke.json
./build/bench/ablate_barrier_zoo --cores 16 --periods 0 --episodes 10 \
  --jobs "$(nproc)" --json BENCH_zoo_smoke.json > /dev/null
./build/bench/fig5_barrier_latency --scale --cores 16 \
  --barrier rdbl,galois-fast,tuned \
  --jobs "$(nproc)" --json BENCH_zoo_smoke.json > /dev/null
./build/tools/glb_bench_diff --no-time \
  bench/baselines/zoo_smoke.json BENCH_zoo_smoke.json

# Multi-tenant smoke (DESIGN.md §9): a two-tenant space-shared glbsim
# run must complete, validate, and render through glb_report (tenants[]
# blocks included); a bounded isolation ablation is gated byte-exactly
# against the checked-in glb.tenants baseline — every cell metric is
# simulated output, so any drift in tenant admission, rect-local
# network construction, or the shared-fabric model is a hard failure.
# CI publishes the manifest.
echo "=== multi-tenant smoke ==="
rm -f BENCH_tenants_glbsim_gate.json
./build/tools/glbsim --cores 64 --synthetic-iters 20 \
  --tenant fg:8x4:Synthetic:GLH --tenant bg:8x4@0,4:Synthetic:RDBL \
  --json BENCH_tenants_glbsim_gate.json > /dev/null
grep -q '"tenants":' BENCH_tenants_glbsim_gate.json || {
  echo "FAIL: multi-tenant manifest carries no tenants[] block" >&2
  exit 1; }
./build/tools/glb_report BENCH_tenants_glbsim_gate.json > /dev/null
rm -f BENCH_tenants_smoke_gate.json
./build/bench/ablate_tenants --cores 16 --iters 10 --ops 0,16 \
  --jobs "$(nproc)" --json BENCH_tenants_smoke_gate.json > /dev/null
./build/tools/glb_report BENCH_tenants_smoke_gate.json > /dev/null
./build/tools/glb_bench_diff --no-time \
  bench/baselines/tenants_smoke.json BENCH_tenants_smoke_gate.json

rm -f BENCH_straggler_obs.json
./build/tools/glbsim --workload Synthetic --barrier GLH --cores 64 \
  --synthetic-iters 80 --fault_watchdog 40 --fault_watchdog_mult 8 \
  --fault_retries 0 --fault_probe_after 2 --fault_slow 0.05 \
  --fault_slow_factor 4 --fault_script "600:gline_drop:l0.c0." \
  --sample-interval 200 --heatmap --profile \
  --json BENCH_straggler_obs.json > /dev/null
grep -q '"glh.l0.c0.rejoins":1' BENCH_straggler_obs.json || {
  echo "FAIL: straggler timeseries shows no hardware rejoin" >&2; exit 1; }
grep -q '"glh.l0.c0.watchdog_window":5' BENCH_straggler_obs.json || {
  echo "FAIL: adaptive watchdog never rose above its 40-cycle floor" >&2
  exit 1; }
./build/tools/glb_report BENCH_straggler_obs.json > /dev/null

# Host-performance benchmark self-test (perfbench/README.md): tiny
# variants of every workload must print every BENCHMARK.json metric,
# keep traced and untraced counts and digests equal, and survive a
# forced stall at a tiny --max-cycles (on ocean-dsw-64 that stops the
# run with spinning cores parked in the engine). Builds .bench_build/.
echo "=== perfbench self-test ==="
python3 perfbench/selftest.py > /dev/null

if [ "$RUN_TSAN" = "1" ]; then
  # The tsan preset builds only the bench/tool binaries; the sweeps
  # below exercise the ParallelFor pool exactly the way the figure and
  # campaign harnesses use it. halt_on_error makes the first race fatal.
  echo "=== tsan parallel sweeps ==="
  cmake --preset tsan
  cmake --build --preset tsan -j -t fault_campaign -t fig5_barrier_latency \
    -t ablate_straggler
  TSAN_OPTIONS=halt_on_error=1 \
    ./build-tsan/bench/fault_campaign --seeds 6 --episodes 10 --jobs 4 > /dev/null
  TSAN_OPTIONS=halt_on_error=1 \
    ./build-tsan/bench/fault_campaign --barrier gl-hier --seeds 3 --episodes 6 \
      --jobs 4 > /dev/null
  TSAN_OPTIONS=halt_on_error=1 \
    ./build-tsan/bench/ablate_straggler --cores 64 --iters 5 --jobs 4 > /dev/null
  TSAN_OPTIONS=halt_on_error=1 \
    ./build-tsan/bench/fig5_barrier_latency --max-cores 8 --jobs 4 > /dev/null
  TSAN_OPTIONS=halt_on_error=1 \
    ./build-tsan/bench/fig5_barrier_latency --hier --hier-max-cores 256 \
      --jobs 4 > /dev/null
fi

echo "check.sh: all configurations green"
