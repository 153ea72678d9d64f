#!/usr/bin/env bash
# Single-command CI driver: configure -> build -> tier1 tests -> golden
# traces -> crash-resume recovery (in-process suite plus a scripted
# kill-mid-run + resume + trajectory-diff smoke) -> fsync economy of a
# checkpointed run (LD_PRELOAD call counter) -> serve-layer soak
# (multi-tenant multiplex + scheduler kill/resume) -> fleet chaos tier
# (replay equivalence + kill/resume under injected fleet faults +
# CLI digest identity across worker counts) -> kernel-bench
# baseline gate -> lint (baseline diff + SARIF artifact) -> TSan sweep
# of the concurrency-heavy suites -> ASan/UBSan sweep of the kernel,
# expectation, journal/snapshot decoder and recovery suites. This is
# the gate every change must pass; it mirrors what the presets do
# individually, in the order that fails fastest.
#
# Usage: tools/ci.sh [--with-coverage]
#
#   --with-coverage   additionally build the instrumented tree, rerun
#                     tier1 on it and print a line-coverage summary
#                     (uses gcovr/llvm-cov/gcov, whichever exists).
#
# Exits non-zero on the first failing stage.

set -euo pipefail

repo_root=$(cd "$(dirname "$0")/.." && pwd)
cd "$repo_root"

with_coverage=0
for arg in "$@"; do
    case "$arg" in
      --with-coverage) with_coverage=1 ;;
      *) echo "usage: tools/ci.sh [--with-coverage]" >&2; exit 2 ;;
    esac
done

jobs=$(nproc 2>/dev/null || echo 4)

stage() { echo; echo "=== ci: $1 ==="; }

stage "configure (preset: default)"
cmake --preset default

stage "build (-j$jobs)"
cmake --build --preset default -j "$jobs"

stage "tier1 test gate"
ctest --preset tier1

stage "kernel determinism cross-checks (scalar kernels; 4 worker threads)"
# The SIMD/parallel kernel battery and the batched-expectation
# equivalence suites re-run with the AVX2 path disabled and again with
# 4 intra-state workers — both must be bit-identical to the default
# run (the simd-off / tier1-threads presets run the whole tier; CI
# keeps this bounded by re-running just the kernel/expectation suites
# and the golden replays). The 4-worker leg also reruns the prepared-
# point reuse suite and the whole-trajectory determinism suite, whose
# job fan-out reads the executor's kept points from pool threads.
# Both legs rerun the shot loop's exactness battery (ShotSamplerExact);
# its sampleBatch cases fan out over the global executor. Both also
# rerun the Table-1 known answers (bind pools, prepared states and
# prepared points of all six apps, pinned digests) and the bind
# battery (CompiledCircuit::bind against the slot-evaluation oracle),
# and the one whole-run pin of Sampling mode
# (GoldenTraces.TfimVqeSampling), whose groups fan out over the
# executor; the golden replays matched by 'Kernel' run Analytic only.
# 'BatchedExpectation' includes the lane-layout cases of the expectation
# battery (widths 1-14 at 1/2/4/8 threads among them), and both legs
# rerun the warm-job and warm-run allocation counts (WarmJobAllocations,
# WarmRunAllocations), which must read the same at either setting.
# 'Kernel' also matches the unit cores' every-sub-range battery
# (KernelSubRangeTest); RzPhases pins the sincos symmetry bind relies
# on. The rest are the selection quantile, the Poisson draw with a
# supplied exp, readFile, and the decoders' range checks.
QISMET_SIMD=off ctest --test-dir build \
    -R 'Kernel|Threshold|BatchedExpectation|ExpectationPlan|ShotSamplerExact|Table1KnownAnswer|BindEquivalence|RzPhases|WarmJobAllocations|WarmRunAllocations|Quantile|PoissonWithSuppliedExp|ReadFile|OutOfRange|LoadStateRefuses|DecodeRejectsHostile|GoldenTraces\.TfimVqeSampling' \
    --output-on-failure -j 8
QISMET_THREADS=4 ctest --test-dir build \
    -R 'Kernel|Threshold|BatchedExpectation|ExpectationPlan|ShotSamplerExact|Table1KnownAnswer|BindEquivalence|RzPhases|PreparedPointReuse|ParallelDeterminism|WarmJobAllocations|WarmRunAllocations|Quantile|PoissonWithSuppliedExp|ReadFile|OutOfRange|LoadStateRefuses|DecodeRejectsHostile|GoldenTraces\.TfimVqeSampling' \
    --output-on-failure -j 8

stage "golden-trace regression suite"
ctest --preset golden

stage "crash-resume recovery suite"
ctest --preset recovery

stage "kill-mid-run + resume smoke (real process death)"
ckpt_root=$(mktemp -d)
trap 'rm -rf "$ckpt_root"' EXIT
smoke=./build/examples/checkpoint_resume
smoke_args=(--app 1 --jobs 120 --faults --seed 23)
want=$("$smoke" "${smoke_args[@]}" --threads 4 | head -1)
# Three legs, each "cadence iterations-before-the-kill". Cadence 1
# killed after 6 iterations dies right after handing a snapshot to the
# committer thread, so the process ends at some point of that commit:
# recovery resumes from the last snapshot whose commit finished.
# Cadence 4 killed after 6 dies two iterations past the last snapshot:
# the frames behind the crash were still in memory, never written, and
# the resume re-executes them. Cadence 4 killed after 1 dies while the
# run's first commit may still be in flight: the logs may hold only
# their headers, and the resume then restarts from scratch.
for leg in "1 6" "4 6" "4 1"; do
    read -r cadence after <<< "$leg"
    ckpt_dir="$ckpt_root/every-$cadence-after-$after"
    # The kill leg must die with the crash exit code, not finish.
    set +e
    "$smoke" "${smoke_args[@]}" --threads 4 --snapshot-every "$cadence" \
        --checkpoint-dir "$ckpt_dir" --crash-after-iters "$after"
    kill_status=$?
    set -e
    if [[ $kill_status -ne 43 ]]; then
        echo "ci: kill leg (cadence $cadence, after $after) exited" \
            "$kill_status, expected 43" >&2
        exit 1
    fi
    # Resume on a different thread count; the trajectory digest must
    # match the uninterrupted run bit for bit.
    got=$("$smoke" "${smoke_args[@]}" --threads 2 \
        --snapshot-every "$cadence" --checkpoint-dir "$ckpt_dir" \
        --resume | head -1)
    if [[ "$got" != "$want" ]]; then
        echo "ci: resumed digest '$got' (cadence $cadence, after" \
            "$after) != straight-run digest '$want'" >&2
        exit 1
    fi
    echo "resume digest (snapshot every $cadence, killed after $after)" \
        "matches straight run: $got"
done

stage "fsync economy of a checkpointed run (LD_PRELOAD counter)"
# A process-death test cannot see a missing or a redundant fsync, so
# count them with the tools/fsync_count.cpp shim. The run takes 18
# snapshots, each one journal fsync and one snapshot-log fsync, plus
# one fsync per log header, less the first snapshot's journal fsync,
# which has nothing to flush: 37. Snapshots are appended, never
# renamed into place: 0 renames. Journal frames are written in one
# batch per commit, not one write each: 2 headers, 17 batches (the
# first snapshot has none) and 18 snapshot frames make 37 writes.
counts=$(LD_PRELOAD=./build/tools/libfsync_count.so "$smoke" \
    --app 1 --jobs 400 --faults --seed 23 --snapshot-every 10 \
    --checkpoint-dir "$ckpt_root/fsync" 2>&1 >/dev/null |
    grep '^fsync_count:' || true)
want_counts="fsync_count: fsync 37 fdatasync 0 rename 0 write 37 pwrite 0"
if [[ "$counts" != "$want_counts" ]]; then
    echo "ci: checkpointed run counted '$counts', expected" \
        "'$want_counts'" >&2
    exit 1
fi
echo "$counts"

stage "serve-layer soak (multiplexed runs + scheduler kill/resume)"
# The `soak` label holds the 1000-run multi-tenant soak (every digest
# equal to its solo execution at 1/2/4/8 workers) and the whole-process
# kill(exit 43)+resume script over the serve_soak CLI. The bounded
# tier1 stand-in (ServeSoak.SoakSmoke) already ran in the tier1 gate;
# this stage runs the full thing — about a minute.
ctest --preset soak

stage "fleet chaos tier (replay equivalence + kill/resume under faults)"
# The `chaos` label holds the fast fleet-resilience suite, the replay
# equivalence battery (same per-job outcome table at every worker
# count; golden workloads bit-identical through a hostile fleet) and
# the whole-process kill(exit 43)+resume script over the serve_chaos
# CLI, which dies inside a backend-outage window and must reproduce
# the uninterrupted table on resume.
ctest --preset chaos

stage "serve_chaos digest identity across worker counts"
# Belt and braces on top of the gtest replay suite: the CLI itself,
# driven exactly as an operator would, must print byte-identical
# per-job tables at 1, 2 and 4 workers under the same chaos schedule.
chaos_dir=$(mktemp -d)
trap 'rm -rf "$ckpt_root" "$chaos_dir"' EXIT
chaos_cli=./build/tools/serve_chaos
chaos_args=(--runs 24 --jobs 8 --seed 2026 --chaos-seed 99 --queue-bound 12)
"$chaos_cli" "${chaos_args[@]}" --workers 1 --digest-out "$chaos_dir/w1.csv"
"$chaos_cli" "${chaos_args[@]}" --workers 2 --digest-out "$chaos_dir/w2.csv"
"$chaos_cli" "${chaos_args[@]}" --workers 4 --digest-out "$chaos_dir/w4.csv"
cmp "$chaos_dir/w1.csv" "$chaos_dir/w2.csv"
cmp "$chaos_dir/w1.csv" "$chaos_dir/w4.csv"
echo "serve_chaos outcome tables identical at 1/2/4 workers"

stage "kernel benchmarks vs tracked baseline (BENCH_kernels.json)"
# Short min_time keeps this a smoke-level gate: it catches order-of-
# magnitude regressions (a dropped fusion path, an allocation in the
# Kraus loop), not single-percent drift. Three repetitions feed the
# min-of-N comparison in bench-compare.sh, which rides out scheduling
# and thermal noise on shared CI machines. The committed baseline holds
# the pre-compiled-engine numbers; refresh deliberately with
# tools/bench-compare.sh --update after an intentional perf change.
./build/bench/bench_perf_kernels \
    --benchmark_min_time=0.1 \
    --benchmark_repetitions=3 \
    --benchmark_out_format=json \
    --benchmark_out=build/BENCH_kernels.json
tools/bench-compare.sh BENCH_kernels.json build/BENCH_kernels.json

stage "SIMD kernel speedup gate (>=2x amps/sec at 10+ qubits)"
# The dense-kernel benches carry amps_per_sec counters and run each
# width with simd:0 and simd:1. On AVX2 hosts the vector path must
# deliver at least 2x the scalar Release throughput at 10+ qubits for
# the complex-matrix kernels. The real-matrix kernel only gets a
# no-slower floor: its scalar loop is a plain real butterfly that the
# compiler auto-vectorizes, so the explicit-AVX2 margin is thin and
# memory-bound at large sizes (~1.1-1.6x). On hosts without AVX2 the
# simd:1 rows report the scalar backend and the gate skips itself.
python3 - build/BENCH_kernels.json <<'PY'
import json
import sys

report = json.load(open(sys.argv[1]))
rates = {}
labels = {}
for b in report.get("benchmarks", []):
    if b.get("run_type", "iteration") != "iteration":
        continue
    rate = b.get("amps_per_sec")
    if rate is None:
        continue
    name = b["run_name"]
    # min-of-N on time means max-of-N on throughput.
    rates[name] = max(rate, rates.get(name, 0.0))
    labels[name] = b.get("label", "")

if any(l == "scalar" for n, l in labels.items() if n.endswith("simd:1")):
    print("simd-speedup: host has no AVX2 (simd:1 rows ran scalar); skipping")
    sys.exit(0)

failures = []
gates = {
    "BM_KernelDense1": 2.0,
    "BM_KernelDense2": 2.0,
    "BM_KernelDense1Real": 0.9,  # no-slower floor, see stage comment
}
for kernel, floor in gates.items():
    for q in (10, 12, 14):
        on = rates.get(f"{kernel}/qubits:{q}/simd:1")
        off = rates.get(f"{kernel}/qubits:{q}/simd:0")
        if not on or not off:
            failures.append(f"{kernel}/qubits:{q}: rows missing")
            continue
        ratio = on / off
        mark = "" if ratio >= floor else f"  << BELOW {floor}x"
        print(f"{kernel}/qubits:{q}: {ratio:.2f}x scalar (floor {floor}x){mark}")
        if ratio < floor:
            failures.append(f"{kernel}/qubits:{q}: {ratio:.2f}x < {floor}x")
if failures:
    print("simd-speedup: FAILED:", *failures, sep="\n  ", file=sys.stderr)
    sys.exit(1)
print("simd-speedup: OK")
PY

stage "expectation benchmarks vs tracked baseline (BENCH_expectation.json)"
# Same smoke-level contract as the kernel stage: min-of-3 against the
# committed baseline catches order-of-magnitude regressions in the
# batched single-sweep engine (DESIGN.md §16).
./build/bench/bench_perf_expectation \
    --benchmark_min_time=0.1 \
    --benchmark_repetitions=3 \
    --benchmark_out_format=json \
    --benchmark_out=build/BENCH_expectation.json
tools/bench-compare.sh BENCH_expectation.json build/BENCH_expectation.json

stage "batched-expectation speedup gate (>=2x amp-terms/sec at 10+ qubits)"
# BM_SumExpectation times the public expectation() entry point
# (batched:1) against a term-by-term fold of the per-string
# expectation() (batched:0) at each width; on AVX2 hosts the batched
# sweep (grouped xmasks + vector kernel, including its per-call plan
# compile) must deliver at least 2x the term-by-term throughput at 10+
# qubits and 24 terms. On hosts without AVX2 the simd:1 rows
# report the scalar backend and the gate skips itself (grouping alone
# sustains ~1.6x at the larger widths; the 2x contract is for the
# grouped sweep plus the vector kernel).
python3 - build/BENCH_expectation.json <<'PY'
import json
import sys

report = json.load(open(sys.argv[1]))
rates = {}
labels = {}
for b in report.get("benchmarks", []):
    if b.get("run_type", "iteration") != "iteration":
        continue
    rate = b.get("amp_terms_per_sec")
    if rate is None:
        continue
    name = b["run_name"]
    # min-of-N on time means max-of-N on throughput.
    rates[name] = max(rate, rates.get(name, 0.0))
    labels[name] = b.get("label", "")

if any(l == "scalar" for n, l in labels.items() if n.endswith("simd:1")):
    print("batched-speedup: host has no AVX2 (simd:1 rows ran scalar); "
          "skipping")
    sys.exit(0)

failures = []
for q in (10, 12, 14):
    on = rates.get(f"BM_SumExpectation/qubits:{q}/batched:1/simd:1")
    off = rates.get(f"BM_SumExpectation/qubits:{q}/batched:0/simd:1")
    if not on or not off:
        failures.append(f"qubits:{q}: rows missing")
        continue
    ratio = on / off
    mark = "" if ratio >= 2.0 else "  << BELOW 2.0x"
    print(f"BM_SumExpectation/qubits:{q}: {ratio:.2f}x legacy (floor 2.0x){mark}")
    if ratio < 2.0:
        failures.append(f"qubits:{q}: {ratio:.2f}x < 2.0x")
if failures:
    print("batched-speedup: FAILED:", *failures, sep="\n  ", file=sys.stderr)
    sys.exit(1)
print("batched-speedup: OK")
PY

stage "lint (baseline diff + SARIF artifact + clang-tidy + format)"
# qismet-lint runs in baseline-diff mode: only findings beyond the
# committed lint-baseline.json ratchet fail the stage. The sweep also
# writes build/qismet-lint.sarif for CI upload. The ctest pass adds the
# rule-engine/semantic-index suites and the baseline gate (a seeded
# fixture tree that must fail against the clean baseline).
cmake --preset lint >/dev/null
cmake --build --preset lint
ctest --preset lint
echo "ci: SARIF artifact at build/qismet-lint.sarif"

stage "tsan subsystem sweep (serve + persist + fault + simkern + expect + chaos + vqe)"
# The concurrency-heavy suites rerun under ThreadSanitizer; any data
# race is a hard failure. Only the subsystem binaries are built in the
# tsan tree to keep the stage bounded (~3 min). The chaos suites ride
# along (fault injection exercises the scheduler's migration paths),
# and so does test_vqe (the job executor keeps the previous job's
# prepared points and its fan-out reads them from pool threads);
# the kill/resume shell harness is excluded by name — process-death
# determinism is the chaos tier's job, not the race hunter's.
cmake --preset tsan >/dev/null
cmake --build build-tsan --target test_serve test_persist test_fault \
    test_sim_kernels test_pauli_expect test_serve_chaos \
    test_serve_chaos_replay test_vqe -j "$jobs"
ctest --preset tsan-subsys

stage "kernel, expectation, persist, recovery and serve suites under ASan+UBSan and standalone UBSan"
# The SIMD kernels and the batched-expectation sweep walk amplitude
# arrays with hand-rolled bit arithmetic and intrinsic loads (each
# kernel's AVX2 unit walk covers a whole range in pointer arithmetic,
# and bind's flat factor recipes index their pools; the bind battery
# in test_sim_kernels drives both); the
# journal, snapshot and serve-manifest decoders (one framed-log codec)
# parse bytes from disk, and their bit-flip and truncation fuzz suites
# (test_persist, persist label, which links qismet_serve for the
# manifest) plus the kill-and-resume suite (recovery label) feed them
# hostile input. ASan/UBSan rerun those batteries against exactly that
# surface. Standalone UBSan also runs the serve suite (test_serve, the
# backend pool's health and breaker arithmetic and the scheduler), so a
# float-to-integer cast past its range there aborts the stage.
cmake --preset asan >/dev/null
cmake --build build-asan --target test_sim_kernels test_pauli_expect \
    test_persist test_recovery -j "$jobs"
ctest --preset simkern-asan
ctest --preset expect-asan
ctest --preset persist-asan
cmake --preset ubsan >/dev/null
cmake --build build-ubsan --target test_sim_kernels test_pauli_expect \
    test_persist test_recovery test_serve -j "$jobs"
ctest --preset simkern-ubsan
ctest --preset expect-ubsan
ctest --preset persist-ubsan
ctest --preset serve-ubsan

if [[ $with_coverage -eq 1 ]]; then
    stage "coverage build"
    cmake --preset coverage
    cmake --build --preset coverage -j "$jobs"
    stage "coverage tier1 run"
    ctest --preset tier1-coverage
    stage "coverage report"
    cmake --build --preset coverage-report
fi

stage "OK — all gates passed"
