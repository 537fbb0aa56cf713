#!/usr/bin/env bash
# Local CI: the exact gauntlet a change must survive before review.
#
#   1. Plain Release build with warnings as errors (POLYFUSE_WERROR=ON,
#      so a new warning fails the stage) + full ctest, then the full
#      ctest again at POLYFUSE_JOBS=1 and at POLYFUSE_JOBS=4, so every
#      tier-1 test runs serial and multi-threaded whatever the host's
#      core count. Every leg includes ExactPath.SuiteMatchesDefault,
#      which reruns the paper suite in-process on the reference path --
#      every simplex solve on the kernel's bignum cells, no warm starts,
#      no memo -- and requires byte-identical schedules, C and
#      --analyze=json reports.
#   2. clang-tidy over src/ and tools/ against that build's
#      compile_commands.json (.clang-tidy: bugprone-*, performance-*,
#      modernize-use-*; bugprone-*/performance-* findings are errors);
#      skipped with a notice when clang-tidy is not installed.
#   3. Robustness sweep on the plain build: the pipeline under tight
#      compute-fuel budgets, a wall-clock budget, and one injected fault
#      per solver site must still emit verified, validated code
#      (docs/robustness.md). The sweep also
#      covers the persistent disk cache (injected cache-I/O faults and
#      corrupted entries must be output-invisible), a fork-isolated batch
#      with an injected hard crash, and recovery after a SIGKILL mid-batch
#      (docs/service.md).
#   4. perfbench gate: perfbench/ built in Release into <prefix>-perfbench,
#      then pipeline_bench on paper-suite, analysis-reports and warm-rerun,
#      each at --jobs 1 and --jobs 4. tools/perf_gate.py checks every run
#      against its pin in tests/golden/perfbench/: every non-timing figure
#      exactly equal, the run correct, and pipeline_cpu_s at most 2x the
#      perfbench/baseline.json median (docs/observability.md).
#   5. ASan+UBSan build + full ctest (POLYFUSE_SANITIZE=address,undefined),
#      then the same robustness sweep under the sanitizers.
#   6. ThreadSanitizer build (POLYFUSE_SANITIZE=thread) running the
#      reduction tests: the JIT differential test compiles the emitted
#      OpenMP reduction(...) kernels with -fsanitize=thread too, so the
#      actual pragmas race across real threads under the tool
#      (docs/reductions.md). The same stage runs the RequestContext
#      tests, whose dependence workers share one request's memo table and
#      tracer, the concurrent batch --explain --analyze test, whose
#      in-process requests each own a tracer and a profitability oracle,
#      and the flight-recorder tests, whose threads take and return ring
#      slots through a lock-free free list.
#
# Any failing ctest stage sweeps crash diagnostics (polyfuse-diag.*.json,
# written by the flight recorder when a test run dies) from the build
# tree into <prefix>-diagnostics/ so they survive as CI artifacts.
#
# Usage: tools/ci.sh [build-dir-prefix]
#   JOBS=N       parallelism for build and ctest (default: nproc)
#   CTEST_ARGS   extra args forwarded to every ctest run (e.g. -R verify)
set -euo pipefail

cd "$(dirname "$0")/.."

PREFIX="${1:-build-ci}"
JOBS="${JOBS:-$(nproc)}"
CTEST_ARGS="${CTEST_ARGS:-}"

# A failed ctest run may leave flight-recorder crash dumps in the build
# tree (any polyfuse process that dies on a fatal signal writes
# polyfuse-diag.<pid>.json to its working directory). Preserve them where
# a CI artifact step can pick them up, then fail the stage.
collect_diagnostics() {
  local name="$1" dir="$2" out="$PREFIX-diagnostics"
  mapfile -t diags < <(find "$dir" -name 'polyfuse-diag.*.json' 2>/dev/null)
  if [ "${#diags[@]}" -gt 0 ]; then
    mkdir -p "$out"
    mv "${diags[@]}" "$out/"
    echo "[$name] collected ${#diags[@]} crash diagnostic(s) into $out/"
  fi
}

run_stage() {
  local name="$1" dir="$2"
  shift 2
  echo "==== [$name] configure ($dir) ===="
  cmake -S . -B "$dir" "$@"
  echo "==== [$name] build ===="
  cmake --build "$dir" -j "$JOBS"
  echo "==== [$name] ctest ===="
  # shellcheck disable=SC2086  # intentional word-splitting of CTEST_ARGS
  ctest --test-dir "$dir" -j "$JOBS" --output-on-failure $CTEST_ARGS ||
    { collect_diagnostics "$name" "$dir"; exit 1; }
}

# The suite once more at one worker and at four: byte-identity and
# crash-path tests must hold at both, not only at the host's nproc.
run_jobs_legs() {
  local name="$1" dir="$2"
  for jobs in 1 4; do
    echo "==== [$name] ctest at POLYFUSE_JOBS=$jobs ===="
    # shellcheck disable=SC2086
    POLYFUSE_JOBS="$jobs" ctest --test-dir "$dir" -j "$JOBS" \
      --output-on-failure $CTEST_ARGS ||
      { collect_diagnostics "$name-jobs$jobs" "$dir"; exit 1; }
  done
}

# Degradation must never cost correctness: every budgeted or
# fault-injected run still has to pass the static verifier (strict) and
# the interpreter differential. jit_cc injection is exercised by ctest
# (exec_test), which both stages already run.
run_robustness() {
  local name="$1" dir="$2"
  local cli="$dir/tools/polyfuse"
  local input="examples/pipeline.pf"
  local checks="--verify=strict --validate --params=64"
  echo "==== [$name] robustness: fuel sweep ===="
  for fuel in 0 200 1000 5000; do
    echo "-- --fuel=$fuel"
    "$cli" --model=wisefuse --fuel="$fuel" $checks "$input" >/dev/null
  done
  echo "==== [$name] robustness: time budget ===="
  "$cli" --model=wisefuse --time-budget=10000 $checks "$input" >/dev/null
  echo "==== [$name] robustness: fault injection ===="
  # count_set faults the --analyze counting engine, which must degrade
  # its counts to the structured "unknown" without failing the run.
  # analysis.reductions faults the reduction pass, which must degrade to
  # the empty (nothing-relaxed) analysis and still emit verified code.
  # --lint --analyze share one dataflow build under BudgetSuspend, while
  # the reductions under the injection build their own charged copy, so
  # every site crosses both paths.
  for site in lp_solve fme_project dep_pair pluto_level fusion_model \
              count_set analysis.reductions; do
    echo "-- --inject=$site:fail-after=0"
    "$cli" --model=wisefuse --inject="$site:fail-after=0" --lint --analyze \
      --reductions --explain $checks "$input" >/dev/null 2>&1 ||
      { echo "injection at $site broke the pipeline"; exit 1; }
  done
  echo "==== [$name] robustness: reduction injection on a reduction input ===="
  # pipeline.pf has no reductions; dotprod.pf actually loses its relaxed
  # dependence under this fault, so the degraded (serial) kernel must
  # still pass strict verification and the interpreter differential.
  "$cli" --inject=analysis.reductions:fail-after=0 --reductions --explain \
    $checks examples/dotprod.pf >/dev/null 2>&1 ||
    { echo "reduction injection broke dotprod"; exit 1; }

  echo "==== [$name] robustness: persistent-cache faults ===="
  # The disk cache is an accelerator, never an oracle: injected cache
  # I/O faults and corrupted entries must leave the emitted program
  # byte-identical to a cache-less run (docs/service.md).
  local cache="$dir/ci-cache" ref="$dir/ci-ref.c" got="$dir/ci-got.c"
  rm -rf "$cache"
  "$cli" --model=wisefuse "$input" > "$ref"
  for site in diskcache.write diskcache.read; do
    echo "-- --inject=$site:fail-after=0"
    "$cli" --model=wisefuse --cache-dir="$cache" \
      --inject="$site:fail-after=0" "$input" > "$got"
    cmp -s "$ref" "$got" ||
      { echo "injection at $site altered emitted output"; exit 1; }
  done
  # Corrupt every committed entry in place; the warm run must quarantine
  # them all and still emit the same program.
  for f in "$cache"/*.pfc; do
    [ -e "$f" ] || continue
    printf 'garbage' | dd of="$f" bs=1 seek=8 conv=notrunc status=none
  done
  "$cli" --model=wisefuse --cache-dir="$cache" "$input" > "$got"
  cmp -s "$ref" "$got" ||
    { echo "corrupted cache entries altered emitted output"; exit 1; }

  echo "==== [$name] robustness: fork-isolated batch crash ===="
  # A hard crash injected into one request must cost exactly that
  # request: the batch completes the others and exits 3.
  local bdir="$dir/ci-batch"
  rm -rf "$bdir"
  set +e
  "$cli" --batch=examples --batch-out="$bdir" --batch-report="$bdir/r.json" \
    --batch-isolate --inject=batch.request:abort-after=0 >/dev/null 2>&1
  local rc=$?
  set -e
  [ "$rc" -eq 3 ] ||
    { echo "isolated batch crash: expected exit 3, got $rc"; exit 1; }
  grep -q '"failed": 1' "$bdir/r.json" ||
    { echo "isolated batch crash: report missing the failed entry"; exit 1; }

  echo "==== [$name] robustness: SIGKILL mid-batch recovery ===="
  # Kill a batch while it is writing cache entries and outputs; the
  # rerun against the same directories must succeed cleanly (atomic
  # temp+rename means no torn entry is ever visible under a live name).
  rm -rf "$bdir"
  "$cli" --batch=examples --batch-out="$bdir" --batch-report="$bdir/r.json" \
    --cache-dir="$cache" >/dev/null 2>&1 &
  local bpid=$!
  sleep 0.05
  kill -9 "$bpid" 2>/dev/null || true
  wait "$bpid" 2>/dev/null || true
  "$cli" --batch=examples --batch-out="$bdir" --batch-report="$bdir/r.json" \
    --cache-dir="$cache" >/dev/null ||
    { echo "batch rerun after SIGKILL failed"; exit 1; }
  grep -q '"failed": 0' "$bdir/r.json" ||
    { echo "batch rerun after SIGKILL reported failures"; exit 1; }
}

# The benchmark of record as a gate. Each pin is the --counters-out file
# of a --jobs 1 run, so the --jobs 4 legs also check that no counter
# depends on the number of dependence workers. A change that moves a
# counter on purpose re-records the pins (docs/observability.md).
run_perfbench_gate() {
  local name="$1" dir="$PREFIX-perfbench" w jobs out
  echo "==== [$name] perfbench gate: configure + build ($dir) ===="
  cmake -S perfbench -B "$dir" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$dir" -j "$JOBS"
  for w in paper-suite analysis-reports warm-rerun; do
    for jobs in 1 4; do
      echo "==== [$name] perfbench gate: $w at --jobs $jobs ===="
      out="$dir/gate-$w-jobs$jobs"
      "$dir/pipeline_bench" --workload "$w" --seed 1 --seconds 1 --trace 0 \
        --jobs "$jobs" --tmp-root "$dir/tmp" --counters-out "$out.json" \
        > "$out.out"
      python3 tools/perf_gate.py "tests/golden/perfbench/$w.json" \
        "$out.json" "$out.out" perfbench/baseline.json
    done
  done
}

run_stage "plain" "$PREFIX" -DCMAKE_BUILD_TYPE=Release -DPOLYFUSE_WERROR=ON
run_jobs_legs "plain" "$PREFIX"
run_robustness "plain" "$PREFIX"
run_perfbench_gate "plain"

echo "==== [clang-tidy] src/ tools/ ===="
if command -v clang-tidy >/dev/null 2>&1; then
  # CMAKE_EXPORT_COMPILE_COMMANDS is on unconditionally, so the plain
  # stage's build dir always has the compilation database. .clang-tidy
  # promotes every bugprone-*/performance-* finding to an error, so any
  # such warning fails this stage (xargs propagates the nonzero exit).
  find src tools -name '*.cpp' -print0 |
    xargs -0 -n 8 -P "$JOBS" clang-tidy -p "$PREFIX" --quiet
else
  echo "clang-tidy not installed; skipping static-analysis stage"
fi

# halt_on_error keeps a UBSan finding from scrolling past as a warning.
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"
run_stage "asan+ubsan" "$PREFIX-san" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  "-DPOLYFUSE_SANITIZE=address,undefined"
run_robustness "asan+ubsan" "$PREFIX-san"

# Reduction kernels under ThreadSanitizer: the one place polyfuse output
# runs genuinely concurrent updates. reductions_test detects its own TSan
# build and adds -fsanitize=thread to the JIT compile, so the emitted
# `#pragma omp parallel for reduction(...)` is exercised instrumented.
# The RequestContext tests run here too: dependence workers share their
# request's metrics registry, memo table and tracer. So does
# BatchTest.ConcurrentExplainMatchesSingleRequests: a --jobs=4 in-process
# batch under --explain --analyze, each request with its own tracer and
# profitability oracle. The FlightRec tests start and end threads that
# share the recorder's lock-free ring free list.
# ignore_noninstrumented_modules silences false positives from the
# (uninstrumented) libgomp runtime itself.
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:ignore_noninstrumented_modules=1}"
echo "==== [tsan] configure ($PREFIX-tsan) ===="
cmake -S . -B "$PREFIX-tsan" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  "-DPOLYFUSE_SANITIZE=thread"
echo "==== [tsan] build ===="
cmake --build "$PREFIX-tsan" -j "$JOBS"
echo "==== [tsan] ctest -R 'Reduction|RequestContext|ConcurrentExplain|FlightRec' ===="
# shellcheck disable=SC2086
ctest --test-dir "$PREFIX-tsan" -j "$JOBS" --output-on-failure \
  -R 'Reduction|RequestContext|ConcurrentExplain|FlightRec' $CTEST_ARGS ||
  { collect_diagnostics "tsan" "$PREFIX-tsan"; exit 1; }

echo "==== ci.sh: all stages passed ===="
