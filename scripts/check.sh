#!/usr/bin/env bash
# The full correctness gate (see DESIGN.md, "Correctness tooling" and
# "Schedule exploration & history auditing"):
#
#   format       .clang-format via scripts/format-check.sh
#   build        default build (everything: tests, examples, benches)
#   tier1/tier2  default ctest
#   fresh-clone  tier-1 from the committed files alone: fails if git
#                ignores any path under tests/, then clones HEAD into a
#                temporary directory, builds it there and runs
#                `ctest -L tier1 --repeat until-fail:5`
#   lint-project scripts/dynamast-lint.py project-invariant linter
#                (lock-class registry, sched-op pairing, history
#                commit/abort pairing, metric naming, tsa-escape and
#                CSA-allowlist justifications, hot-path-root registry,
#                atomic-field registry)
#   csa          scripts/csa.py critical-section cost analyzer: fixture
#                suite, the ratchet against CSA_BASELINE.json, and a
#                double-dump reproducibility check; on failure the
#                current profile is left in build/csa/ for diffing
#   hpa          scripts/hpa.py hot-path cost analyzer: fixture suite,
#                the ratchet against HPA_BASELINE.json, and a
#                double-dump reproducibility check; on failure the
#                current profile is left in build/hpa/ for diffing
#   ama          scripts/ama.py atomics & memory-order analyzer: fixture
#                suite, the ratchet against AMA_BASELINE.json, and a
#                double-dump reproducibility check; on failure the
#                current profile is left in build/ama/ for diffing
#   bench-trend  ratcheted perf gate: newest committed BENCH_*.json
#                trajectory point vs its predecessor; fails on a
#                throughput drop >30% or p99 rise >75% per series
#                unless waived (with a reason) in BENCH_WAIVERS.json
#   tsa          clang-tsa preset: src/ under -Werror=thread-safety,
#                plus the tests/tsa_compile_fail negative-compile suite
#   clang-tidy   .clang-tidy over src/ (compile_commands.json)
#   asan-ubsan   sanitizer preset build + ctest (invariants, lock checks)
#   tsan         ThreadSanitizer preset build + ctest
#   sched-fuzz   schedule-exploration preset: sync-point fuzzing across
#                $FUZZ_SEEDS seeds per test, histories audited by
#                tools/si_checker (tier2 schedule_explore_test)
#   dpor         short-budget record/replay + partial-order reduction
#                gate: two replays of a recorded run must agree on the
#                history hash for every system, and the DPOR explorer
#                must prune at least one equivalent interleaving
#                (engine-level dpor_test plus the stock-workload suites)
#   break-si     deliberately broken grant wait; proves the auditor
#                detects the anomaly class (BreakSiProofTest) and that
#                the DPOR explorer finds the violation in fewer executed
#                schedules than random search, with a minimized
#                deterministically-replaying reproducer (BreakSiDporTest)
#   observability  short bench run with --metrics-out/--trace-out/
#                --history-out; jq-validates the JSON schemas (remaster
#                counts, refresh-delay histogram, routing-explain factor
#                sums, correlated trace spans) and reconciles metrics
#                against the history via si_checker --metrics
#
# Every stage runs even if an earlier one failed; the summary table at the
# end shows PASS/FAIL/SKIP per stage and the exit code propagates any
# failure. Stages needing tools the machine lacks (clang-format /
# clang-tidy / clang++ / python3) are SKIPped rather than failed, so the
# gate is still useful on a bare-gcc box.
#
# Environment knobs:
#   JOBS=<n>         parallel build jobs (default: nproc)
#   SKIP_ASAN=1      skip the asan-ubsan stage
#   SKIP_TSAN=1      skip the tsan stage (TSan doubles the wall time)
#   SKIP_OBS=1       skip the observability stage
#   OBS_OUT=<dir>    where the observability stage writes its artifacts
#                    (default: build/observability; CI uploads this)
#   SKIP_FUZZ=1      skip the sched-fuzz, dpor, and break-si stages
#   FUZZ_SEEDS=<n>   seeds per fuzzed test (default 5; CI weekly uses 50)
#   DPOR_EXECUTIONS=<n>  DPOR schedule budget (default 2; CI weekly uses more)
#   DYNAMAST_SCHED_SEED=<s>   replay one failing schedule seed exactly
#   DYNAMAST_SCHED_TRACE=<f>  replay one persisted decision-stream trace
set -uo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"
FUZZ_SEEDS="${FUZZ_SEEDS:-5}"
DPOR_EXECUTIONS="${DPOR_EXECUTIONS:-2}"

stages=()
results=()
notes=()

record() {  # record <stage> <PASS|FAIL|SKIP> [note]
  stages+=("$1")
  results+=("$2")
  notes+=("${3:-}")
}

step() { echo; echo "==== check.sh: $* ===="; }

run_stage() {  # run_stage <name> <cmd...>
  local name="$1"
  shift
  step "$name"
  if "$@"; then
    record "$name" PASS
  else
    record "$name" FAIL
  fi
}

# 1. Formatting -------------------------------------------------------------
step "format"
if ! command -v clang-format >/dev/null 2>&1; then
  echo "check.sh: clang-format not found; skipping" >&2
  record format SKIP "clang-format not installed"
elif scripts/format-check.sh; then
  record format PASS
else
  record format FAIL
fi

# 2. Default build + tests --------------------------------------------------
step "build (default)"
if cmake --preset default && cmake --build build -j "$JOBS"; then
  record build PASS
  run_stage "tier1+tier2" ctest --preset default
else
  record build FAIL
  record "tier1+tier2" SKIP "build failed"
fi

# 2b. Fresh clone -----------------------------------------------------------
# Tier-1 must pass from what is committed, not from what happens to sit in
# this checkout: an ignore pattern that swallows test data lets a suite
# pass here and fail in every clone.
# The guard refuses any git-ignored path under tests/ before building; the
# clone then cannot see untracked files at all, and repeating each tier-1
# test flushes interleaving-dependent flakes on multi-core hosts.
fresh_clone_stage() {
  local ignored
  ignored=$(git status --porcelain --ignored tests/ | grep '^!!')
  if [[ -n "$ignored" ]]; then
    echo "check.sh: git ignores paths under tests/ (fix .gitignore):" >&2
    echo "$ignored" >&2
    return 1
  fi
  if [[ -n "$(git status --porcelain --untracked-files=no)" ]]; then
    echo "check.sh: note: uncommitted changes are not part of the clone"
  fi
  local dir status
  dir=$(mktemp -d "${TMPDIR:-/tmp}/dynamast-fresh-clone.XXXXXX") || return 1
  git clone --quiet --no-hardlinks . "$dir/repo" &&
    cmake -S "$dir/repo" -B "$dir/repo/build" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo &&
    cmake --build "$dir/repo/build" -j "$JOBS" &&
    ctest --test-dir "$dir/repo/build" -L tier1 --output-on-failure \
      --repeat until-fail:5 -j "$JOBS"
  status=$?
  rm -rf "$dir"
  return "$status"
}

run_stage fresh-clone fresh_clone_stage

# 3. Observability surface --------------------------------------------------
# A short real bench run must produce schema-valid, self-consistent
# telemetry: nonzero remaster counts, a populated refresh-delay histogram,
# per-factor routing-explain sums, a Chrome trace whose route spans
# correlate with execute/commit spans, and metrics that reconcile exactly
# with the run's history (si_checker --metrics).
observability_stage() {
  local out="${OBS_OUT:-build/observability}"
  mkdir -p "$out"
  local m="$out/metrics.json" t="$out/trace.json" h="$out/history.txt"
  rm -f "$m" "$t" "$h"
  if ! ./build/bench/bench_ycsb_skew --seconds=0.5 --warmup=0.3 --clients=8 \
       --scale=0.1 --systems=dynamast \
       --metrics-out="$m" --trace-out="$t" --history-out="$h"; then
    echo "check.sh: observability bench run failed" >&2
    return 1
  fi
  # Metrics row schema + the signals the dashboards need.
  jq -e '
    .system == "dynamast" and
    (.report.committed > 0) and
    ([.metrics.metrics[] | select(.name == "selector_remaster_total")
       | .series[].value] | add > 0) and
    ([.metrics.metrics[] | select(.name == "site_refresh_delay_us")
       | .series[].count] | add > 0) and
    ([.metrics.metrics[] | select(.name == "routing_explain_factor_sum")
       | .series[].labels.factor] | sort
       == ["balance", "delay", "inter", "intra"])
  ' "$m" > /dev/null || {
    echo "check.sh: metrics JSON failed schema validation" >&2
    return 1
  }
  # Trace schema: a remastered transaction's route span must correlate
  # (via the txn arg) with execute and commit spans.
  jq -e '
    ([.traceEvents[] | select(.name == "route" and .args.remastered == "1")
       | .args.txn][0]) as $txn
    | ($txn != null) and
      ([.traceEvents[] | select(.args.txn == $txn) | .name]
        | (contains(["execute"]) and contains(["commit"])))
  ' "$t" > /dev/null || {
    echo "check.sh: trace JSON lacks a correlated remastered txn" >&2
    return 1
  }
  # Cross-plane reconciliation, through the CLI.
  ./build/src/tools/si_checker --system=dynamast --metrics="$m" "$h"
}

if [[ "${SKIP_OBS:-0}" == "1" ]]; then
  record observability SKIP "SKIP_OBS=1"
elif ! command -v jq >/dev/null 2>&1; then
  record observability SKIP "jq not installed"
elif [[ ! -x build/bench/bench_ycsb_skew ]]; then
  record observability SKIP "build failed"
else
  step "observability"
  if observability_stage; then
    record observability PASS
  else
    record observability FAIL
  fi
fi

# 4. Project-invariant linter ----------------------------------------------
step "lint-project"
if command -v python3 >/dev/null 2>&1; then
  if python3 scripts/dynamast-lint.py; then
    record lint-project PASS
  else
    record lint-project FAIL
  fi
else
  echo "check.sh: python3 not found; skipping" >&2
  record lint-project SKIP "python3 not installed"
fi

# 5. Critical-section cost analyzer -----------------------------------------
# Fixture suite, then the ratchet: the current profile must match the
# committed CSA_BASELINE.json, and two dumps must be byte-identical. On a
# ratchet failure the current profile lands in build/csa/ so CI can upload
# it next to the baseline for diffing.
csa_stage() {
  local out="build/csa"
  mkdir -p "$out"
  python3 tests/csa_test/run_csa_test.py || return 1
  python3 scripts/csa.py --check || {
    python3 scripts/csa.py --dump > "$out/profile.json" 2>/dev/null
    echo "check.sh: csa ratchet failed; current profile in $out/profile.json" >&2
    return 1
  }
  python3 scripts/csa.py --dump > "$out/profile.json"
  python3 scripts/csa.py --dump > "$out/profile.2.json"
  if ! cmp -s "$out/profile.json" "$out/profile.2.json"; then
    echo "check.sh: csa profile dump is not reproducible" >&2
    return 1
  fi
  rm -f "$out/profile.2.json"
}

step "csa"
if command -v python3 >/dev/null 2>&1; then
  if csa_stage; then
    record csa PASS
  else
    record csa FAIL
  fi
else
  echo "check.sh: python3 not found; skipping" >&2
  record csa SKIP "python3 not installed"
fi

# 5b. Hot-path cost analyzer ------------------------------------------------
# Same shape as csa: fixture suite, ratchet against HPA_BASELINE.json,
# double-dump reproducibility. On a ratchet failure the current profile
# lands in build/hpa/ for diffing against the committed baseline.
hpa_stage() {
  local out="build/hpa"
  mkdir -p "$out"
  python3 tests/hpa_test/run_hpa_test.py || return 1
  python3 scripts/hpa.py --check || {
    python3 scripts/hpa.py --dump > "$out/profile.json" 2>/dev/null
    echo "check.sh: hpa ratchet failed; current profile in $out/profile.json" >&2
    return 1
  }
  python3 scripts/hpa.py --dump > "$out/profile.json"
  python3 scripts/hpa.py --dump > "$out/profile.2.json"
  if ! cmp -s "$out/profile.json" "$out/profile.2.json"; then
    echo "check.sh: hpa profile dump is not reproducible" >&2
    return 1
  fi
  rm -f "$out/profile.2.json"
}

step "hpa"
if command -v python3 >/dev/null 2>&1; then
  if hpa_stage; then
    record hpa PASS
  else
    record hpa FAIL
  fi
else
  echo "check.sh: python3 not found; skipping" >&2
  record hpa SKIP "python3 not installed"
fi

# 5c. Atomics & memory-order analyzer ---------------------------------------
# Same shape as csa/hpa: fixture suite, ratchet against AMA_BASELINE.json,
# double-dump reproducibility. On a ratchet failure the current profile
# lands in build/ama/ for diffing against the committed baseline.
ama_stage() {
  local out="build/ama"
  mkdir -p "$out"
  python3 tests/ama_test/run_ama_test.py || return 1
  python3 scripts/ama.py --check || {
    python3 scripts/ama.py --dump > "$out/profile.json" 2>/dev/null
    echo "check.sh: ama ratchet failed; current profile in $out/profile.json" >&2
    return 1
  }
  python3 scripts/ama.py --dump > "$out/profile.json"
  python3 scripts/ama.py --dump > "$out/profile.2.json"
  if ! cmp -s "$out/profile.json" "$out/profile.2.json"; then
    echo "check.sh: ama profile dump is not reproducible" >&2
    return 1
  fi
  rm -f "$out/profile.2.json"
}

step "ama"
if command -v python3 >/dev/null 2>&1; then
  if ama_stage; then
    record ama PASS
  else
    record ama FAIL
  fi
else
  echo "check.sh: python3 not found; skipping" >&2
  record ama SKIP "python3 not installed"
fi

# 5d. Bench trend -----------------------------------------------------------
# Ratcheted perf gate: compares the newest committed BENCH_*.json
# trajectory point against its predecessor and FAILS on a per-series
# throughput drop or p99 rise beyond the thresholds, unless the series
# carries a justified waiver in BENCH_WAIVERS.json. Exit 3 means "no
# trajectory data" and records SKIP; the trend text is kept in
# build/bench-trend/trend.txt for diffing (CI uploads it on failure).
step "bench-trend"
if command -v python3 >/dev/null 2>&1; then
  mkdir -p build/bench-trend
  trend_note=$(python3 scripts/bench_trend.py --check 2>&1)
  trend_status=$?
  echo "$trend_note"
  echo "$trend_note" > build/bench-trend/trend.txt
  case "$trend_status" in
    0) record bench-trend PASS "$(echo "$trend_note" | head -1)" ;;
    3) record bench-trend SKIP "$(echo "$trend_note" | head -1)" ;;
    *) record bench-trend FAIL "$(echo "$trend_note" | tail -1)" ;;
  esac
else
  record bench-trend SKIP "python3 not installed"
fi

# 6. Clang thread-safety analysis -------------------------------------------
# Builds src/ with -Werror=thread-safety plus the tsa_compile_fail
# negative-compile suite; needs clang++ (GCC has no such analysis).
step "tsa"
if command -v clang++ >/dev/null 2>&1; then
  if cmake --preset clang-tsa &&
     cmake --build build-clang-tsa -j "$JOBS" &&
     ctest --test-dir build-clang-tsa -R '^tsa_' --output-on-failure; then
    record tsa PASS
  else
    record tsa FAIL
  fi
else
  echo "check.sh: clang++ not found; skipping" >&2
  record tsa SKIP "clang++ not installed"
fi

# 7. clang-tidy -------------------------------------------------------------
step "clang-tidy"
if command -v clang-tidy >/dev/null 2>&1; then
  mapfile -t tidy_files < <(git ls-files 'src/*.cc')
  if clang-tidy -p build --quiet "${tidy_files[@]}"; then
    record clang-tidy PASS
  else
    record clang-tidy FAIL
  fi
else
  echo "check.sh: clang-tidy not found; skipping" >&2
  record clang-tidy SKIP "clang-tidy not installed"
fi

# 8. Sanitizer configurations ----------------------------------------------
sanitizer_stage() {  # sanitizer_stage <preset>
  local preset="$1"
  step "$preset build (tests only)"
  if cmake --preset "$preset" &&
     cmake --build "build-$preset" --target dynamast_tests -j "$JOBS"; then
    run_stage "$preset" ctest --preset "$preset"
  else
    record "$preset" FAIL "build failed"
  fi
}

if [[ "${SKIP_ASAN:-0}" != "1" ]]; then
  sanitizer_stage asan-ubsan
else
  record asan-ubsan SKIP "SKIP_ASAN=1"
fi

if [[ "${SKIP_TSAN:-0}" != "1" ]]; then
  sanitizer_stage tsan
else
  record tsan SKIP "SKIP_TSAN=1"
fi

# 9. Schedule exploration + SI audit ---------------------------------------
if [[ "${SKIP_FUZZ:-0}" != "1" ]]; then
  step "sched-fuzz build (tests only)"
  if cmake --preset sched-fuzz &&
     cmake --build build-sched-fuzz --target dynamast_tests -j "$JOBS"; then
    step "sched-fuzz: tier1 under schedule perturbation"
    if ctest --preset sched-fuzz -L tier1; then
      record sched-fuzz-tier1 PASS
    else
      record sched-fuzz-tier1 FAIL
    fi
    step "sched-fuzz: schedule_explore ($FUZZ_SEEDS seeds, si_checker audit)"
    if DYNAMAST_SCHED_SEEDS="$FUZZ_SEEDS" \
       ./build-sched-fuzz/tests/schedule_explore_test; then
      record sched-fuzz-explore PASS "$FUZZ_SEEDS seeds"
    else
      # The test prints the failing DYNAMAST_SCHED_SEED (or persisted
      # trace path) and dumps the offending history for offline
      # si_checker analysis.
      record sched-fuzz-explore FAIL "see replay seed/trace above"
    fi
    # Exact replay + partial-order reduction on a short budget. The
    # filtered suites assert hash stability (two replays of a recorded
    # run agree, per system and workload) and that DPOR prunes at least
    # one equivalent interleaving; dpor_test covers the engine itself.
    step "dpor: exact replay + reduction ($DPOR_EXECUTIONS executions)"
    if ./build-sched-fuzz/tests/dpor_test &&
       DYNAMAST_DPOR_EXECUTIONS="$DPOR_EXECUTIONS" DYNAMAST_SCHED_SEEDS=1 \
       ./build-sched-fuzz/tests/schedule_explore_test \
         --gtest_filter='*ExactReplayTest.*:TraceReplayTest.*:DporExploreTest.*'; then
      record dpor PASS "executed/pruned reported above"
    else
      record dpor FAIL "replay hash drift or no pruning"
    fi
  else
    record sched-fuzz-tier1 FAIL "build failed"
    record sched-fuzz-explore SKIP "build failed"
    record dpor SKIP "build failed"
  fi

  step "break-si build (auditor + explorer detection proof)"
  if cmake --preset break-si &&
     cmake --build build-break-si --target schedule_explore_test -j "$JOBS"; then
    if ./build-break-si/tests/schedule_explore_test \
         --gtest_filter='BreakSiProofTest.*:BreakSiDporTest.*'; then
      record break-si PASS
    else
      record break-si FAIL "auditor or explorer missed the injected anomaly"
    fi
  else
    record break-si FAIL "build failed"
  fi
else
  record sched-fuzz-tier1 SKIP "SKIP_FUZZ=1"
  record sched-fuzz-explore SKIP "SKIP_FUZZ=1"
  record dpor SKIP "SKIP_FUZZ=1"
  record break-si SKIP "SKIP_FUZZ=1"
fi

# ---- Summary --------------------------------------------------------------
echo
echo "==== check.sh summary ===="
failures=0
for i in "${!stages[@]}"; do
  printf '  %-20s %-4s %s\n' "${stages[$i]}" "${results[$i]}" "${notes[$i]}"
  [[ "${results[$i]}" == "FAIL" ]] && failures=$((failures + 1))
done
echo
if [[ $failures -gt 0 ]]; then
  echo "check.sh: FAILED ($failures stage(s) failed)" >&2
  exit 1
fi
echo "check.sh: all stages passed"
