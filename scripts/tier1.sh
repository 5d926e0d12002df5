#!/usr/bin/env bash
# Tier-1 verification: the full suite in the default configuration, the
# same suite again with telemetry + JSONL tracing enabled (catches crashes
# that only instrumented paths can hit), the DSU suites a third time under
# JVOLVE_LAZY=1 (every update commits through the lazy-transform engine),
# a fourth pass with the full streaming-telemetry pipeline live (JSONL
# session + windowed aggregation on every VM, plus a ledger-balance check:
# every event attempted is either streamed or counted dropped), the
# bench_lazy_pause trade-off gate, the pause-breakdown gate (spans tile the
# pause; per-object transform and certify within the GC's cost), the
# repository benchmark's own failed-op checks, the streaming-telemetry
# overhead gate
# (bench_telemetry --check + a coarse metrics-diff backstop), the canary
# pause and revert-convergence gates (an injected health breach must
# auto-revert and leave zero residual), the chaos-campaign gate (the
# exhaustive first-order fault sweep must cover every enumerable probe
# point with zero oracle violations), then the update-transaction
# (rollback), quiescence-escalation, and GC-fuzz suites under a sanitizer
# build — including a pass with both update-time fault sites armed via
# the environment — and the telemetry and canary suites under
# ThreadSanitizer with the streaming pipeline live. A closing summary
# lists every pass that was skipped.
#
#   scripts/tier1.sh [sanitizer]
#
# sanitizer: address (default) or undefined; set JVOLVE_SKIP_SANITIZE=1 to
# run only the default-configuration suite.
set -euo pipefail
cd "$(dirname "$0")/.."

SAN="${1:-address}"
JOBS="$(nproc 2>/dev/null || echo 2)"
SKIPPED=()

cmake -B build -S .
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

# Static update-safety analysis: predict the applicability column of
# Tables 2-4 for all 22 modeled updates; exit non-zero on any drift from
# the paper's expected verdicts. The metrics snapshot feeds the schema
# and runtime-budget gates below.
ANALYZE_JSON="$(mktemp /tmp/jvolve-tier1-analyze.XXXXXX.json)"
build/tools/jvolve-analyze --app all --check --metrics-out "$ANALYZE_JSON"

# Transformer synthesis gate: synthesize object/class transformers for
# all 22 updates from static evidence, apply every release twice on live
# VMs (handwritten vs synthesized), and fail on any outcome or
# certification mismatch.
build/tools/jvolve-analyze --synthesize --app all --check > /dev/null

# Impact-bounded drain gate: a lazy drain that bulk-settles provably-
# untouched classes and certifies the impact closure only must reach the
# same certified heap (status, certification, per-class census) as the
# full drain on every stream.
build/tools/jvolve-analyze --impact --app all --check > /dev/null

# Analysis metrics schema + runtime budget: the dsu.analysis.* family
# must be published, and a second analyzer run must land within +50% of
# the first run's whole-suite analysis runtime (summed over the 22
# streams, so per-release jitter does not trip the budget).
ANALYZE_JSON2="$(mktemp /tmp/jvolve-tier1-analyze2.XXXXXX.json)"
build/tools/jvolve-analyze --app all --metrics-out "$ANALYZE_JSON2" > /dev/null
scripts/metrics-diff.py "$ANALYZE_JSON" "$ANALYZE_JSON2" \
  --require 'dsu.analysis.*' \
  --threshold 100 \
  --max-delta dsu.analysis.restricted_precise=0 \
  --max-delta dsu.analysis.restricted_cha=0 \
  --max-delta dsu.analysis.restricted_conservative=0 \
  --max-delta dsu.analysis.runtime_ms=50 \
  > /dev/null
rm -f "$ANALYZE_JSON" "$ANALYZE_JSON2"

# Static analysis over the DSU and bytecode layers (.clang-tidy at the
# repo root picks the checks). Skipped when the tool is not installed.
if command -v clang-tidy > /dev/null 2>&1; then
  cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON > /dev/null
  clang-tidy -p build --quiet src/dsu/*.cpp src/bytecode/*.cpp
else
  echo "tier1: clang-tidy not found; skipping static-analysis pass"
  SKIPPED+=("clang-tidy: SKIPPED (not installed)")
fi

# Telemetry pass: every VM the suite builds records metrics and streams
# trace events. Serial (-j 1) because the processes share one trace file.
TRACE_OUT="$(mktemp /tmp/jvolve-tier1-trace.XXXXXX.jsonl)"
JVOLVE_TELEMETRY=1 JVOLVE_TRACE_OUT="$TRACE_OUT" \
  ctest --test-dir build --output-on-failure -j 1
rm -f "$TRACE_OUT"

# Lazy pass: the suite a third time with every update committed through
# the lazy-transform engine (dsu/LazyTransform.h). Tests that assert
# eager rollback semantics for post-commit transformer faults skip
# themselves under this variable.
JVOLVE_LAZY=1 ctest --test-dir build --output-on-failure -j "$JOBS"

# Code-versioning pass: the suite again with every strictly body-only
# bundle committed through the per-method CodeVersionManager
# (dsu/CodeVersion.h) instead of the safe-point pipeline. Class-shape
# updates are unaffected, so the safe-point suites keep their meaning;
# tests that assert pipeline mechanics on body-only bundles skip
# themselves under this variable.
JVOLVE_CODEVERSION=1 ctest --test-dir build --output-on-failure -j "$JOBS"

# Streaming pass: the suite a fourth time with the whole streaming
# pipeline live in every VM — a JSONL session (per-thread buffers, the
# background writer, drop accounting) plus 2000-tick windowed
# aggregation. Serial: the processes share one trace file.
STREAM_TRACE="$(mktemp /tmp/jvolve-tier1-stream.XXXXXX.jsonl)"
JVOLVE_TELEMETRY=1 JVOLVE_TRACE_OUT="$STREAM_TRACE" \
  JVOLVE_STATS_WINDOW=2000 \
  ctest --test-dir build --output-on-failure -j 1
rm -f "$STREAM_TRACE"

# Ledger-balance check on a full instrumented serve run: the telemetry.*
# gauges must exist (require-any) and account for every event — attempted
# equals streamed plus dropped, nothing silent.
TEL_JSON="$(mktemp /tmp/jvolve-tier1-telemetry.XXXXXX.json)"
TEL_TRACE="$(mktemp /tmp/jvolve-tier1-teltrace.XXXXXX.jsonl)"
JVOLVE_TRACE_OUT="$TEL_TRACE" JVOLVE_STATS_WINDOW=2000 \
  build/tools/jvolve-serve email --metrics-out "$TEL_JSON" > /dev/null
scripts/metrics-diff.py "$TEL_JSON" "$TEL_JSON" \
  --require-any telemetry. > /dev/null
python3 - "$TEL_JSON" <<'EOF'
import json, sys
m = {x["name"]: x.get("value", 0)
     for x in json.load(open(sys.argv[1]))["metrics"]}
a = m.get("telemetry.events_attempted", 0)
s = m.get("telemetry.events_streamed", 0)
d = m.get("telemetry.dropped_total", 0)
if a != s + d:
    sys.exit(f"tier1: telemetry ledger imbalanced: "
             f"{a} attempted != {s} streamed + {d} dropped")
print(f"tier1: telemetry ledger balanced "
      f"({a} attempted = {s} streamed + {d} dropped)")
EOF
rm -f "$TEL_JSON" "$TEL_TRACE"

# The lazy trade-off triangle: lazy pause below eager pause, transient
# overhead decaying to no-update parity after the barrier retires, and
# indirection overhead staying flat. Exit 1 on any violated relation.
build/bench/bench_lazy_pause --check

# Pause breakdown gate (§4.1): the phase spans must tile every pause, and
# on the populated update (median of 5 fresh-VM runs) transform and
# certify must each cost no more ns per object than the collection. Exit
# 1 on any violation.
build/bench/bench_pause_breakdown > /dev/null

# The repository benchmark's own checks (perfbench/checks_test.cpp): a
# corrupted field, a stale-version response and a dropped response must
# each count as one failed operation. Builds into $CARGO_TARGET_DIR
# (default .bench_build) on first use.
python3 perfbench/run.py --test

# Lazy steady-state convergence: serve the same release history eagerly
# and lazily; the final snapshots must agree on updates applied, and the
# lazy run must end fully drained (no pending shells, no failed
# transforms). metrics-diff exits 2 on a breached budget; 1 just reports
# the expected dsu.lazy.* movement.
EAGER_JSON="$(mktemp /tmp/jvolve-tier1-eager.XXXXXX.json)"
LAZY_JSON="$(mktemp /tmp/jvolve-tier1-lazy.XXXXXX.json)"
build/tools/jvolve-serve email --metrics-out "$EAGER_JSON" > /dev/null
build/tools/jvolve-serve email --lazy --metrics-out "$LAZY_JSON" > /dev/null
scripts/metrics-diff.py "$EAGER_JSON" "$LAZY_JSON" --threshold 1000 \
  --require dsu.lazy.updates \
  --max-delta dsu.updates.applied=0 \
  --max-delta dsu.lazy.pending=0 \
  --max-delta dsu.lazy.failed_transforms=0 \
  > /dev/null || [ $? -ne 2 ]
rm -f "$LAZY_JSON"

# Streaming-telemetry overhead gate: the raw write path, the paired
# suite-overhead relation (<= 10% with a session attached), and the
# accounting relation (attempted == streamed + dropped) — the binary
# exits 1 on any violation. The off/on suite histograms then pass a
# coarse metrics-diff backstop: the precise paired estimate lives in the
# binary; the 50% budget here only catches a gross (order-of-magnitude)
# regression that slipped past it.
build/bench/bench_telemetry --check
scripts/metrics-diff.py BENCH_telemetry_off.json BENCH_telemetry_on.json \
  --threshold 1000 \
  --max-delta bench.telemetry.suite_ms=50 \
  > /dev/null || [ $? -ne 2 ]
rm -f BENCH_telemetry.json BENCH_telemetry_off.json BENCH_telemetry_on.json

# Canary pause gate: every trial must revert with zero residual (the
# binary exits 1 otherwise), and the revert pause must stay within 3x
# (a +200% delta) of the forward pause — the same GC + transformers
# bill paid backwards.
build/bench/bench_canary --check
scripts/metrics-diff.py BENCH_canary_forward.json BENCH_canary_revert.json \
  --threshold 1000 \
  --max-delta bench.canary.pause_ms=200 \
  > /dev/null || [ $? -ne 2 ]
rm -f BENCH_canary.json BENCH_canary_forward.json BENCH_canary_revert.json
rm -f BENCH_lazy_pause.json

# Revert convergence: arm the canary-health-breach site, serve the email
# stream with a window on every update, and require that the run both
# completed a revert (dsu.revert.completed is only registered when one
# converges) and left nothing behind — zero residual new-version
# objects, zero failed reverts — relative to the eager baseline above.
CANARY_JSON="$(mktemp /tmp/jvolve-tier1-canary.XXXXXX.json)"
build/tools/jvolve-serve email --canary --inject canary-health-breach:1 \
  --metrics-out "$CANARY_JSON" > /dev/null
scripts/metrics-diff.py "$EAGER_JSON" "$CANARY_JSON" --threshold 1000 \
  --require dsu.revert.completed \
  --max-delta dsu.revert.residual_new_objects=0 \
  --max-delta dsu.revert.failed=0 \
  > /dev/null || [ $? -ne 2 ]
rm -f "$EAGER_JSON" "$CANARY_JSON"

# Body-only commit-pause gate: the versioned active-version switch must
# beat the safe-point pipeline at every heap size, stay ~zero (<= 2 ms),
# and stay flat while the safe-point pause grows with the heap — the
# binary exits 1 on any violated relation.
build/bench/bench_codeversion --check
rm -f BENCH_codeversion.json

# Code-versioning observability: a --codeversion serve run must publish
# the dsu.codeversion.* gauge family. The gauges are deliberately not
# preregistered — their presence proves the versioned commit path ran.
CV_JSON="$(mktemp /tmp/jvolve-tier1-codeversion.XXXXXX.json)"
build/tools/jvolve-serve email --codeversion --metrics-out "$CV_JSON" > /dev/null
scripts/metrics-diff.py "$CV_JSON" "$CV_JSON" \
  --require 'dsu.codeversion.*' > /dev/null
rm -f "$CV_JSON"

# Chaos-campaign gate: sweep every enumerable first-order (site,
# fire-index) probe point on the email and jetty streams; --check fails
# on any oracle violation or on an attempted point whose fault did not
# fire (coverage below 100%). The run is deterministic (fresh VMs,
# virtual time, fixed seeds), so this is the same sweep every CI pass.
# chaos-report.py re-applies the gate to the stored JSON report, and
# metrics-diff asserts the fault.coverage.{probes,covered} gauges made
# it into the snapshot unchanged.
CHAOS_JSON="$(mktemp /tmp/jvolve-tier1-chaos.XXXXXX.json)"
CHAOS_REPORT="$(mktemp /tmp/jvolve-tier1-chaosrep.XXXXXX.json)"
build/tools/jvolve-chaos --first-order --check --json \
  --metrics-out "$CHAOS_JSON" > "$CHAOS_REPORT"
scripts/chaos-report.py "$CHAOS_REPORT"
scripts/metrics-diff.py "$CHAOS_JSON" "$CHAOS_JSON" \
  --require fault.coverage.probes \
  --require fault.coverage.covered \
  --max-delta fault.coverage.covered=0 \
  > /dev/null
rm -f "$CHAOS_JSON" "$CHAOS_REPORT"

if [ "${JVOLVE_SKIP_SANITIZE:-0}" != "1" ]; then
  cmake -B "build-$SAN" -S . -DJVOLVE_SANITIZE="$SAN"
  cmake --build "build-$SAN" -j "$JOBS" \
    --target dsu_rollback_test quiescence_test gc_fuzz_test \
    transformer_test lazy_transform_test
  ctest --test-dir "build-$SAN" --output-on-failure -j "$JOBS" \
    -R 'DsuRollback|Quiescence|GcFuzz|^Transformer\.|^LazyTransform\.'
  # Escalation under injected faults: arm the watchdog-expiry and
  # slow-client sites through the environment (the path production VMs
  # take) and rerun the fault-driven cases under the sanitizer.
  JVOLVE_INJECT='quiescence-watchdog-expiry:1:3,net-slow-client:1:2' \
    "build-$SAN/tests/quiescence_test" --gtest_filter='QuiescenceFault.*'

  # Race pass: the telemetry and canary suites under ThreadSanitizer with
  # the streaming pipeline live, so the background writer thread runs
  # against every flag and instrument the VM thread touches.
  cmake -B build-thread -S . -DJVOLVE_SANITIZE=thread
  cmake --build build-thread -j "$JOBS" --target telemetry_test canary_test
  JVOLVE_TELEMETRY=1 JVOLVE_STATS_WINDOW=2000 TSAN_OPTIONS=halt_on_error=1 \
    ctest --test-dir build-thread --output-on-failure -j "$JOBS" \
    -R 'Telemetry|Canary'
else
  SKIPPED+=("sanitizer passes: SKIPPED (JVOLVE_SKIP_SANITIZE=1)")
fi

echo "tier1: summary"
echo "  all enabled passes: OK"
for S in "${SKIPPED[@]+"${SKIPPED[@]}"}"; do
  echo "  $S"
done
