#!/usr/bin/env bash
# CI entry point: build, test, lint, format check.
#
# Usage: ./ci.sh [--quick]
#   --quick   lighter property-test load (PROPTEST_CASES=32) for smoke runs
#
# Knobs respected by the test suite:
#   TWOSTEP_THREADS       worker count for sweeps + the parallel explorer
#   PROPTEST_CASES        per-test case count for property tests
#   CRITERION_SAMPLES     samples per benchmark (criterion benches are not
#                         run here; the quick explorer bench below is)
#   TWOSTEP_BENCH_N/T     (n, t) for the explorer bench (raise toward (7, 6)
#                         as runners allow)
#   TWOSTEP_DONATE_DEPTH  donation cutoff for the bench's "donate" row
#   TWOSTEP_BENCH_SKIP_GATE=1  skip the serial states/sec regression gate
#                         (escape hatch for slow or heavily shared runners)
set -euo pipefail
cd "$(dirname "$0")"

if [[ "${1:-}" == "--quick" ]]; then
    export PROPTEST_CASES="${PROPTEST_CASES:-32}"
fi

echo "== cargo build --release"
cargo build --release --workspace --all-targets

echo "== cargo test -q"
cargo test -q --workspace

echo "== cargo clippy --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== explorer bench (quick) -> BENCH_explorer.json (+ BENCH_history.jsonl)"
# The perf gate below compares the fresh serial states/sec against the
# **committed** baseline (git HEAD, not the working tree — the bench
# overwrites the working-tree file, so reading it back would silently
# rebaseline every rerun onto the previous local result).  Fall back to
# the working-tree copy only when git can't produce one (shallow tools,
# first commit).
baseline_json="$(git show HEAD:BENCH_explorer.json 2>/dev/null || true)"
if [[ -z "$baseline_json" && -f BENCH_explorer.json ]]; then
    baseline_json="$(cat BENCH_explorer.json)"
fi
baseline_serial=""
baseline_n=""
baseline_t=""
baseline_file_present=0
baseline_symmetry=""
baseline_symmetry_raw=""
baseline_serial_seconds=""
if [[ -n "$baseline_json" ]]; then
    baseline_file_present=1
    baseline_serial="$(sed -n 's/.*"engine": "serial".*"states_per_sec": \([0-9.]*\).*/\1/p' <<<"$baseline_json" | head -1)"
    baseline_serial_seconds="$(sed -n 's/.*"engine": "serial".*"best_seconds": \([0-9.]*\).*/\1/p' <<<"$baseline_json" | head -1)"
    baseline_symmetry="$(sed -n 's/.*"engine": "symmetry".*"states_per_sec": \([0-9.]*\).*/\1/p' <<<"$baseline_json" | head -1)"
    baseline_symmetry_raw="$(sed -n 's/.*"engine": "symmetry".*"raw_states_per_sec": \([0-9.]*\).*/\1/p' <<<"$baseline_json" | head -1)"
    baseline_n="$(sed -n 's/^  "n": \([0-9]*\),$/\1/p' <<<"$baseline_json")"
    baseline_t="$(sed -n 's/^  "t": \([0-9]*\),$/\1/p' <<<"$baseline_json")"
fi
commit_sha="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
cargo run --release -q -p twostep-bench --bin explorer_bench -- --quick \
    --history BENCH_history.jsonl --commit "$commit_sha"
cat BENCH_explorer.json

echo "== symmetry row: both modes ran, verdicts identical"
# The bench runs the pinned system with symmetry off (the baseline
# rows) and at the strongest sound tier (the `symmetry` row,
# partial+value for CRW) and asserts the verdict summaries are equal
# in-process; the marker it writes is the committed witness of that
# assertion, so its absence means the symmetry row silently
# disappeared.
grep '"engine": "symmetry"' BENCH_explorer.json >/dev/null \
    || { echo "FAIL: BENCH_explorer.json is missing the symmetry row" >&2; exit 1; }
grep '"verdicts_identical": true' BENCH_explorer.json >/dev/null \
    || { echo "FAIL: symmetry row lost its verdict-equality witness" >&2; exit 1; }
sed -n 's/.*"symmetry": {\("mode[^}]*\)}.*/symmetry OK: \1/p' BENCH_explorer.json

echo "== perf smoke-gate (serial states/sec vs committed baseline)"
new_serial="$(sed -n 's/.*"engine": "serial".*"states_per_sec": \([0-9.]*\).*/\1/p' BENCH_explorer.json | head -1)"
new_n="$(sed -n 's/^  "n": \([0-9]*\),$/\1/p' BENCH_explorer.json)"
new_t="$(sed -n 's/^  "t": \([0-9]*\),$/\1/p' BENCH_explorer.json)"
if [[ "${TWOSTEP_BENCH_SKIP_GATE:-0}" == "1" ]]; then
    echo "perf gate skipped (TWOSTEP_BENCH_SKIP_GATE=1): serial=$new_serial states/sec"
elif [[ "$baseline_file_present" == "0" ]]; then
    echo "perf gate: no committed baseline to compare against (first run); serial=$new_serial states/sec"
elif [[ -z "$baseline_serial" || -z "$new_serial" ]]; then
    # A baseline file that exists but cannot be parsed must fail, not
    # silently disarm the gate forever after a format change.
    echo "FAIL: perf gate could not parse a serial states/sec value" >&2
    echo "      (baseline='$baseline_serial', current='$new_serial') — update the sed extraction in ci.sh alongside the bench JSON format." >&2
    exit 1
elif [[ "$baseline_n" != "$new_n" || "$baseline_t" != "$new_t" ]]; then
    echo "perf gate: baseline is ($baseline_n, $baseline_t), this run is ($new_n, $new_t) — not comparable; serial=$new_serial states/sec"
else
    awk -v new="$new_serial" -v base="$baseline_serial" 'BEGIN {
        floor = 0.7 * base;
        if (new < floor) {
            printf "FAIL: serial throughput regressed >30%%: %.1f states/sec vs committed baseline %.1f (floor %.1f).\n", new, base, floor;
            printf "      Investigate before committing, or rerun with TWOSTEP_BENCH_SKIP_GATE=1 on a known-slow runner.\n";
            exit 1;
        }
        printf "perf gate OK: %.1f states/sec vs baseline %.1f (floor %.1f)\n", new, base, floor;
    }' >&2 || exit 1
fi

echo "== perf gate (stepped driver within 10% of the owned-loop serial walk, same run)"
# Both rows come from the same bench invocation (same machine state,
# best-of-N), so this is a same-run overhead bound on the frame-stepped
# core — one step() call plus one arbiter inspection per configuration —
# not a cross-commit trend gate.
new_stepped="$(sed -n 's/.*"engine": "stepped".*"states_per_sec": \([0-9.]*\).*/\1/p' BENCH_explorer.json | head -1)"
if [[ -z "$new_stepped" ]]; then
    echo "FAIL: BENCH_explorer.json is missing the stepped row" >&2
    exit 1
elif [[ "${TWOSTEP_BENCH_SKIP_GATE:-0}" == "1" ]]; then
    echo "stepped gate skipped (TWOSTEP_BENCH_SKIP_GATE=1): stepped=$new_stepped states/sec"
else
    awk -v stepped="$new_stepped" -v serial="$new_serial" 'BEGIN {
        floor = 0.9 * serial;
        if (stepped < floor) {
            printf "FAIL: frame-stepped driver overhead exceeds 10%%: %.1f states/sec vs serial %.1f (floor %.1f).\n", stepped, serial, floor;
            exit 1;
        }
        printf "stepped gate OK: %.1f states/sec vs serial %.1f (floor %.1f)\n", stepped, serial, floor;
    }' >&2 || exit 1
fi

echo "== perf smoke-gate (symmetry raw states/sec vs committed baseline)"
# Orbit-count throughput is only comparable between runs at the *same*
# canonicalization strength, and the strength has been deepened across
# releases (full -> partial+value).  The trend gate therefore compares
# the raw-equivalent figure — raw states stood in for per second —
# which is mode-independent; it is armed only once a committed baseline
# carries `raw_states_per_sec` (older baselines predate the field, and
# their orbit figure is not comparable).
new_symmetry="$(sed -n 's/.*"engine": "symmetry".*"states_per_sec": \([0-9.]*\).*/\1/p' BENCH_explorer.json | head -1)"
new_symmetry_raw="$(sed -n 's/.*"engine": "symmetry".*"raw_states_per_sec": \([0-9.]*\).*/\1/p' BENCH_explorer.json | head -1)"
if [[ "${TWOSTEP_BENCH_SKIP_GATE:-0}" == "1" ]]; then
    echo "symmetry gate skipped (TWOSTEP_BENCH_SKIP_GATE=1): symmetry=$new_symmetry_raw raw states/sec"
elif [[ -z "$new_symmetry_raw" ]]; then
    echo "FAIL: BENCH_explorer.json symmetry row is missing raw_states_per_sec" >&2
    exit 1
elif [[ -z "$baseline_symmetry_raw" ]]; then
    echo "symmetry gate: committed baseline has no raw_states_per_sec yet (pre-partial format); symmetry=$new_symmetry_raw raw states/sec"
elif [[ "$baseline_n" != "$new_n" || "$baseline_t" != "$new_t" ]]; then
    echo "symmetry gate: baseline is ($baseline_n, $baseline_t), this run is ($new_n, $new_t) — not comparable"
else
    awk -v new="$new_symmetry_raw" -v base="$baseline_symmetry_raw" 'BEGIN {
        floor = 0.7 * base;
        if (new < floor) {
            printf "FAIL: symmetry raw-equivalent throughput regressed >30%%: %.1f raw states/sec vs committed baseline %.1f (floor %.1f).\n", new, base, floor;
            exit 1;
        }
        printf "symmetry gate OK: %.1f raw states/sec vs baseline %.1f (floor %.1f)\n", new, base, floor;
    }' >&2 || exit 1
fi

echo "== perf gate (symmetry wall clock beats the committed serial row)"
# The point of the quotient is to *win on wall clock*, not only on
# state counts: one full symmetry-reduced exploration of the pinned
# system must finish faster than the committed serial row's best time.
# Comparing against the committed (not same-run) serial figure keeps
# the bar absolute across commits; the usual skip knob covers slow
# shared runners.
new_symmetry_seconds="$(sed -n 's/.*"engine": "symmetry".*"best_seconds": \([0-9.]*\).*/\1/p' BENCH_explorer.json | head -1)"
if [[ "${TWOSTEP_BENCH_SKIP_GATE:-0}" == "1" ]]; then
    echo "symmetry wall-clock gate skipped (TWOSTEP_BENCH_SKIP_GATE=1): symmetry=$new_symmetry_seconds s"
elif [[ "$baseline_file_present" == "0" ]]; then
    echo "symmetry wall-clock gate: no committed baseline to compare against (first run); symmetry=$new_symmetry_seconds s"
elif [[ -z "$baseline_serial_seconds" || -z "$new_symmetry_seconds" ]]; then
    echo "FAIL: symmetry wall-clock gate could not parse best_seconds" >&2
    echo "      (baseline serial='$baseline_serial_seconds', current symmetry='$new_symmetry_seconds') — update the sed extraction in ci.sh alongside the bench JSON format." >&2
    exit 1
elif [[ "$baseline_n" != "$new_n" || "$baseline_t" != "$new_t" ]]; then
    echo "symmetry wall-clock gate: baseline is ($baseline_n, $baseline_t), this run is ($new_n, $new_t) — not comparable"
else
    awk -v sym="$new_symmetry_seconds" -v serial="$baseline_serial_seconds" 'BEGIN {
        if (sym > serial) {
            printf "FAIL: symmetry-reduced exploration (%.6f s) is slower than the committed serial row (%.6f s).\n", sym, serial;
            printf "      The quotient must win on wall clock — investigate before committing, or rerun with TWOSTEP_BENCH_SKIP_GATE=1 on a known-slow runner.\n";
            exit 1;
        }
        printf "symmetry wall-clock gate OK: %.6f s vs committed serial %.6f s\n", sym, serial;
    }' >&2 || exit 1
fi

echo "== perf gate (elastic steal engine vs the committed partitioned row)"
# The steal row is the elastic engine with its lazy default policy: on
# the sub-second pinned system it never offloads, so its states/sec is
# the cost of elasticity when idle.  The floor is the *committed*
# partitioned row — elastic-when-idle must never be slower than the
# static fan-out it replaces, or the "costs nothing until needed" pitch
# is broken.
new_steal="$(sed -n 's/.*"engine": "steal".*"states_per_sec": \([0-9.]*\).*/\1/p' BENCH_explorer.json | head -1)"
baseline_partitioned=""
if [[ -n "$baseline_json" ]]; then
    baseline_partitioned="$(sed -n 's/.*"engine": "partitioned".*"states_per_sec": \([0-9.]*\).*/\1/p' <<<"$baseline_json" | head -1)"
fi
if [[ -z "$new_steal" ]]; then
    echo "FAIL: BENCH_explorer.json is missing the steal row" >&2
    exit 1
elif [[ "${TWOSTEP_BENCH_SKIP_GATE:-0}" == "1" ]]; then
    echo "steal gate skipped (TWOSTEP_BENCH_SKIP_GATE=1): steal=$new_steal states/sec"
elif [[ "$baseline_file_present" == "0" ]]; then
    echo "steal gate: no committed baseline to compare against (first run); steal=$new_steal states/sec"
elif [[ -z "$baseline_partitioned" ]]; then
    # The committed baseline has carried a partitioned row for several
    # releases; failing to parse one means the JSON format changed and
    # the gate must not silently disarm.
    echo "FAIL: steal gate could not parse the committed partitioned states/sec" >&2
    echo "      — update the sed extraction in ci.sh alongside the bench JSON format." >&2
    exit 1
elif [[ "$baseline_n" != "$new_n" || "$baseline_t" != "$new_t" ]]; then
    echo "steal gate: baseline is ($baseline_n, $baseline_t), this run is ($new_n, $new_t) — not comparable; steal=$new_steal states/sec"
else
    awk -v steal="$new_steal" -v part="$baseline_partitioned" 'BEGIN {
        if (steal < part) {
            printf "FAIL: elastic steal engine is slower than the committed static partitioned row: %.1f vs %.1f states/sec.\n", steal, part;
            printf "      Idle elasticity must beat the fan-out it replaces — investigate before committing.\n";
            exit 1;
        }
        printf "steal gate OK: %.1f states/sec vs committed partitioned %.1f\n", steal, part;
    }' >&2 || exit 1
fi

echo "== partitioned exploration (2 worker processes, quick, all symmetry strengths)"
dist_off_out="$(cargo run --release -q -p twostep-bench --bin twostep-dist -- --quick --partitions 2 --symmetry off)"
dist_full_out="$(cargo run --release -q -p twostep-bench --bin twostep-dist -- --quick --partitions 2 --symmetry full)"
dist_pv_out="$(cargo run --release -q -p twostep-bench --bin twostep-dist -- --quick --partitions 2 --symmetry partial+value)"
grep '^twostep-dist: result' <<<"$dist_off_out"
grep '^twostep-dist: result' <<<"$dist_full_out"
grep '^twostep-dist: result' <<<"$dist_pv_out"
# Verdict equality across modes: everything except the state count —
# which symmetry exists to shrink — must agree at every strength.
verdict_of() { sed -n 's/^twostep-dist: result .*\(terminals=.*\)$/\1/p' <<<"$1"; }
states_of() { sed -n 's/^twostep-dist: result .* distinct_states=\([0-9]*\) .*/\1/p' <<<"$1"; }
if [[ "$(verdict_of "$dist_off_out")" != "$(verdict_of "$dist_full_out")" ]]; then
    echo "FAIL: symmetry-reduced partitioned verdict differs from the raw one" >&2
    exit 1
fi
if [[ "$(verdict_of "$dist_off_out")" != "$(verdict_of "$dist_pv_out")" ]]; then
    echo "FAIL: partial+value partitioned verdict differs from the raw one" >&2
    exit 1
fi
# The deeper quotient must shrink monotonically:
# distinct(partial+value) <= distinct(full) <= distinct(off).
if (( $(states_of "$dist_full_out") > $(states_of "$dist_off_out") )); then
    echo "FAIL: symmetry reduction must never add states" >&2
    exit 1
fi
if (( $(states_of "$dist_pv_out") > $(states_of "$dist_full_out") )); then
    echo "FAIL: the partial+value quotient must be at least as coarse as full" >&2
    exit 1
fi
echo "symmetry modes agree: $(verdict_of "$dist_off_out") ($(states_of "$dist_off_out") raw -> $(states_of "$dist_full_out") settled -> $(states_of "$dist_pv_out") partial+value orbit states)"

echo "== elastic steal run (forced policy, quick): bit-identical to the classic engine"
# Zero warm-up + any-size frontier forces the full steal machinery over
# real OS worker processes — offload, preempt handshake, frontier
# re-split, seeded relaunch — on the same quick system; the timing-free
# result line must match the classic partitioned run byte for byte.
steal_out="$(cargo run --release -q -p twostep-bench --bin twostep-dist -- \
    --quick --partitions 2 --symmetry off \
    --steal --steal-poll-ms 0 --steal-min-frontier 1 --steal-yield-every 64)"
grep '^twostep-dist: steal workers=' <<<"$steal_out"
grep '^twostep-dist: steal workers=.* offloaded=true' <<<"$steal_out" >/dev/null \
    || { echo "FAIL: forced steal policy never offloaded — the elastic path was not exercised" >&2; exit 1; }
steal_result="$(grep '^twostep-dist: result' <<<"$steal_out")"
classic_result="$(grep '^twostep-dist: result' <<<"$dist_off_out")"
echo "steal:   $steal_result"
echo "classic: $classic_result"
if [[ "$steal_result" != "$classic_result" ]]; then
    echo "FAIL: elastic steal report differs from the classic partitioned one" >&2
    exit 1
fi
echo "elastic OK: forced-steal run is bit-identical to the classic engine"

echo "== fault storm (quick): crash + corrupt + hang survive retries, report untouched"
# A survivable chaos plan over the same quick system: partition 0 crashes
# mid-walk on its first launch and hangs on its second (ended by the
# 2-second attempt timeout), partition 1 corrupts its first export
# (caught by the segment checksum).  Both recover within the 3-attempt
# budget, so the timing-free result line must be byte-identical to the
# clean run above and the supervision marker must show zero degraded
# partitions.
storm_out="$(cargo run --release -q -p twostep-bench --bin twostep-dist -- \
    --quick --partitions 2 --symmetry off --attempt-timeout-ms 2000 --backoff-ms 1 \
    --fault 'p0a0=crash@walk;p0a1=hang@walk;p1a0=corrupt-export' 2>/dev/null)"
storm_result="$(grep '^twostep-dist: result' <<<"$storm_out")"
clean_result="$(grep '^twostep-dist: result' <<<"$dist_off_out")"
echo "storm: $storm_result"
echo "clean: $clean_result"
if [[ "$storm_result" != "$clean_result" ]]; then
    echo "FAIL: fault-storm report differs from the clean run" >&2
    exit 1
fi
grep '^twostep-dist: supervision degraded=0 ' <<<"$storm_out" >/dev/null \
    || { echo "FAIL: survivable fault storm must not degrade any partition" >&2; exit 1; }
echo "fault storm OK: survivable chaos is report-invisible (degraded=0)"

echo "== fault storm (quick): retry exhaustion degrades to a local walk, report untouched"
# Partition 0 crashes on every one of its 3 launch attempts; the
# coordinator must give up on remote execution, walk that partition
# locally, and still produce the identical report — degradation, not
# failure.
exhaust_out="$(cargo run --release -q -p twostep-bench --bin twostep-dist -- \
    --quick --partitions 2 --symmetry off --backoff-ms 1 \
    --fault 'p0a0=crash@walk;p0a1=crash@export;p0a2=crash@seed' 2>/dev/null)"
exhaust_result="$(grep '^twostep-dist: result' <<<"$exhaust_out")"
echo "degraded: $exhaust_result"
echo "clean:    $clean_result"
if [[ "$exhaust_result" != "$clean_result" ]]; then
    echo "FAIL: degraded (locally walked) report differs from the clean run" >&2
    exit 1
fi
grep '^twostep-dist: supervision degraded=1 ' <<<"$exhaust_out" >/dev/null \
    || { echo "FAIL: retry exhaustion must report exactly one degraded partition" >&2; exit 1; }
echo "fault storm OK: retry exhaustion degraded to a local walk (degraded=1), report identical"

echo "== persistent cache: cold-then-warm partitioned exploration (quick)"
CACHE_DIR="$(mktemp -d)"
trap 'rm -rf "$CACHE_DIR"' EXIT
cold_out="$(cargo run --release -q -p twostep-bench --bin twostep-dist -- \
    --quick --partitions 2 --cache-dir "$CACHE_DIR")"
warm_out="$(cargo run --release -q -p twostep-bench --bin twostep-dist -- \
    --quick --partitions 2 --cache-dir "$CACHE_DIR")"
cold_result="$(grep '^twostep-dist: result' <<<"$cold_out")"
warm_result="$(grep '^twostep-dist: result' <<<"$warm_out")"
echo "cold: $cold_result"
echo "warm: $warm_result"
if [[ "$cold_result" != "$warm_result" ]]; then
    echo "FAIL: warm cached report differs from cold report" >&2
    exit 1
fi
grep '^twostep-dist: cache cache_hits=0 ' <<<"$cold_out" >/dev/null \
    || { echo "FAIL: cold run must start with zero cache hits" >&2; exit 1; }
distinct="$(sed -n 's/.* distinct_states=\([0-9]*\).*/\1/p' <<<"$warm_result")"
grep "^twostep-dist: cache cache_hits=$distinct fresh_states=0$" <<<"$warm_out" >/dev/null \
    || { echo "FAIL: warm run must be answered entirely by the cache" >&2; exit 1; }
echo "cache OK: warm run reused all $distinct states"

echo "== suspend/resume: deadline-suspended partitioned run resumed from its cache (quick)"
RESUME_DIR="$(mktemp -d)"
trap 'rm -rf "$CACHE_DIR" "$RESUME_DIR"' EXIT
# An already-hopeless 1ms deadline over the whole pipeline: the run must
# suspend (exit 3) at a phase boundary with a parseable line, committing
# its partial memo to the cache, never a hard failure.
set +e
suspended_out="$(cargo run --release -q -p twostep-bench --bin twostep-dist -- \
    --quick --partitions 2 --symmetry off --deadline-ms 1 --cache-dir "$RESUME_DIR")"
suspended_code=$?
set -e
if [[ "$suspended_code" != "3" ]]; then
    echo "FAIL: deadline-budgeted run should suspend with exit 3, got $suspended_code" >&2
    echo "$suspended_out" >&2
    exit 1
fi
grep "^twostep-dist: suspended reason=deadline .*cache=$RESUME_DIR\$" <<<"$suspended_out" >/dev/null \
    || { echo "FAIL: suspended run must print a parseable suspension line naming the cache" >&2; exit 1; }
[[ -f "$RESUME_DIR/manifest.twocache" ]] \
    || { echo "FAIL: suspension committed no cache manifest in $RESUME_DIR" >&2; exit 1; }
# Resume without a deadline: a warm start whose report must be
# byte-identical to the uninterrupted run of the same system from
# earlier in this script.
resumed_out="$(cargo run --release -q -p twostep-bench --bin twostep-dist -- \
    --quick --partitions 2 --symmetry off --cache-dir "$RESUME_DIR")"
resumed_result="$(grep '^twostep-dist: result' <<<"$resumed_out")"
uninterrupted_result="$(grep '^twostep-dist: result' <<<"$dist_off_out")"
echo "resumed:       $resumed_result"
echo "uninterrupted: $uninterrupted_result"
if [[ "$resumed_result" != "$uninterrupted_result" ]]; then
    echo "FAIL: resumed report differs from the uninterrupted one" >&2
    exit 1
fi
# The suspension and the resume together committed the whole memo: a
# third run is answered entirely by the cache.
third_out="$(cargo run --release -q -p twostep-bench --bin twostep-dist -- \
    --quick --partitions 2 --symmetry off --cache-dir "$RESUME_DIR")"
distinct="$(sed -n 's/.* distinct_states=\([0-9]*\).*/\1/p' <<<"$resumed_result")"
grep "^twostep-dist: cache cache_hits=$distinct fresh_states=0$" <<<"$third_out" >/dev/null \
    || { echo "FAIL: the run after a resume must be answered entirely by the cache" >&2; exit 1; }
echo "suspend/resume OK: suspended at reason=deadline, resumed to an identical report, then fully warm"

echo "== allocation probe (plain and stepped drivers pinned to the allocs/state budget)"
cargo run --release -q --example alloc_probe

echo "CI OK"
