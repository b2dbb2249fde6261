#!/usr/bin/env bash
# CI gate for the HYPRE reproduction workspace:
#   non-test line count (printed, not gated) → fmt check → clippy
#   (warnings are errors) → build (all targets) → tests → the
#   untrusted-input suites again in release → perfbench fmt check,
#   clippy (warnings are errors), self-tests, a one-second untraced
#   smoke run of each workload (printing max_rate_rps and setup_s), one
#   traced run of hot_zipf (printing the set-up phases relstore.load_s,
#   graph.load_s and exec.warm_s, and sched.run_us, which the snapshot's
#   answer memo keeps low there) and one traced run of adhoc_cold
#   (printing the fresh-atom layers sched.run_us, exec.resolve_us,
#   relstore.select_us and peps.top_k_us, and trace.unattributed_share,
#   the share of sched.run_us its composed phases leave over) → rustdoc
#   (warnings are errors) → compile-and-run every example (doc rot and broken
#   examples fail CI). perfbench is its own workspace, so the
#   workspace-wide fmt and clippy never reach it; its own steps make an
#   API change that breaks the benchmark fail CI, and the smoke runs fail
#   CI when the server answers wrongly or fails requests; the printed
#   metrics decide nothing.
#
# Usage: scripts/ci.sh [--release-bench] [--bench-1m]
#   --release-bench  additionally regenerates the bench report and runs
#                    the bench-regression guard (slow; off by default).
#                    The output and baseline names are derived from the
#                    checked-in BENCH_PR*.json files: with BENCH_PR<n>
#                    the newest, the report is written to
#                    BENCH_PR<n+1>.json and compared against
#                    BENCH_PR<n>.json; any headline row (pairwise build,
#                    PEPS top-k) regressing by more than 25% exits
#                    non-zero, and so does any live_ingest row whose
#                    delta ingest is no faster than a full re-warm
#                    (ingest_ns >= rewarm_ns), and so does a baseline
#                    file that cannot be read.
#   --bench-1m       pass --bench-1m through to bench_report: stream a
#                    million-paper corpus (override the size with
#                    BENCH_1M_PAPERS) and record single-shot end-to-end
#                    storage/serving timings in the storage_1m section.
#                    Implies the bench run. Slow and memory-hungry —
#                    meant for the manual bench-gate job, never the
#                    per-push gate.
#
# Each example runs under `timeout` (EXAMPLE_TIMEOUT seconds, default
# 300) with its output captured; a failing or hanging example prints its
# captured output instead of failing silently. The bench run gets its
# own budget (BENCH_TIMEOUT seconds, default 3600 — the million-paper
# sweep is minutes, not seconds), and any snapshot temp files the bench
# leaves in TMPDIR are removed on exit even if it is killed mid-save.
set -euo pipefail
cd "$(dirname "$0")/.."

release_bench=0
bench_1m=0
for arg in "$@"; do
    case "${arg}" in
        --release-bench) release_bench=1 ;;
        --bench-1m)
            release_bench=1
            bench_1m=1
            ;;
        *)
            echo "unknown flag: ${arg} (supported: --release-bench --bench-1m)" >&2
            exit 2
            ;;
    esac
done

# The figure simplicity changes quote; printed for the log, never gated.
echo "==> non-test line count (scripts/loc.sh): $(scripts/loc.sh)"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release --workspace --all-targets"
cargo build --release --workspace --all-targets

echo "==> cargo test --workspace"
cargo test --workspace -q

# Release builds have no overflow checks, so arithmetic on untrusted
# sizes can wrap there instead of panicking: run the suites that feed
# the engine untrusted bytes (snapshot files, wire frames) in release
# too. The release test binaries were built with --all-targets above.
echo "==> cargo test --release (untrusted-input suites)"
cargo test --release -q --test snapshot_format --test server_protocol

# perfbench/ is a workspace of its own (the repo benchmark), so the
# workspace fmt, clippy and test runs above never reach it.
echo "==> cargo fmt --check (perfbench)"
cargo fmt --check --manifest-path perfbench/Cargo.toml

echo "==> cargo clippy --all-targets -- -D warnings (perfbench)"
cargo clippy --offline --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings

echo "==> cargo test (perfbench)"
cargo test --offline -q --manifest-path perfbench/Cargo.toml

# perfbench_smoke <workload> <trace> <metric>...: one one-second run of
# the workload. The last line of output is the result, which must report
# every checked answer correct and no failed request; the named metrics
# are printed for the log and do not decide the outcome.
perfbench_smoke() {
    local workload="$1" trace="$2"
    shift 2
    local result metric pattern
    result="$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "${workload}" --seed 1 --seconds 1 --trace "${trace}" | tail -n 1)"
    for metric in "$@"; do
        pattern="\"${metric}\": [{]\"value\": ([^,]+)"
        if [[ "${result}" =~ ${pattern} ]]; then
            echo "    ${metric} = ${BASH_REMATCH[1]}"
        fi
    done
    if [[ "${result}" != *'"correct": true'* || "${result}" != *'"failed": 0,'* ]]; then
        echo "perfbench ${workload} smoke run (trace ${trace}) failed: ${result}" >&2
        exit 1
    fi
}

# One short untraced run per workload (~40 s for all three), printing
# its end-to-end metrics.
for workload in hot_zipf adhoc_cold live_ingest; do
    echo "==> perfbench smoke run: ${workload}"
    perfbench_smoke "${workload}" 0 max_rate_rps setup_s
done
# One short traced run, printing the set-up phases behind setup_s: the
# relstore load, the HYPRE graph load and the profile warm-up; and the
# batch, which repeated requests answer from the snapshot's memo.
echo "==> perfbench traced smoke run: hot_zipf (set-up phases, batch)"
perfbench_smoke hot_zipf 1 relstore.load_s graph.load_s exec.warm_s sched.run_us
# And one of adhoc_cold, printing what a request with one fresh atom
# costs: the batch, the atom resolutions, the relstore scans and the
# PEPS rounds, and how far the composed phases are from the batch (it
# reads negative where the served batch takes its pairwise table from
# the snapshot's memo and the composed replay builds it).
echo "==> perfbench traced smoke run: adhoc_cold (fresh-atom layers)"
perfbench_smoke adhoc_cold 1 sched.run_us exec.resolve_us relstore.select_us peps.top_k_us \
    trace.unattributed_share

echo "==> cargo doc --workspace --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

EXAMPLE_TIMEOUT="${EXAMPLE_TIMEOUT:-300}"
example_log="$(mktemp)"
# The bench writes warm snapshots as hypre_bench_*.hyprsnap in TMPDIR
# and normally removes them itself; the trap covers a bench killed
# mid-run (timeout, ^C) so temp files never accumulate on a runner.
trap 'rm -f "${example_log}" "${TMPDIR:-/tmp}"/hypre_bench_*.hyprsnap' EXIT
for example in examples/*.rs; do
    name="$(basename "${example%.rs}")"
    echo "==> example: ${name} (timeout ${EXAMPLE_TIMEOUT}s)"
    status=0
    timeout "${EXAMPLE_TIMEOUT}" \
        cargo run --quiet --release --example "${name}" \
        >"${example_log}" 2>&1 || status=$?
    if [[ "${status}" -ne 0 ]]; then
        if [[ "${status}" -eq 124 ]]; then
            echo "example ${name} timed out after ${EXAMPLE_TIMEOUT}s" >&2
        else
            echo "example ${name} failed (exit ${status})" >&2
        fi
        echo "---- ${name} output ----" >&2
        cat "${example_log}" >&2
        echo "---- end ${name} output ----" >&2
        exit "${status}"
    fi
done

if [[ "${release_bench}" -eq 1 ]]; then
    BENCH_TIMEOUT="${BENCH_TIMEOUT:-3600}"
    bench_flags=()
    if [[ "${bench_1m}" -eq 1 ]]; then
        bench_flags+=(--bench-1m)
    fi
    # Derive both file names from what is *checked in* (git, not the
    # working tree — stray reports from earlier local runs must not
    # become the comparison point), so this script never needs editing
    # when a new BENCH_PR*.json lands.
    baseline="$(git ls-files 'BENCH_PR*.json' 2>/dev/null | sort -V | tail -1 || true)"
    if [[ -z "${baseline}" ]]; then
        baseline="$(ls BENCH_PR*.json 2>/dev/null | sort -V | tail -1 || true)"
    fi
    if [[ -n "${baseline}" ]]; then
        num="${baseline#BENCH_PR}"
        num="${num%.json}"
        out="BENCH_PR$((num + 1)).json"
        echo "==> bench_report (${out} + regression guard vs ${baseline}, timeout ${BENCH_TIMEOUT}s)"
        timeout "${BENCH_TIMEOUT}" \
            cargo run --release -p hypre-bench --bin bench_report \
            ${bench_flags[@]+"${bench_flags[@]}"} "${out}" "${baseline}"
    else
        echo "==> bench_report (BENCH_PR1.json, no baseline yet, timeout ${BENCH_TIMEOUT}s)"
        timeout "${BENCH_TIMEOUT}" \
            cargo run --release -p hypre-bench --bin bench_report \
            ${bench_flags[@]+"${bench_flags[@]}"} BENCH_PR1.json
    fi
fi

echo "CI OK"
