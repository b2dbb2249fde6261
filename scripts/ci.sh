#!/usr/bin/env bash
# CI gate for the HYPRE reproduction workspace:
#   fmt check → clippy (warnings are errors) → build (all targets) →
#   tests → perfbench self-tests → rustdoc (warnings are errors) →
#   compile-and-run every example (doc rot and broken examples fail CI).
#
# Usage: scripts/ci.sh [--release-bench] [--scaling] [--bench-1m]
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
#   --scaling        pass --scaling through to bench_report so the
#                    report includes 1/2/4/8-worker scaling curves for
#                    the pairwise build, PEPS top-k and batched serving.
#                    Implies the bench run. On a 1-core host the report
#                    records an explicit skip marker instead of curves;
#                    the headline guard never keys on core count, so
#                    this mode is safe on any runner.
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
scaling=0
bench_1m=0
for arg in "$@"; do
    case "${arg}" in
        --release-bench) release_bench=1 ;;
        --scaling)
            release_bench=1
            scaling=1
            ;;
        --bench-1m)
            release_bench=1
            bench_1m=1
            ;;
        *)
            echo "unknown flag: ${arg} (supported: --release-bench --scaling --bench-1m)" >&2
            exit 2
            ;;
    esac
done

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release --workspace --all-targets"
cargo build --release --workspace --all-targets

echo "==> cargo test --workspace"
cargo test --workspace -q

# perfbench/ is a workspace of its own (the repo benchmark), so the
# workspace run above never reaches its tests.
echo "==> cargo test (perfbench)"
cargo test --offline -q --manifest-path perfbench/Cargo.toml

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
    if [[ "${scaling}" -eq 1 ]]; then
        bench_flags+=(--scaling)
    fi
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
