#!/usr/bin/env bash
# Prints the workspace's non-test line count: every tracked `.rs` file
# outside `crates/shims/`, `tests/` and `perfbench/`, each counted up to
# (not including) its first `#[cfg(test)]` line, plus `scripts/ci.sh`.
# A tracked file deleted from the working tree but not yet staged is
# skipped, so the count is always of what is on disk.
# This is the figure simplicity changes quote as "parent → change".
#
# Usage: scripts/loc.sh    (run from anywhere inside the checkout)
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

rust=$(git ls-files -z -- '*.rs' ':!:crates/shims/' ':!:tests/' ':!:perfbench/' |
    while IFS= read -r -d '' f; do
        if [[ -e $f ]]; then printf '%s\0' "$f"; fi
    done |
    xargs -0 awk '/^[[:space:]]*#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n + 0 }' |
    awk '{ total += $1 } END { print total + 0 }')
shell=$(wc -l < scripts/ci.sh)
echo $((rust + shell))
