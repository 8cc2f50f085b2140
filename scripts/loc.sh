#!/usr/bin/env bash
# Per-crate non-test LOC: lines of `crates/*/src/**/*.rs` outside
# `#[cfg(test)] mod …` blocks (every test module in this repo is the last
# item of its file, so a file is counted up to its first such block).
# `shims/` (the vendored stand-ins for parking_lot and crossbeam) is
# counted the same way and printed beside the crates but kept out of
# `total`, so the total stays comparable with earlier PRs; `total+shims`
# is the one number ROADMAP item 7's target is read off.
# Usage: scripts/loc.sh [repo-root]   (default: this checkout)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

# Non-test lines of every .rs file under the given directories.
count() {
    find "$@" -name '*.rs' -print0 | xargs -0 awk '
        FNR == 1 { in_tests = 0; pending = 0 }
        in_tests { next }
        pending && /^[[:space:]]*(pub )?mod / { in_tests = 1; pending = 0; count--; next }
        { pending = ($0 ~ /^[[:space:]]*#\[cfg\(test\)\]/); count++ }
        END { print count + 0 }'
}

total=0
for crate in crates/*/; do
    n=$(count "${crate}src")
    printf '%-12s %6d\n' "$(basename "$crate")" "$n"
    total=$((total + n))
done
printf '%-12s %6d\n' total "$total"
shims=$(count shims/*/src)
printf '%-12s %6d\n' '(shims)' "$shims"
printf '%-12s %6d\n' total+shims "$((total + shims))"
