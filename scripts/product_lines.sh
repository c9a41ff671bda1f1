#!/usr/bin/env bash
# Print the product lines of every source file under `crates/*/src/` and
# `src/` (binaries included) and their total.
#
# A file's product lines are its lines before the first `#[cfg(test)]`
# (all of them when it has none): the code the crates ship, without their
# unit tests. CHANGES.md records this count for each change.
#
# Usage: scripts/product_lines.sh   (from anywhere inside the repository)
set -euo pipefail
cd "$(dirname "$0")/.."
total=0
for f in $(find crates/*/src src -name '*.rs' | LC_ALL=C sort); do
    n=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")
    printf '%6d  %s\n' "$n" "$f"
    total=$((total + n))
done
printf '%6d  total\n' "$total"
