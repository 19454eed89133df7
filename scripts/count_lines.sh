#!/usr/bin/env bash
# Non-test lines of Rust source. For each file: the lines before its first
# `#[cfg(test)]` that starts a line (where its test module begins; the
# attribute indented inside an item does not end the count), then the
# total. A file without one counts whole. A `#[cfg(test)]` over an
# out-of-line module (`mod tests;` on the next line) is not where the file's
# tests begin: those two lines are skipped and the count goes on.
#
# Usage: scripts/count_lines.sh [file...]
#   With no files: every .rs under crates/*/src and src/, from the
#   repository root, except the test-only module files named tests.rs.
set -eu

if [ "$#" -eq 0 ]; then
    cd "$(dirname "$0")/.."
    mapfile -t files < <(find crates/*/src src -name '*.rs' -not -name tests.rs | sort)
    set -- "${files[@]}"
fi
total=0
for file in "$@"; do
    n=$(awk '
        cfg_test && /^mod [A-Za-z_][A-Za-z0-9_]*;$/ { cfg_test = 0; next }
        cfg_test { exit }
        /^#\[cfg\(test\)\]/ { cfg_test = 1; next }
        { n++ }
        END { print n + 0 }
    ' "$file")
    printf '%7d %s\n' "$n" "$file"
    total=$((total + n))
done
printf '%7d total\n' "$total"
