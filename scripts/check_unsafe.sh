#!/usr/bin/env bash
# `unsafe` lives in one crate:
#   * every crates/*/src/lib.rs and shims/*/src/lib.rs except crates/poll
#     carries #![forbid(unsafe_code)] (forbid, not deny: no inner `allow`
#     can lift it);
#   * the word `unsafe` occurs in non-comment Rust source only under
#     crates/poll/src (clippy's `undocumented_unsafe_blocks = "deny"` sees
#     to the `// SAFETY:` comment there).
#
# Usage: scripts/check_unsafe.sh
set -u

cd "$(dirname "$0")/.."
EXEMPT=crates/poll/src
failures=0

for lib in crates/*/src/lib.rs shims/*/src/lib.rs; do
    if [ "$lib" = "$EXEMPT/lib.rs" ]; then
        continue
    fi
    if grep -q '^#!\[forbid(unsafe_code)\]' "$lib"; then
        echo "ok   $lib forbids unsafe code"
    else
        echo "FAIL $lib: no #![forbid(unsafe_code)]" >&2
        failures=$((failures + 1))
    fi
done

# Line comments (and doc comments) stripped; `unsafe_code` is another word.
while IFS= read -r file; do
    hits=$(sed 's://.*$::' "$file" | grep -nw unsafe)
    if [ -n "$hits" ]; then
        echo "FAIL $file: \`unsafe\` outside $EXEMPT" >&2
        echo "$hits" | sed 's/^/    /' >&2
        failures=$((failures + 1))
    fi
done < <(find . -name '*.rs' \
    -not -path './target/*' -not -path './perf/target/*' \
    -not -path './.bench_build/*' -not -path "./$EXEMPT/*")

uses=$(sed 's://.*$::' "$EXEMPT"/*.rs | grep -cw unsafe)
if [ "$uses" -ne 1 ]; then
    echo "FAIL $EXEMPT: $uses uses of \`unsafe\`, expected the one call" >&2
    failures=$((failures + 1))
else
    echo "ok   $EXEMPT holds the workspace's one unsafe block"
fi

if [ "$failures" -ne 0 ]; then
    echo "check_unsafe: $failures failure(s)" >&2
    exit 1
fi
echo "check_unsafe: unsafe code is confined to $EXEMPT"
