#!/usr/bin/env bash
# Non-test source lines, per crate: for every `src/**/*.rs` of a crate, the
# lines before its first `#[cfg(test)]` (or `#![cfg(test)]`: a file that is
# test-only from its first line counts nothing). This is the measure the
# size gates of ISSUEs and CHANGES.md quote ("pc-pst non-test lines"), so
# that a gate and its check are one command. Blank lines and comments
# count: the measure is what a reader has to scroll through.
#
# Usage: scripts/loc.sh [--files] [crate-dir ...]
#   no arguments   every crate under crates/, one line each, and the total
#   crate-dir      only those (names under crates/: pst, pagestore, ...)
#   --files        one line per source file as well
set -euo pipefail

cd "$(dirname "$0")/.."

FILES=0
CRATES=()
for arg in "$@"; do
    case "$arg" in
        --files) FILES=1 ;;
        -*) echo "unknown argument: $arg (supported: --files)" >&2; exit 2 ;;
        *) CRATES+=("$arg") ;;
    esac
done
if [ "${#CRATES[@]}" -eq 0 ]; then
    for dir in crates/*/; do
        CRATES+=("$(basename "$dir")")
    done
fi

TOTAL=0
for crate in "${CRATES[@]}"; do
    src="crates/$crate/src"
    [ -d "$src" ] || { echo "no such crate: crates/$crate" >&2; exit 2; }
    sum=0
    while IFS= read -r file; do
        n="$(awk '/#!?\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")"
        sum=$((sum + n))
        [ "$FILES" = 1 ] && printf '  %-44s %6d\n' "$file" "$n"
    done < <(find "$src" -name '*.rs' | sort)
    printf '%-46s %6d\n' "pc-$crate" "$sum"
    TOTAL=$((TOTAL + sum))
done
[ "${#CRATES[@]}" -gt 1 ] && printf '%-46s %6d\n' "total" "$TOTAL"
exit 0
