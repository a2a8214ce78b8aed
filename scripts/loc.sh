#!/usr/bin/env bash
# Non-test source lines, per crate: for every `src/**/*.rs` of a crate, the
# lines before its first `#[cfg(test)]` (or `#![cfg(test)]`: a file that is
# test-only from its first line counts nothing). This is the measure the
# size gates of ISSUEs and CHANGES.md quote ("pc-pst non-test lines"), so
# that a gate and its check are one command. Blank lines and comments
# count: the measure is what a reader has to scroll through.
#
# Usage: scripts/loc.sh [--files] [crate-dir | file.rs ...]
#   no arguments   every crate under crates/, one line each, and the total
#   crate-dir      only those (names under crates/: pst, pagestore, ...)
#   file.rs        that source file (a path from the repo root), so that a
#                  file-level gate is one command:
#                  scripts/loc.sh crates/pagestore/src/{store,version}.rs
#   --files        one line per source file of each crate as well
# With more than one crate or file, the last line is their total.
set -euo pipefail

cd "$(dirname "$0")/.."

FILES=0
CRATES=()
PATHS=()
for arg in "$@"; do
    case "$arg" in
        --files) FILES=1 ;;
        -*) echo "unknown argument: $arg (supported: --files)" >&2; exit 2 ;;
        *.rs) PATHS+=("$arg") ;;
        *) CRATES+=("$arg") ;;
    esac
done
if [ "${#CRATES[@]}" -eq 0 ] && [ "${#PATHS[@]}" -eq 0 ]; then
    for dir in crates/*/; do
        CRATES+=("$(basename "$dir")")
    done
fi

count() {
    awk '/#!?\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$1"
}

TOTAL=0
for file in "${PATHS[@]}"; do
    [ -f "$file" ] || { echo "no such file: $file" >&2; exit 2; }
    n="$(count "$file")"
    printf '%-46s %6d\n' "$file" "$n"
    TOTAL=$((TOTAL + n))
done
for crate in "${CRATES[@]}"; do
    src="crates/$crate/src"
    [ -d "$src" ] || { echo "no such crate: crates/$crate" >&2; exit 2; }
    sum=0
    while IFS= read -r file; do
        n="$(count "$file")"
        sum=$((sum + n))
        [ "$FILES" = 1 ] && printf '  %-44s %6d\n' "$file" "$n"
    done < <(find "$src" -name '*.rs' | sort)
    printf '%-46s %6d\n' "pc-$crate" "$sum"
    TOTAL=$((TOTAL + sum))
done
[ $(( ${#CRATES[@]} + ${#PATHS[@]} )) -gt 1 ] && printf '%-46s %6d\n' "total" "$TOTAL"
exit 0
