#!/usr/bin/env bash
# Hermetic verification gate.
#
# Proves the workspace builds and tests with the network disabled, that
# EXPERIMENTS.md is what the `experiments` binary prints, passes clippy with
# warnings denied, and that the dependency graph contains only
# workspace-local crates — i.e. nothing resolves from crates.io or any
# other registry. Run from anywhere; it cd's to the repo root.
#
# The workspace has one build configuration — no package declares a cargo
# feature, and the metadata check below keeps it that way — so every gate
# runs once: one `cargo test`, one `cargo clippy`.
#
# Usage: scripts/verify.sh [--chaos] [--crash]
#   --chaos   additionally re-run the fault-injection and shard-fabric
#             suites and the oracle under a fresh random seed and a hard
#             timeout (the fixed-seed runs are already part of the
#             workspace tests above), and tests/chaos.rs at every seed
#             1-64. The seed is printed so a failure can be reproduced
#             verbatim with PC_CHAOS_SEED=<seed>.
#   --crash   additionally run the crash-point suite (kill-point matrices,
#             store durability, WAL codec properties) under a hard timeout —
#             a recovery hang is a failure, not a stall — then the
#             kill-point matrices once more under a fresh random seed,
#             printed so a failure reproduces with PC_CHAOS_SEED=<seed>.
set -euo pipefail

cd "$(dirname "$0")/.."

RUN_CHAOS=0
RUN_CRASH=0
for arg in "$@"; do
    case "$arg" in
        --chaos) RUN_CHAOS=1 ;;
        --crash) RUN_CRASH=1 ;;
        *) echo "unknown argument: $arg (supported: --chaos, --crash)" >&2; exit 2 ;;
    esac
done

echo "==> cargo build --release --offline"
cargo build --release --offline --workspace

# The benchmark package imports a frozen surface of pc-serve, pc-pst and
# pc-pagestore (ISSUE 22 lists it). Building it here makes a break of that
# surface a compile error now, apart from the package's own tests — which
# run last, and whose stale smoke assertion (ROADMAP 3f) still ends the
# script red.
echo "==> cargo build --release --offline --manifest-path benchmark/Cargo.toml"
cargo build --release --offline --manifest-path benchmark/Cargo.toml

echo "==> cargo test -q --offline --workspace"
cargo test -q --offline --workspace

# EXPERIMENTS.md is the standard output of the `experiments` binary (every
# number a page count over seeded data, so the same bytes on every run): a
# layout change shows as the rows this diff prints, and lands by
# regenerating the file. The binary also exits 1 past a `pc_bench::*_PINS`
# constant. ~45 s.
echo "==> experiments | diff - EXPERIMENTS.md"
cargo run --release --offline --quiet -p pc-bench --bin experiments | diff - EXPERIMENTS.md

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

# A doc link to a renamed item, or a citation like `[KRV]` that rustdoc
# parses as a link, fails here rather than rendering as dead text.
echo "==> cargo doc --workspace --no-deps (rustdoc warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> checking that the dependency graph is workspace-only, feature-free and used"
# Every package in the resolved graph must come from a local path source
# (cargo metadata reports `"source": null` for path dependencies). Any
# registry/git source means the build is no longer hermetic. No package
# may declare a cargo feature: each one is a second build configuration
# that every gate above would have to run again. And every declared
# dependency's crate name must occur in the declaring package's sources,
# so that the crate graph of DESIGN §3 is the real one — but for the three
# edges `benchmark/Cargo.lock` records, which go in the PR that may change
# that file (ROADMAP 3f). `jq` reads the metadata and `grep -w` finds the
# uses, so the script needs nothing past bash, coreutils, grep and jq.
METADATA="$(cargo metadata --format-version 1 --offline)"
LOCKED_BY_BENCHMARK=" pc-pst>pc-btree pc-intervaltree>pc-btree pc-segtree>pc-btree "
BAD="$(
  printf '%s' "$METADATA" | jq -r '.packages[] | select(.source != null)
      | "non-workspace package: \(.id)"'
  printf '%s' "$METADATA" | jq -r '.packages[] | .name as $p | .features | keys[]
      | "cargo feature declared: \($p)/\(.)"'
  printf '%s' "$METADATA" | jq -r '.packages[]
      | (.manifest_path | sub("/Cargo.toml$"; "")) as $root | .name as $p
      | .dependencies[] | "\($p) \(.name) \($root)"' |
  while read -r pkg dep root; do
      case "$LOCKED_BY_BENCHMARK" in *" $pkg>$dep "*) continue ;; esac
      dirs=()
      for d in src tests examples; do
          if [ -d "$root/$d" ]; then dirs+=("$root/$d"); fi
      done
      if [ "${#dirs[@]}" -eq 0 ] || ! grep -rqw --include='*.rs' "${dep//-/_}" "${dirs[@]}"; then
          echo "unused dependency: $pkg -> $dep"
      fi
  done
)"
if [ -n "$BAD" ]; then
    echo "ERROR: the dependency graph is not workspace-only, feature-free and used:" >&2
    echo "$BAD" >&2
    exit 1
fi

COUNT="$(printf '%s' "$METADATA" | jq '.packages | length')"
echo "OK: all $COUNT packages are workspace-local, declare no feature and use what they declare; hermetic build verified"

# CHANGES.md quotes the size gates of these crates; printing them here
# keeps a gate and its check one command.
echo "==> scripts/loc.sh serve pst btree segtree pagestore intervaltree (non-test source lines)"
scripts/loc.sh serve pst btree segtree pagestore intervaltree
# The durable publish path's files (ROADMAP item 14's gate).
echo "==> scripts/loc.sh crates/pagestore/src/{store,wal,recovery,version}.rs"
scripts/loc.sh crates/pagestore/src/{store,wal,recovery,version}.rs

# ROADMAP 13(e): the newest CHANGES.md entry — its `- ` line and every
# line after it, FOUND / MENDED ones included — stays short.
echo "==> the newest CHANGES.md entry: at most 15 lines of at most 100 columns"
ENTRY="$(awk '/^- /{buf=""} {buf=buf $0 "\n"} END{printf "%s", buf}' CHANGES.md)"
ENTRY_LINES="$(printf '%s\n' "$ENTRY" | wc -l)"
ENTRY_COLS="$(printf '%s\n' "$ENTRY" | LC_ALL=C.UTF-8 wc -L)"
if [ "$ENTRY_LINES" -gt 15 ] || [ "$ENTRY_COLS" -gt 100 ]; then
    echo "ERROR: the newest CHANGES.md entry is $ENTRY_LINES lines, $ENTRY_COLS columns at its widest" >&2
    exit 1
fi
echo "OK: $ENTRY_LINES lines, $ENTRY_COLS columns at its widest"

if [ "$RUN_CHAOS" = 1 ]; then
    # On failure, rerun the printed command to reproduce the exact
    # scenario. The hard timeout turns a wedged failover, health loop or
    # journal replay into a failure instead of a stuck CI job.
    CHAOS_SEED="$(od -An -N8 -tu8 /dev/urandom | tr -d ' ')"
    echo "==> chaos and shard-fabric suites under fresh seed $CHAOS_SEED"
    echo "    (reproduce with: PC_CHAOS_SEED=$CHAOS_SEED cargo test -q --test chaos --test cluster_chaos --test oracle)"
    PC_CHAOS_SEED="$CHAOS_SEED" timeout 300 cargo test -q --offline \
        --test chaos --test cluster_chaos --test oracle
    echo "OK: chaos suites green under seed $CHAOS_SEED"
    # A fixed sweep as well: a fault class that only some seeds reach (a
    # torn write that loses the write, found by sweeping by hand) shows
    # here on every run, not on one fresh seed in twenty.
    echo "==> tests/chaos.rs at PC_CHAOS_SEED 1..64"
    for seed in $(seq 1 64); do
        PC_CHAOS_SEED="$seed" timeout 120 cargo test -q --offline --test chaos >/dev/null \
            || { echo "ERROR: tests/chaos.rs fails at PC_CHAOS_SEED=$seed" >&2; exit 1; }
    done
    echo "OK: tests/chaos.rs green at seeds 1..64"
fi

if [ "$RUN_CRASH" = 1 ]; then
    # The kill-point matrices live in the workspace-level crash_recovery
    # suite (every structure's answers after a seeded kill are the oracle's,
    # which --chaos reseeds); the store-level durability and WAL-codec
    # property suites live in pc-pagestore. The hard timeouts turn a
    # recovery hang (a replay loop that never terminates, a lock held across
    # a crash point) into a failure instead of a stuck CI job.
    echo "==> crash-point suite (hard timeout)"
    timeout 300 cargo test -q --offline --test crash_recovery
    timeout 300 cargo test -q --offline -p pc-pagestore --test durability --test wal_proptest
    CRASH_SEED="$(od -An -N8 -tu8 /dev/urandom | tr -d ' ')"
    echo "==> kill-point matrices under fresh seed $CRASH_SEED"
    echo "    (reproduce with: PC_CHAOS_SEED=$CRASH_SEED cargo test -q --test crash_recovery)"
    PC_CHAOS_SEED="$CRASH_SEED" timeout 300 cargo test -q --offline --test crash_recovery
    echo "OK: crash-point suite green (fixed seeds and seed $CRASH_SEED)"
fi

# The benchmark package stands outside the workspace and carries its own
# assumptions about the layouts (its smoke run asserts the cold pool still
# misses and that BENCHMARK.json names what the program emits), so a layout
# change that breaks them fails here, before the driver runs it. It runs
# last: what it asserts can only be re-pinned by a PR that changes nothing
# but `benchmark/`, and until one does a stale line there must not keep
# the steps above from running.
echo "==> cargo test -q --offline --manifest-path benchmark/Cargo.toml"
cargo test -q --offline --manifest-path benchmark/Cargo.toml
