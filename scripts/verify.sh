#!/usr/bin/env bash
# Hermetic verification gate.
#
# Proves the workspace builds and tests with the network disabled, passes
# clippy with warnings denied, and that the dependency graph contains only
# workspace-local crates — i.e. nothing resolves from crates.io or any
# other registry. Run from anywhere; it cd's to the repo root.
#
# The workspace has one build configuration — no package declares a cargo
# feature, and the metadata check below keeps it that way — so every gate
# runs once: one `cargo test`, one `cargo clippy`.
#
# Usage: scripts/verify.sh [--chaos] [--crash]
#   --chaos   additionally re-run the fault-injection and shard-fabric
#             suites under a fresh random seed and a hard timeout (the
#             fixed-seed runs are already part of the workspace tests
#             above). The seed is printed so a failure can be reproduced
#             verbatim with PC_CHAOS_SEED=<seed>.
#   --crash   additionally run the crash-point suite (kill-point matrix,
#             per-structure acked-survives, store durability, WAL codec
#             properties) under a hard timeout — a recovery hang is a
#             failure, not a stall.
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

echo "==> cargo build --offline --benches (bench harness compiles)"
cargo build --offline --benches --workspace

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> checking that the dependency graph is workspace-only and feature-free"
# Every package in the resolved graph must come from a local path source
# (cargo metadata reports `"source": null` for path dependencies). Any
# registry/git source means the build is no longer hermetic. And no
# package may declare a cargo feature: each one is a second build
# configuration that every gate above would have to run again.
METADATA="$(cargo metadata --format-version 1 --offline)"
BAD="$(
  printf '%s' "$METADATA" | python3 -c '
import json, sys
meta = json.load(sys.stdin)
for p in meta["packages"]:
    if p["source"] is not None:
        print("non-workspace package:", p["id"])
    for feature in p["features"]:
        print("cargo feature declared:", p["name"] + "/" + feature)
'
)"
if [ -n "$BAD" ]; then
    echo "ERROR: the dependency graph is not workspace-only and feature-free:" >&2
    echo "$BAD" >&2
    exit 1
fi

COUNT="$(printf '%s' "$METADATA" | python3 -c 'import json,sys; print(len(json.load(sys.stdin)["packages"]))')"
echo "OK: all $COUNT packages are workspace-local and declare no feature; hermetic build verified"

# The size gates of ISSUEs and CHANGES.md quote these two crates; printing
# them here keeps a gate and its check one command.
echo "==> scripts/loc.sh serve pst (non-test source lines)"
scripts/loc.sh serve pst

if [ "$RUN_CHAOS" = 1 ]; then
    # On failure, rerun the printed command to reproduce the exact
    # scenario. The hard timeout turns a wedged failover, health loop or
    # journal replay into a failure instead of a stuck CI job.
    CHAOS_SEED="$(python3 -c 'import secrets; print(secrets.randbits(64))')"
    echo "==> chaos and shard-fabric suites under fresh seed $CHAOS_SEED"
    echo "    (reproduce with: PC_CHAOS_SEED=$CHAOS_SEED cargo test -q --test chaos --test cluster_chaos --test router_merge)"
    PC_CHAOS_SEED="$CHAOS_SEED" timeout 300 cargo test -q --offline \
        --test chaos --test cluster_chaos --test router_merge
    echo "OK: chaos suites green under seed $CHAOS_SEED"
fi

if [ "$RUN_CRASH" = 1 ]; then
    # Kill-point matrix + per-structure acked-survives live in the
    # workspace-level crash_recovery suite; the store-level durability and
    # WAL-codec property suites live in pc-pagestore. The hard timeouts turn
    # a recovery hang (a replay loop that never terminates, a lock held
    # across a crash point) into a failure instead of a stuck CI job.
    echo "==> crash-point suite (hard timeout)"
    timeout 300 cargo test -q --offline --test crash_recovery
    timeout 300 cargo test -q --offline -p pc-pagestore --test durability --test wal_proptest
    echo "OK: crash-point suite green"
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
