#!/usr/bin/env bash
# Hermetic verification gate.
#
# Proves the workspace builds and tests with the network disabled, passes
# clippy with warnings denied, and that the dependency graph contains only
# workspace-local crates — i.e. nothing resolves from crates.io or any
# other registry. Run from anywhere; it cd's to the repo root.
#
# Both instrumentation modes are exercised: the default build (pc-obs
# compiled to no-ops) and `--features obs` (live tracing/metrics).
#
# Usage: scripts/verify.sh [--bench] [--chaos] [--cluster] [--crash] [--mvcc] [--serve] [--layout] [--obs]
#   --bench   additionally run the perf-trajectory benchmarks:
#             * pool_scaling, refreshing BENCH_pool.json;
#             * obs_overhead in both modes, merging the two reports into
#               BENCH_obs.json and GATING the off-mode marginal span cost
#             at <= 1% (the "observability is free when off" contract).
#   --layout  additionally run the physical-layout benchmark (build-order
#             vs van Emde Boas repacked, file-backed, cold cache when the
#             host permits dropping the page cache), refreshing
#             BENCH_layout.json and GATING the largest-n ratio: the
#             repacked layout must not be slower than build order.
#   --chaos   additionally re-run the fault-injection suites under a fresh
#             random seed (the fixed-seed runs are already part of the
#             workspace tests above). The seed is printed so a failure can
#             be reproduced verbatim with PC_CHAOS_SEED=<seed>.
#   --crash   additionally run the crash-point suite (kill-point matrix,
#             per-structure acked-survives, store durability, WAL codec
#             properties) in both instrumentation modes under a hard
#             timeout — a recovery hang is a failure, not a stall.
#   --cluster additionally gate the shard fabric: run the scatter-gather
#             merge property suite and the whole-node-kill chaos suite in
#             both instrumentation modes under hard timeouts (a hung
#             failover or replay is a failure, not a stall) and under one
#             fresh seed, then run the router smoke bench and check
#             BENCH_cluster.json: tail latency rows for 1/2/4 shards and a
#             hot-shard phase that actually shed on the hot shard.
#   --mvcc    additionally gate the versioning/MVCC subsystem: run the
#             snapshot-semantics property suite in both instrumentation
#             modes under hard timeouts, then the loadgen MVCC smoke
#             (identical read traffic with writers off vs on, an epoch
#             installed per acked write batch) and check BENCH_mvcc.json:
#             both phases completed, the writer actually installed epochs,
#             GC kept the retained window bounded, and the mixed-load read
#             p99 is within 25% of the read-only p99 — the "readers never
#             block on updates" contract, measured end to end.
#   --serve   additionally gate the service layer: build pc-serve and
#             pc-loadgen in both instrumentation modes, run the loadgen
#             smoke (self-spawned server, steady + overload-shed phases)
#             under a hard timeout, and check BENCH_server.json is
#             well-formed and actually shed load.
#   --obs     additionally gate the observability plane:
#             * the off-mode marginal span cost <= 1% (same measurement
#               as --bench, shared, runs once);
#             * the runtime 1-in-N sampling knob: a same-binary A/B
#               loadgen run (--sample 0 vs --sample 8) must show <= 3%
#               steady-phase p99 overhead;
#             * the scraped metrics block in BENCH_server.json: the
#               Prometheus text parses, the structured stats carry the
#               service and per-target families, and the slow-query log
#               drained entries with span trees.
set -euo pipefail

cd "$(dirname "$0")/.."

RUN_BENCH=0
RUN_CHAOS=0
RUN_CLUSTER=0
RUN_CRASH=0
RUN_MVCC=0
RUN_SERVE=0
RUN_LAYOUT=0
RUN_OBS=0
for arg in "$@"; do
    case "$arg" in
        --bench) RUN_BENCH=1 ;;
        --chaos) RUN_CHAOS=1 ;;
        --cluster) RUN_CLUSTER=1 ;;
        --crash) RUN_CRASH=1 ;;
        --mvcc) RUN_MVCC=1 ;;
        --serve) RUN_SERVE=1 ;;
        --layout) RUN_LAYOUT=1 ;;
        --obs) RUN_OBS=1 ;;
        *) echo "unknown argument: $arg (supported: --bench, --chaos, --cluster, --crash, --mvcc, --serve, --layout, --obs)" >&2; exit 2 ;;
    esac
done

# Temp files registered here are removed on exit (paths come from mktemp,
# never contain spaces).
TMPF=""
# shellcheck disable=SC2064
trap 'rm -f $TMPF' EXIT

echo "==> cargo build --release --offline"
cargo build --release --offline --workspace

echo "==> cargo test -q --offline --workspace"
cargo test -q --offline --workspace

echo "==> cargo test -q --offline --workspace --features obs"
cargo test -q --offline --workspace --features obs

echo "==> cargo build --offline --benches (bench harness compiles)"
cargo build --offline --benches --workspace

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo clippy --workspace --all-targets --features obs -- -D warnings"
cargo clippy --workspace --all-targets --offline --features obs -- -D warnings

echo "==> checking that the dependency graph is workspace-only"
# Every package in the resolved graph must come from a local path source
# (cargo metadata reports `"source": null` for path dependencies). Any
# registry/git source means the build is no longer hermetic.
METADATA="$(cargo metadata --format-version 1 --offline)"
NON_LOCAL="$(
  printf '%s' "$METADATA" | python3 -c '
import json, sys
meta = json.load(sys.stdin)
bad = [p["id"] for p in meta["packages"] if p["source"] is not None]
print("\n".join(bad))
'
)"
if [ -n "$NON_LOCAL" ]; then
    echo "ERROR: non-workspace packages in the dependency graph:" >&2
    echo "$NON_LOCAL" >&2
    exit 1
fi

COUNT="$(printf '%s' "$METADATA" | python3 -c 'import json,sys; print(len(json.load(sys.stdin)["packages"]))')"
echo "OK: all $COUNT packages are workspace-local; hermetic build verified"

if [ "$RUN_CHAOS" = 1 ]; then
    # The fixed-seed chaos runs are part of `cargo test --workspace` above;
    # this pass explores one fresh seed per invocation. On failure, rerun
    # the printed command to reproduce the exact scenario.
    CHAOS_SEED="$(python3 -c 'import secrets; print(secrets.randbits(64))')"
    echo "==> chaos suites under fresh seed $CHAOS_SEED"
    echo "    (reproduce with: PC_CHAOS_SEED=$CHAOS_SEED cargo test -q --test chaos)"
    PC_CHAOS_SEED="$CHAOS_SEED" cargo test -q --offline --test chaos
    echo "OK: chaos suites green under seed $CHAOS_SEED"
fi

if [ "$RUN_CRASH" = 1 ]; then
    # Kill-point matrix + per-structure acked-survives live in the
    # workspace-level crash_recovery suite; the store-level durability and
    # WAL-codec property suites live in pc-pagestore. All three run in both
    # instrumentation modes. The hard timeouts turn a recovery hang (a
    # replay loop that never terminates, a lock held across a crash point)
    # into a failure instead of a stuck CI job.
    echo "==> crash-point suite (hard timeout, default mode)"
    timeout 300 cargo test -q --offline --test crash_recovery
    timeout 300 cargo test -q --offline -p pc-pagestore --test durability --test wal_proptest
    echo "==> crash-point suite (hard timeout, --features obs)"
    timeout 300 cargo test -q --offline --test crash_recovery --features obs
    timeout 300 cargo test -q --offline -p pc-pagestore --features obs \
        --test durability --test wal_proptest
    echo "OK: crash-point suite green in both instrumentation modes"
fi

if [ "$RUN_CLUSTER" = 1 ]; then
    # The fixed-seed runs of both fabric suites are already part of
    # `cargo test --workspace` above; this pass re-runs them in both
    # instrumentation modes under hard timeouts (a wedged failover, health
    # loop, or journal replay must fail, not stall CI) plus one fresh seed.
    CLUSTER_SEED="$(python3 -c 'import secrets; print(secrets.randbits(64))')"
    echo "==> shard-fabric suites, default mode (hard timeout, fresh seed $CLUSTER_SEED)"
    echo "    (reproduce with: PC_CHAOS_SEED=$CLUSTER_SEED cargo test -q --test cluster_chaos --test router_merge)"
    PC_CHAOS_SEED="$CLUSTER_SEED" timeout 300 cargo test -q --offline \
        --test cluster_chaos --test router_merge
    echo "==> shard-fabric suites, --features obs (hard timeout, fixed seed)"
    timeout 300 cargo test -q --offline --features obs \
        --test cluster_chaos --test router_merge

    echo "==> cluster bench: build pc-loadgen + pc-router in both modes"
    cargo build --release --offline -p pc-loadgen -p pc-router
    cargo build --release --offline -p pc-router --features obs
    cargo build --release --offline -p pc-loadgen

    # Router smoke: self-spawns shard fleets of 1/2/4 nodes behind the
    # scatter-gather front-end for tail-latency rows, then a deliberately
    # skewed open-loop phase against undersized hot-shard queues — the
    # per-shard scrape must show the hot shard shedding while the cold
    # shards stay clean.
    echo "==> pc-loadgen --router --smoke (hard timeout 120s)"
    timeout 120 target/release/pc-loadgen --router --smoke --out BENCH_cluster.json

    python3 - BENCH_cluster.json <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["bench"] == "cluster", doc
assert doc["page_size"] > 0 and doc["hardware_threads"] > 0, doc
phases = {p["name"]: p for p in doc["phases"]}
for k in doc["shard_counts"]:
    row = phases[f"shards_{k}"]
    assert row["ok"] > 0, f"shards_{k}: zero completed requests"
    assert row["other_errors"] == 0, f"shards_{k}: unexpected errors: {row}"
    assert row["latency_ns"]["p50"] <= row["latency_ns"]["p99"], f"shards_{k}: malformed quantiles"
hot = phases["hot_shard"]
assert hot["overloaded"] > 0, "hot-shard phase never shed load"
per = hot["per_shard"]
errs = {}
for key, v in per.items():
    if key.startswith("pc_shard_errors_total"):
        errs[key.split('"')[1]] = v
hot_errs = errs.pop("0")
assert hot_errs > 0, f"hot shard shed nothing: {per}"
assert all(hot_errs >= v for v in errs.values()), f"shedding not concentrated on the hot shard: {errs}"
for k in doc["shard_counts"]:
    row = phases[f"shards_{k}"]
    print(f'shards={k}: {row["ok"]} ok @ {row["throughput_ops_s"]:.0f} ops/s, '
          f'p99={row["latency_ns"]["p99"]}ns')
print(f'hot-shard: {hot["ok"]} admitted / {hot["overloaded"]} shed; '
      f'hot errors={hot_errs}, cold max={max(errs.values())}')
PY
    echo "OK: shard-fabric suites green, BENCH_cluster.json refreshed"
fi

if [ "$RUN_MVCC" = 1 ]; then
    # The snapshot-semantics property suite (pinned snapshots are immutable
    # across installs, as_of replays are bit-identical, readers take zero
    # exclusive locks while batches install) in both instrumentation modes.
    # Hard timeouts: a reader blocked on an install is the exact bug class
    # this subsystem exists to rule out, and it must fail, not stall CI.
    echo "==> snapshot-semantics suite (hard timeout, default mode)"
    timeout 300 cargo test -q --offline --test snapshot_semantics
    echo "==> snapshot-semantics suite (hard timeout, --features obs)"
    timeout 300 cargo test -q --offline --test snapshot_semantics --features obs

    echo "==> mvcc bench: build pc-serve + pc-loadgen in both modes"
    cargo build --release --offline -p pc-serve -p pc-loadgen --features pc-serve/obs,pc-loadgen/obs
    cargo build --release --offline -p pc-serve -p pc-loadgen

    # MVCC smoke: the same closed-loop read traffic twice, writers off vs
    # on (a paced temporal insert/expire stream, one epoch per acked
    # batch). Readers pin snapshots and never block, so the mixed-phase
    # read p99 must stay within 25% of the read-only p99. The histogram
    # buckets are powers of two, so an equal-bucket ratio of 1.0 is the
    # expected outcome and the 1.25 gate tolerates exactly zero bucket
    # steps; up to three attempts absorb scheduler noise on busy hosts.
    echo "==> pc-loadgen --mvcc --smoke (hard timeout 120s)"
    MVCC_PASS=0
    for attempt in 1 2 3; do
        timeout 120 target/release/pc-loadgen --mvcc --smoke --out BENCH_mvcc.json
        if python3 - BENCH_mvcc.json <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["bench"] == "mvcc", doc
assert doc["page_size"] > 0 and doc["hardware_threads"] > 0, doc
phases = {p["name"]: p for p in doc["phases"]}
assert "read_only" in phases and "mixed_read" in phases, list(phases)
for name, p in phases.items():
    assert p["ok"] > 0, f"{name}: zero completed reads"
    assert p["other_errors"] == 0, f"{name}: unexpected errors: {p}"
    assert p["latency_ns"]["p50"] <= p["latency_ns"]["p99"], f"{name}: malformed quantiles"
mixed = phases["mixed_read"]
assert mixed["writes"] > 0, "mixed phase: writer installed nothing"
assert mixed["write_errors"] == 0, f"mixed phase: write errors: {mixed}"
v = doc["versions"]
assert v["installed"] > 0, f"no epochs installed: {v}"
assert v["current"] == v["installed"], f"one epoch per applied batch: {v}"
assert v["oldest"] <= v["current"], f"malformed retained window: {v}"
ratio = doc["p99_ratio"]
print(f'read_only p99={phases["read_only"]["latency_ns"]["p99"]}ns, '
      f'mixed p99={mixed["latency_ns"]["p99"]}ns under {mixed["writes"]} writes '
      f'({v["installed"]} epochs, {v["reclaimed_pages"]} pages reclaimed); '
      f'ratio {ratio:.3f} (gate: <= 1.25)')
sys.exit(0 if ratio <= 1.25 else 1)
PY
        then
            MVCC_PASS=1
            break
        fi
        echo "attempt $attempt: mvcc gate not met, retrying"
    done
    if [ "$MVCC_PASS" != 1 ]; then
        echo "GATE FAILED: mixed-load read p99 > 1.25x read-only p99" >&2
        exit 1
    fi
    echo "OK: snapshot suites green in both modes, BENCH_mvcc.json refreshed, p99 gate passed"
fi

if [ "$RUN_SERVE" = 1 ]; then
    echo "==> service layer: build pc-serve + pc-loadgen in both modes"
    cargo build --release --offline -p pc-serve -p pc-loadgen
    cargo build --release --offline -p pc-serve -p pc-loadgen --features pc-serve/obs,pc-loadgen/obs

    # Loadgen smoke: self-spawns a server on an ephemeral port, runs a
    # steady closed-loop phase plus an overload-shed phase against a
    # deliberately undersized queue. The hard timeout turns any hang (the
    # exact bug class the idle/read timeouts exist for) into a failure.
    # --scrape --sample 8 exercises the observability plane in passing:
    # the artifact carries a mid-run and final ADMIN scrape (structured
    # stats, Prometheus text, slow-query log) next to the latency phases.
    echo "==> pc-loadgen --smoke --scrape --sample 8 (hard timeout 120s)"
    timeout 120 target/release/pc-loadgen --smoke --scrape --sample 8 --out BENCH_server.json

    python3 - BENCH_server.json <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["bench"] == "server", doc
phases = {p["name"]: p for p in doc["phases"]}
assert "steady" in phases and "shed" in phases, list(phases)
for name, p in phases.items():
    assert p["ok"] > 0, f"{name}: zero completed requests"
    assert p["latency_ns"]["p50"] <= p["latency_ns"]["p99"], f"{name}: malformed quantiles"
assert phases["shed"]["overloaded"] > 0, "shed phase never shed load"
print(f'steady: {phases["steady"]["ok"]} ok @ {phases["steady"]["throughput_ops_s"]:.0f} ops/s, '
      f'p99={phases["steady"]["latency_ns"]["p99"]}ns')
print(f'shed: {phases["shed"]["ok"]} admitted / {phases["shed"]["overloaded"]} overloaded, '
      f'admitted p99={phases["shed"]["latency_ns"]["p99"]}ns')
PY
    echo "OK: BENCH_server.json refreshed, service smoke passed"
fi

# Off-mode span-cost gate, shared by --bench and --obs (runs at most once
# per invocation): obs_overhead in both modes, merged into BENCH_obs.json,
# gating the disabled-mode marginal cost at <= 1% — the "observability is
# free when off" contract.
OBS_OVERHEAD_DONE=0
obs_overhead_gate() {
    if [ "$OBS_OVERHEAD_DONE" = 1 ]; then
        return 0
    fi
    echo "==> cargo bench -p pc-bench --bench obs_overhead (both modes)"
    OBS_OFF_JSON="$(mktemp)"
    OBS_ON_JSON="$(mktemp)"
    TMPF="$TMPF $OBS_OFF_JSON $OBS_ON_JSON"
    PC_BENCH_OUT="$OBS_OFF_JSON" cargo bench --offline -p pc-bench --bench obs_overhead
    PC_BENCH_OUT="$OBS_ON_JSON" cargo bench --offline -p pc-bench --features obs --bench obs_overhead
    # Merge the two runs into one artifact and gate the off-mode cost:
    # with pc-obs compiled out, an extra span per op must be free (<= 1%).
    python3 - "$OBS_OFF_JSON" "$OBS_ON_JSON" <<'PY'
import json, sys
off = json.load(open(sys.argv[1]))
on = json.load(open(sys.argv[2]))
assert off["obs_enabled"] == "false" and on["obs_enabled"] == "true", \
    f'mode mixup: off={off["obs_enabled"]} on={on["obs_enabled"]}'
merged = {"bench": "obs_overhead", "off": off, "on": on}
with open("BENCH_obs.json", "w") as f:
    json.dump(merged, f, indent=2)
    f.write("\n")
pct = off["overhead_pct"]
print(f'off-mode marginal span overhead: {pct:+.2f}% (gate: <= 1%)')
print(f'on-mode marginal span overhead: {on["overhead_pct"]:+.2f}% (informational)')
if pct > 1.0:
    sys.exit(f"GATE FAILED: disabled-mode span overhead {pct:.2f}% > 1%")
PY
    echo "OK: BENCH_obs.json refreshed, off-mode overhead gate passed"
    OBS_OVERHEAD_DONE=1
}

if [ "$RUN_BENCH" = 1 ]; then
    echo "==> cargo bench -p pc-bench --bench pool_scaling (perf trajectory)"
    cargo bench --offline -p pc-bench --bench pool_scaling
    echo "OK: BENCH_pool.json refreshed"

    obs_overhead_gate
fi

if [ "$RUN_LAYOUT" = 1 ]; then
    # Wall-clock complement of the strict-model transfer counts: the
    # repack pass is only worth shipping if the vEB layout is never slower
    # than build order on a real file. A tie is acceptable (warm page
    # cache, fast device); a regression is not. The 10% headroom absorbs
    # timer noise on busy hosts.
    echo "==> cargo bench -p pc-bench --bench layout_bench (hard timeout 600s)"
    timeout 600 cargo bench --offline -p pc-bench --bench layout_bench
    python3 - BENCH_layout.json <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["bench"] == "layout", doc
assert doc["page_size"] > 0 and doc["hardware_threads"] > 0, doc
assert doc["rows"], "no measurement rows"
for row in doc["rows"]:
    assert row["build_ns_per_query"] > 0 and row["packed_ns_per_query"] > 0, row
ratio = doc["ratio_largest_n"]
largest = doc["rows"][-1]
print(f'largest n={largest["n"]}: build {largest["build_ns_per_query"]}ns, '
      f'packed {largest["packed_ns_per_query"]}ns, ratio {ratio:.3f} '
      f'(cold_cache={doc["cold_cache"]})')
if ratio > 1.10:
    sys.exit(f"GATE FAILED: repacked layout is {ratio:.3f}x build order (> 1.10)")
PY
    echo "OK: BENCH_layout.json refreshed, layout gate passed"
fi

if [ "$RUN_OBS" = 1 ]; then
    # (a) instrumentation is free when compiled out.
    obs_overhead_gate

    echo "==> observability plane: build release pc-serve + pc-loadgen"
    cargo build --release --offline -p pc-serve -p pc-loadgen

    # (b) the runtime sampling knob is compiled into release binaries, so
    # its price is gated end to end: the *same* loadgen/server binary runs
    # the smoke twice, --sample 0 vs --sample 8, and the steady-phase p99
    # must not degrade by more than 3%. The latency histogram buckets are
    # powers of two, so identical p99s are the expected outcome; when the
    # bucket differs the gate falls back to the mean with the same 3%
    # headroom (a one-bucket p99 jump is a 2x step, pure quantization).
    # 20k ops per arm — the 2k-op smoke is too short to resolve 3% — and
    # up to three attempts absorb scheduler noise on busy hosts.
    echo "==> sampling-overhead A/B (same binary, --sample 0 vs --sample 8)"
    AB_OFF="$(mktemp)"
    AB_ON="$(mktemp)"
    TMPF="$TMPF $AB_OFF $AB_ON"
    AB_ARGS="--ops 20000 --conns 2 --points 5000"
    AB_PASS=0
    for attempt in 1 2 3; do
        # shellcheck disable=SC2086
        timeout 120 target/release/pc-loadgen $AB_ARGS --sample 0 --out "$AB_OFF" >/dev/null
        # shellcheck disable=SC2086
        timeout 120 target/release/pc-loadgen $AB_ARGS --sample 8 --out "$AB_ON" >/dev/null
        if python3 - "$AB_OFF" "$AB_ON" <<'PY'
import json, sys
off = json.load(open(sys.argv[1]))
on = json.load(open(sys.argv[2]))
assert off["trace_sample_every"] == 0 and on["trace_sample_every"] == 8, "arm mixup"
def steady(doc):
    return next(p for p in doc["phases"] if p["name"] == "steady")
s_off, s_on = steady(off), steady(on)
p99_off, p99_on = s_off["latency_ns"]["p99"], s_on["latency_ns"]["p99"]
mean_off, mean_on = s_off["latency_ns"]["mean"], s_on["latency_ns"]["mean"]
print(f"p99 off={p99_off}ns on={p99_on}ns | mean off={mean_off:.0f}ns on={mean_on:.0f}ns")
if p99_on <= p99_off * 1.03:
    sys.exit(0)
if mean_on <= mean_off * 1.03:
    print("p99 moved a (power-of-two) bucket; mean within 3% — accepting")
    sys.exit(0)
sys.exit(1)
PY
        then
            AB_PASS=1
            break
        fi
        echo "attempt $attempt: sampling overhead above gate, retrying"
    done
    if [ "$AB_PASS" != 1 ]; then
        echo "GATE FAILED: 1-in-8 sampling adds > 3% steady-phase latency" >&2
        exit 1
    fi
    echo "OK: sampling-mode overhead gate passed"

    # (c) the scraped metrics block in BENCH_server.json is well-formed.
    # Always regenerated here with the default (no-features) binary built
    # above — --serve's feature build overwrites target/release/pc-loadgen
    # in place, and committed artifacts come from the default build.
    echo "==> pc-loadgen --smoke --scrape --sample 8 (hard timeout 120s)"
    timeout 120 target/release/pc-loadgen --smoke --scrape --sample 8 --out BENCH_server.json
    python3 - BENCH_server.json <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["bench"] == "server", doc
assert doc["trace_sample_every"] == 8, doc.get("trace_sample_every")
scrape = doc["scrape"]
for when in ("mid", "final"):
    s = scrape[when]
    assert s["metrics_families"] > 0, f"{when}: no metric families"
    stats = s["stats"]
    assert stats, f"{when}: empty structured stats"
    # Every Prometheus line is a TYPE declaration, a comment, or a
    # `name value` sample with a parseable value.
    typed = set()
    for line in s["metrics_text"].splitlines():
        if not line:
            continue
        if line.startswith("# TYPE "):
            fam, kind = line[len("# TYPE "):].split()
            assert kind in ("counter", "gauge", "histogram"), line
            assert fam not in typed, f"duplicate TYPE {fam}"
            typed.add(fam)
            continue
        if line.startswith("#"):
            continue
        name, value = line.rsplit(" ", 1)
        float(value)  # raises on malformed samples
    assert len(typed) == s["metrics_families"], f"{when}: family count drifted"
final = scrape["final"]["stats"]
assert final["pc_serve_requests_total"] > 0, "no requests recorded"
assert any(k.startswith("pc_target_") for k in final), "per-target families missing"
assert final["pc_serve_traces_retained_total"] > 0, "sampling retained no traces"
assert isinstance(scrape["final"]["slowlog"], list) and scrape["final"]["slowlog"], \
    "slow-query log never populated"
for e in scrape["final"]["slowlog"]:
    assert e["spans"] >= 1, f"slowlog entry without a span tree: {e}"
print(f'scrape ok: {scrape["final"]["metrics_families"]} families, '
      f'{final["pc_serve_requests_total"]} requests, '
      f'{final["pc_serve_traces_retained_total"]} traces retained, '
      f'{len(scrape["final"]["slowlog"])} slowlog entries')
PY
    echo "OK: observability gates passed (off-mode cost, sampling A/B, scrape block)"
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
