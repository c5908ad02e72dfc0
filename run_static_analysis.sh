#!/bin/sh
# Static-analysis gate for the workspace: formatting, clippy, the
# ldp-lint determinism/panic-safety pass (see DESIGN.md "Correctness
# invariants"), the test suite, smoke runs of the `hotpath` microbench
# (which must produce BENCH_hotpath.json) and the study binaries, and a
# full-size reproduction of the committed seeded results. Run before
# sending a PR. The workspace has no registry dependencies, so every
# step runs offline.
set -u

root=$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)
cd "$root" || exit 2
fail=0

note() { printf '== %s\n' "$*"; }

note "cargo fmt --check"
cargo fmt --all --check || fail=1

note "cargo clippy (denies unwrap/expect/panic in hot-path crates)"
cargo clippy --workspace --all-targets -- -D warnings || fail=1

note "cargo doc (rustdoc warnings, e.g. broken intra-doc links, are fatal)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q || fail=1

note "cargo build --release (ldp-lint and the bench binaries)"
cargo build --release -q -p ldp-lint -p ldp-bench --bins || exit 2
bin=${CARGO_TARGET_DIR:-$root/target}/release

note "ldp-lint check (JSON mode; unused allowlist entries are fatal)"
lint_json=${TMPDIR:-/tmp}/ldp-lint-report.json
lint_t0=$(date +%s%N)
"$bin/ldp-lint" check --deny-unused-allows --format json > "$lint_json" || fail=1
lint_t1=$(date +%s%N)
lint_ms=$(( (lint_t1 - lint_t0) / 1000000 ))
note "ldp-lint wall time: ${lint_ms}ms (budget 2000ms)"
if [ "$lint_ms" -gt 2000 ]; then
    note "FAILED: ldp-lint exceeded its 2s wall-time budget"
    fail=1
fi
# report re-parses the JSON (exit 2 on malformed output) and prints
# per-rule violation counts.
"$bin/ldp-lint" report "$lint_json" || fail=1

note "cargo test"
cargo test --workspace -q || fail=1

note "hotpath microbench smoke run"
rm -f BENCH_hotpath.json
"$bin/hotpath" BENCH_hotpath.json || fail=1

note "fig_outage chaos smoke run (determinism + resilience gates)"
"$bin/fig_outage" --smoke || fail=1

note "fig_trace telemetry smoke run (stage breakdown + determinism gates)"
"$bin/fig_trace" --smoke || fail=1

note "fig_cache delayed-hits smoke run (determinism + dedup + eviction gates)"
"$bin/fig_cache" --smoke || fail=1

note "fig_recovery smoke run (crash recovery + crash-storm fuzzy-cut gates)"
"$bin/fig_recovery" --smoke --storm || fail=1

note "reproduction: full-size seeded results must equal results/"
repro=$(mktemp -d) || exit 2
mkdir -p "$repro/results"
(
    cd "$repro" || exit 2
    "$bin/fig_outage" > results/fig_outage.txt &&
        "$bin/fig_cache" > results/fig_cache.txt &&
        "$bin/fig_recovery" --storm > results/fig_recovery.txt &&
        "$bin/fig_trace" > /dev/null
) || fail=1
for f in fig_outage fig_cache fig_recovery fig_trace; do
    if diff -u "results/$f.txt" "$repro/results/$f.txt"; then
        note "results/$f.txt reproduces"
    else
        note "FAILED: results/$f.txt does not reproduce"
        fail=1
    fi
done
rm -rf "$repro"

if [ -f BENCH_hotpath.json ]; then
    note "BENCH_hotpath.json written"
    # Encode-path gates: the scratch-reuse encode rewrite must keep
    # encode at least as fast as decode, and the server template and
    # NXDOMAIN benches must be present in the report.
    bench_num() {
        awk -F: -v key="\"$1\"" '$1 ~ key { gsub(/[ ,]/, "", $2); print int($2); exit }' \
            BENCH_hotpath.json
    }
    enc=$(bench_num encode_msgs_per_sec)
    dec=$(bench_num decode_msgs_per_sec)
    tpl=$(bench_num template_answers_per_sec)
    if [ -z "$enc" ] || [ -z "$dec" ] || [ "$enc" -lt "$dec" ]; then
        note "FAILED: wire.encode_msgs_per_sec (${enc:-missing}) < wire.decode_msgs_per_sec (${dec:-missing})"
        fail=1
    else
        note "encode/decode gate: ${enc} >= ${dec} msgs/s"
    fi
    if [ -z "$tpl" ]; then
        note "FAILED: server.template_answers_per_sec missing from BENCH_hotpath.json"
        fail=1
    else
        note "server template bench: ${tpl} answers/s"
    fi
    # The B-Root shape's general path (unique junk names, NXDOMAIN
    # against a root zone) must be measured too.
    nxd=$(bench_num nxdomain_answers_per_sec)
    if [ -z "$nxd" ]; then
        note "FAILED: server.nxdomain_answers_per_sec missing from BENCH_hotpath.json"
        fail=1
    else
        note "server NXDOMAIN bench: ${nxd} answers/s"
    fi
    # Resolver-cache gate: the three answer-path rates must be present,
    # and the warm-hit path must not be slower than the full miss path
    # (lookup + lead registration + insert + eviction).
    chit=$(bench_num cache_hit_per_sec)
    cdel=$(bench_num cache_delayed_hit_per_sec)
    cmiss=$(bench_num cache_miss_per_sec)
    if [ -z "$chit" ] || [ -z "$cdel" ] || [ -z "$cmiss" ]; then
        note "FAILED: resolver.cache_{hit,delayed_hit,miss}_per_sec missing from BENCH_hotpath.json"
        fail=1
    elif [ "$chit" -lt "$cmiss" ]; then
        note "FAILED: resolver.cache_hit_per_sec ($chit) < cache_miss_per_sec ($cmiss)"
        fail=1
    else
        note "resolver cache bench: hit ${chit}, delayed-hit ${cdel}, miss ${cmiss} ops/s"
    fi
    # Guard gate: the v2 fuzzy-cut checkpoint serialization bench must
    # be present (the binary itself enforces the ≤3% guard overhead
    # budget before writing the report).
    fuzzy=$(bench_num fuzzy_checkpoint_per_sec)
    if [ -z "$fuzzy" ]; then
        note "FAILED: guard.fuzzy_checkpoint_per_sec missing from BENCH_hotpath.json"
        fail=1
    else
        note "guard fuzzy-checkpoint bench: ${fuzzy} round-trips/s"
    fi
    # Simulator gate: the single-shard event rate and the raw event-queue
    # rate must be present.
    for key in events_per_sec raw_queue_ops_per_sec; do
        rate=$(bench_num "$key")
        if [ -z "$rate" ]; then
            note "FAILED: sim.$key missing from BENCH_hotpath.json"
            fail=1
        else
            note "sim bench ($key): ${rate}/s"
        fi
    done
    # Sharded-simulator gate: all three shard-count rates must be
    # present (the hotpath binary itself asserts the sharded event
    # counts equal the single-shard run before reporting them).
    for n in 1 2 8; do
        eps=$(bench_num "sharded_events_per_sec_$n")
        if [ -z "$eps" ]; then
            note "FAILED: sim.sharded_events_per_sec_$n missing from BENCH_hotpath.json"
            fail=1
        else
            note "sharded sim bench (shards=$n): ${eps} events/s"
        fi
    done
else
    note "FAILED: hotpath bench produced no BENCH_hotpath.json"
    fail=1
fi

if [ "$fail" -eq 0 ]; then
    note "static analysis OK"
else
    note "static analysis FAILED"
fi
exit "$fail"
