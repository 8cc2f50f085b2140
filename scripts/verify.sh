#!/usr/bin/env bash
# Full verification gate: tier-0 (clippy and rustdoc, deny warnings — a doc
# link to a deleted item fails the gate — plus a check build of perfbench,
# which is its own workspace, so a renamed crate API it calls would
# otherwise go unnoticed), tier-1 (build + every workspace test), tier-2
# (the deterministic crash-simulation suite in calc-sim, including the
# 64-seed smoke sweep, plain and with compressed parts), tier-3 (the
# concurrency conformance suite in calc-conform at three fixed base seeds;
# every test iterates both executor modes in-suite, so the pool and the
# shard-owned layout hold the same serializability contract), tier-4 (the
# transient-fault sweep, run serially and again with 4-way parallel
# checkpoint capture; like tier-2 it drives strategies serially and opens
# no engine, so it has no executor to vary), tier-5 (the two-node
# warm-standby failover sweep at three fixed base seeds), tier-6 (the
# calc-server suite:
# wire-protocol round trips over real TCP, the shutdown-under-load
# durability test, and the kill-9 smoke — the real server binary on an
# ephemeral port, concurrent writers, SIGKILL mid-traffic, restart over
# the same directory, and every acknowledged write must survive), and
# tier-7 (the chaos/overload suite at fixed seeds: wire-protocol fuzzing
# — garbage opcodes, oversized prefixes, truncated frames, slowloris —
# the overload sweep past saturation with a concurrent checkpoint, the
# connection-cap test, the fault-injecting proxy, and the engine-level
# adaptive-pacing regressions; replay a seed with CHAOS_SEED=<n>). Any
# failure panics with the exact replayable spec, reproducible via e.g.:
#
#   SIM_SEED=0xdeadbeef cargo test -p calc-sim
#   CONFORM_SEED=0xc0f020260000 cargo verify-conform
#
# Each conformance test derives its per-run seeds from the base seed, so
# overriding CONFORM_SEED replays the whole suite shifted to that base.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-0: clippy (deny warnings) =="
cargo clippy --workspace --all-targets --quiet -- -D warnings

echo "== tier-0: rustdoc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== tier-0: perfbench builds against the crates =="
cargo check --release --manifest-path perfbench/Cargo.toml --quiet

echo "== tier-1: release build =="
cargo build --release --workspace --quiet

echo "== tier-1: workspace tests =="
cargo test --workspace --quiet

echo "== tier-2: crash-simulation sweep (calc-sim) =="
cargo test --package calc-sim --quiet

echo "== tier-2: crash-simulation sweep, compressed parts (CKPT_CODEC=rle) =="
CKPT_CODEC=rle cargo test --package calc-sim --quiet

echo "== tier-3: concurrency conformance (calc-conform, 3 base seeds, both executors in-suite) =="
for seed in 0xC0F0202600000000 0x5EEDFACE00000001 0xA5A5A5A500000002; do
    echo "  -- CONFORM_SEED=${seed}"
    CONFORM_SEED="${seed}" cargo test --package calc-conform --quiet
done

echo "== tier-4: transient-fault sweep (calc-sim fault_sweep, 3 base seeds) =="
for seed in 0xFA175EED00000000 0xBADD15C000000001 0x0E05BC0000000002; do
    echo "  -- FAULT_SEED=${seed}"
    FAULT_SEED="${seed}" cargo test --package calc-sim --test fault_sweep --quiet
done

echo "== tier-4: transient-fault sweep, 4-way parallel capture =="
CKPT_THREADS=4 SIM_RECOVERY_STATS=1 \
    cargo test --package calc-sim --test fault_sweep --quiet

echo "== tier-5: warm-standby failover sweep (calc-sim failover_sweep, 3 base seeds) =="
for seed in 0xCA1C51B700000000 0x57A4DB1700000001 0xFA110E4200000002; do
    echo "  -- SIM_SEED=${seed}"
    SIM_SEED="${seed}" cargo test --package calc-sim --test failover_sweep --quiet
done

echo "== tier-6: server smoke (calc-server: wire verbs, shutdown under load, kill -9) =="
cargo test --package calc-server --quiet

echo "== tier-7: chaos/overload suite (fuzz + overload sweep + pacing, 2 fixed seeds) =="
for seed in 64222 1311768467750121216; do
    echo "  -- CHAOS_SEED=${seed}"
    CHAOS_SEED="${seed}" cargo test --package calc-server --test protocol_fuzz --quiet
    CHAOS_SEED="${seed}" cargo test --package calc-server --test overload_chaos --quiet
done
cargo test --package calc-sim --test overload_pacing --quiet

echo "verify: all gates green"
