#!/usr/bin/env bash
# Full verification gate: tier-0 (a grep that the engine wraps no lock of
# its own around the group committer — the commit log's section is the
# one commit point; a grep that the committer's queue is its own staging
# buffer, not a channel that wakes the sync thread per record; a grep
# that no third benchmark harness comes back —
# no `[[bench]]` target, no `criterion`, only the two shims; a grep that
# the deleted shard-owned executor stays deleted; greps that restart has
# one seal rule and never reads the log into a Vec; a grep that the
# checkpoint daemon, per-merge and emergency threads and the locks that
# ordered them stay deleted (one checkpoint worker); greps that the
# second checkpoint format stays deleted (no part or manifest version
# constant of the bare record stream) and that parts have one encoding
# (no RLE codec, no `CKPT_CODEC`, no `raw_bytes` or `comp_len` field);
# greps that a running node reads
# no checkpoint byte back (the directory's deep scans `scan`, `scan_on`
# and `recovery_chain` stay deleted, and non-test code outside
# calc-recovery never calls `restart_chain`, the restart's listing whose
# chain the load checks as it streams it); greps
# that transactions lock in their store's lock words (no crates/*/src
# file outside calc-txn names the `LockManager` wrapper, and the lock
# table's `ACQUIRE_SCRATCH` and `to_lock_set` stay deleted); a grep that
# `unsafe` in crates/*/src appears only in the prefetch hint's file
# (calc-common's prefetch.rs); a grep that no store under crates/storage
# or crates/baselines builds a capacity-sized per-slot array eagerly (the
# slot arena backs its chunks as slots are handed out); a grep that the
# full-MVCC stand-in and its figure stay deleted (no `Mvcc`,
# `MvccStrategy` or `ablation_mvcc` in crates/*/src) and that there is
# one store type (`SlotTable::new(` is called from one place in
# crates/*/src, calc_storage::Store<P>); a grep that the group
# committer's fsync pacing stays deleted (no `pace_until` or
# `window / 8` in crates/recovery/src: a waited batch closes on the
# evidence rule alone, so durable commits follow the disk); a grep that
# the commit-path capacity model stays deleted (no `observe_commit`,
# `capacity_tps`, `tps_ewma` or `latency_ewma` in crates/*/src: the load
# level has one source, the admission gate); a grep that a restart is
# one node (no `StandbyRunner`, `tail_heartbeat`, `record_standby_lag`,
# `record_tail_exit`, `tail_stalled`, `standby_applied_seq` or
# `poll_interval` in crates/*/src: a standby's lag is what its polls
# return, and the node it becomes has the one `Health`); clippy and
# rustdoc, deny warnings — a doc link to a deleted item fails the gate —
# plus a check build of perfbench, which is its own workspace, so a
# renamed crate API it calls would otherwise go unnoticed), then tier-1
# (build + every workspace test).
#
# Tier-1 owns every suite's *default* seed. `cargo test --workspace` already
# runs, with no seed variable set:
#   calc-sim     at SIM_SEED=0xCA1C51B700000000, FAULT_SEED=0xFA175EED00000000
#                — the crash-simulation suite incl. the 64-seed smoke sweep
#                (tier-2), the transient-fault sweep (tier-4), the
#                warm-standby failover sweep (tier-5), the adaptive-pacing
#                regressions (tier-7) and the group-commit, loader, lane,
#                tail, tail-trim, retention and fallback-clear mutants; every
#                restart in it is the
#                server's, the node's own standby drained and promoted, and
#                every crash experiment ends in a second lifetime on the
#                promoted engine and one more restart;
#   calc-conform at CONFORM_SEED=0xC0F0202600000000 — the concurrency
#                conformance suite and its mutation smoke (tier-3), on
#                the one executor, the paper's worker pool;
#   calc-server  — wire-protocol round trips over real TCP, shutdown under
#                load, the kill-9 smoke (tier-6), and the chaos/overload
#                suite at its default CHAOS_SEED.
# Ten seeded mutants prove those oracles can fail, each caught by its
# owning suite in tier-1: skip-lock, stale-stable-read and late-phase-stamp
# by calc-conform's mutation smoke; ack-before-fsync, oldest-wins-on-load,
# skip-lane-barrier, skip-tail-segment, skip-tail-trim,
# truncate-above-floor and skip-clear-on-fallback by calc-sim's
# group_commit_mutant, loader_mutant, lane_mutant, tail_mutant,
# tail_trim_mutant, retention_mutant and fallback_clear_mutant. Tier-0
# checks that each still has its suite.
# The later tiers therefore run only what tier-1 does not: tier-2 the
# crash-simulation suite again with two-part checkpoints, so every
# restart loads and replays on two lanes (tier-1's default is one);
# tiers 3, 4 and 5
# their two *other* base seeds; tier-4 once more with 4-way parallel
# capture (like tier-2 it drives strategies serially and opens no engine,
# so it has no executor to vary); tier-7 the wire fuzzer (garbage opcodes,
# oversized prefixes, truncated frames, slowloris) and the overload sweep
# (past saturation with a concurrent checkpoint, the connection cap, the
# fault-injecting proxy) at two fixed seeds. The `cargo verify-*` aliases
# (.cargo/config.toml) still run any one suite alone. Any failure panics
# with the exact replayable spec, reproducible via e.g.:
#
#   SIM_SEED=0xdeadbeef cargo test -p calc-sim
#   CONFORM_SEED=0xc0f020260000 cargo verify-conform
#   CHAOS_SEED=<n> cargo verify-overload
#
# Each conformance test derives its per-run seeds from the base seed, so
# overriding CONFORM_SEED replays the whole suite shifted to that base.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-0: one commit point (no lock around the group committer) =="
if grep -rn "cmdlog.lock()" crates/engine/src; then
    echo "verify: the commit log's section is the only lock on the commit path" >&2
    exit 1
fi

echo "== tier-0: commit records are staged, not sent (no channel under the group committer) =="
if grep -n 'unbounded' crates/recovery/src/group_commit.rs; then
    echo "verify: committers stage under the queue's own lock and wake the sync thread only for cause" >&2
    exit 1
fi

echo "== tier-0: two benchmark harnesses (perfbench, figures), two shims =="
if grep -n '\[\[bench\]\]\|criterion' Cargo.toml crates/*/Cargo.toml shims/*/Cargo.toml perfbench/Cargo.toml; then
    echo "verify: performance numbers come from perfbench or figures; no [[bench]] targets, no criterion" >&2
    exit 1
fi
if [ "$(echo shims/*)" != "shims/crossbeam shims/parking_lot" ]; then
    echo "verify: shims/ holds only crossbeam and parking_lot, found: $(echo shims/*)" >&2
    exit 1
fi

echo "== tier-0: one executor (the worker pool; no shard ownership) =="
# (This file names the patterns, so it is the one file not searched.)
if grep -rnE --exclude=verify.sh 'ShardOwned|shard_owned|EXEC_MODE|OwnerHandoff|ShardRouter' \
    crates src tests examples scripts; then
    echo "verify: the shard-owned executor was deleted; the pool is the only executor" >&2
    exit 1
fi

echo "== tier-0: one restart path (one seal rule; restarts stream the log) =="
if [ "$(grep -rn 'advance_to(' crates/*/src | grep -vc 'fn advance_to(')" != 1 ]; then
    grep -rn 'advance_to(' crates/*/src >&2
    echo "verify: the id/seq spaces resume in one place, the shared seal" >&2
    exit 1
fi
if grep -rn 'read_dir_logs' crates/engine/src crates/server/src; then
    echo "verify: a restart streams the log through the standby's tailer, never a Vec" >&2
    exit 1
fi

echo "== tier-0: one checkpoint worker (no daemon, no per-job threads, no ordering locks) =="
# (This file names the patterns, so it is the one file not searched.)
if grep -rnE --exclude=verify.sh \
    'CheckpointService|calc-merger|calc-emergency-retention|merge_serial|checkpoint_serial|merge_retry_pending' \
    crates/engine/src; then
    echo "verify: every cycle, merge and retention pass runs on the one checkpoint worker" >&2
    exit 1
fi

echo "== tier-0: one checkpoint format (every part framed; no version-1 branch; one encoding) =="
if grep -rnE 'VERSION_COMPRESSED|MANIFEST_VERSION_CODEC' crates/core/src; then
    echo "verify: part files and manifests have one version each; the bare record stream is gone" >&2
    exit 1
fi
if grep -rnE '\bRle\b|CKPT_CODEC|raw_bytes|comp_len' crates/*/src; then
    echo "verify: a part's frames hold the raw records; the codec and its size fields are gone" >&2
    exit 1
fi

echo "== tier-0: one catalog (a running node reads no checkpoint byte back) =="
if grep -rnE 'fn scan\(|fn scan_on|recovery_chain' crates/*/src; then
    echo "verify: the checkpoint directory answers from its catalog; only a restart lists it again" >&2
    exit 1
fi
# Calls outside `#[cfg(test)] mod` blocks (each is its file's last item)
# and outside comments.
relist_calls=$(find crates/*/src -name '*.rs' -print0 | xargs -0 awk '
    FNR == 1 { in_tests = 0; pending = 0 }
    in_tests { next }
    pending && /^[[:space:]]*(pub )?mod / { in_tests = 1; next }
    { pending = ($0 ~ /^[[:space:]]*#\[cfg\(test\)\]/) }
    /restart_chain\(/ && !/^[[:space:]]*\/\// && !/fn restart_chain\(/ { print FILENAME ":" FNR ": " $0 }' |
    grep -v '^crates/recovery/src/' || true)
if [ -n "$relist_calls" ]; then
    echo "$relist_calls" >&2
    echo "verify: only calc-recovery (restart, standby bootstrap) may re-list the checkpoint directory" >&2
    exit 1
fi

echo "== tier-0: one lock path (transaction locks live in the slot table's lock words) =="
if grep -rlw 'LockManager' crates/*/src | grep -v '^crates/txn/src/'; then
    echo "verify: the engine locks in its store's lock words; LockManager is perfbench's wrapper" >&2
    exit 1
fi
# (This file names the patterns, so it is the one file not searched.)
if grep -rnE --exclude=verify.sh 'ACQUIRE_SCRATCH|to_lock_set' crates src tests examples scripts; then
    echo "verify: the key-level lock table and its per-transaction lock-set Vec were deleted" >&2
    exit 1
fi

echo "== tier-0: unsafe code only in the prefetch hint =="
if grep -rlw 'unsafe' crates/*/src | grep -vx 'crates/common/src/prefetch.rs'; then
    echo "verify: the prefetch hint holds the only non-test unsafe block" >&2
    exit 1
fi

echo "== tier-0: per-slot arrays are backed on first use (no eager capacity-sized array) =="
# A range over the capacity mapped into an array, on one line or with the
# `.map(` on the next; the arena's own module builds its chunk table so.
if grep -rnE '\(0\.\.[^)]*capacity[^)]*\)[[:space:]]*(\.map\(|$)' crates/storage/src crates/baselines/src |
    grep -v '^crates/storage/src/arena.rs:'; then
    echo "verify: per-slot contents live in a SlotArena, whose chunks are backed as slots are handed out" >&2
    exit 1
fi

echo "== tier-0: only the paper's strategies (the full-MVCC stand-in stays deleted) =="
if grep -rnE 'Mvcc|ablation_mvcc' crates/*/src; then
    echo "verify: full multi-versioning was measured and retired (DESIGN.md §12); no strategy keeps its own index" >&2
    exit 1
fi

echo "== tier-0: one store type (the slot table is built in one place) =="
if [ "$(grep -rn 'SlotTable::new(' crates/*/src | wc -l)" != 1 ]; then
    grep -rn 'SlotTable::new(' crates/*/src >&2
    echo "verify: calc_storage::Store<P> is the one store; a scheme adds a payload, not a store beside it" >&2
    exit 1
fi

echo "== tier-0: durable commits follow the disk (no fsync pacing interval) =="
if grep -rnE 'pace_until|window / 8' crates/recovery/src; then
    echo "verify: a waited batch closes on the evidence rule alone; no timer paces the fsyncs" >&2
    exit 1
fi

echo "== tier-0: one load signal (the admission gate; no commit-path capacity model) =="
if grep -rnE 'observe_commit|capacity_tps|tps_ewma|latency_ewma' crates/*/src; then
    echo "verify: the load level is graded from the admission gate alone; commits are counted in Metrics" >&2
    exit 1
fi

echo "== tier-0: a restart is one node (no standby Health, no tail runner) =="
if grep -rnE 'StandbyRunner|tail_heartbeat|record_standby_lag|record_tail_exit|tail_stalled|standby_applied_seq|poll_interval' \
    crates/*/src; then
    echo "verify: a standby's lag is what its polls return; the promoted node keeps the one Health" >&2
    exit 1
fi

echo "== tier-0: every seeded mutant has an owning suite =="
for mutant in SkipLock StaleStableRead LatePhaseStamp AckBeforeFsync OldestWinsOnLoad SkipLaneBarrier \
    SkipTailSegment SkipTailTrim TruncateAboveFloor SkipClearOnFallback; do
    if ! grep -rqE "(assert_detected|arm)\(Mutation::${mutant}\)" crates/conform/tests crates/sim/tests; then
        echo "verify: mutant ${mutant} is armed by no test" >&2
        exit 1
    fi
done
if [ "$(grep -c '^    Mutation::' crates/common/src/mutation.rs)" != 10 ]; then
    echo "verify: mutation::ALL no longer lists the ten mutants named here" >&2
    exit 1
fi

echo "== tier-0: clippy (deny warnings) =="
cargo clippy --workspace --all-targets --quiet -- -D warnings

echo "== tier-0: rustdoc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== tier-0: perfbench builds against the crates =="
cargo check --release --manifest-path perfbench/Cargo.toml --quiet

echo "== tier-1: release build =="
cargo build --release --workspace --quiet

echo "== tier-1: workspace tests (every suite at its default seed) =="
cargo test --workspace --quiet

echo "== tier-2: crash-simulation sweep, two-lane restarts (CKPT_THREADS=2) =="
CKPT_THREADS=2 cargo test --package calc-sim --quiet

echo "== tier-3: concurrency conformance (calc-conform, 2 more base seeds) =="
for seed in 0x5EEDFACE00000001 0xA5A5A5A500000002; do
    echo "  -- CONFORM_SEED=${seed}"
    CONFORM_SEED="${seed}" cargo test --package calc-conform --quiet
done

echo "== tier-4: transient-fault sweep (calc-sim fault_sweep, 2 more base seeds) =="
for seed in 0xBADD15C000000001 0x0E05BC0000000002; do
    echo "  -- FAULT_SEED=${seed}"
    FAULT_SEED="${seed}" cargo test --package calc-sim --test fault_sweep --quiet
done

echo "== tier-4: transient-fault sweep, 4-way parallel capture =="
CKPT_THREADS=4 cargo test --package calc-sim --test fault_sweep --quiet

echo "== tier-5: warm-standby failover sweep (calc-sim failover_sweep, 2 more base seeds) =="
for seed in 0x57A4DB1700000001 0xFA110E4200000002; do
    echo "  -- SIM_SEED=${seed}"
    SIM_SEED="${seed}" cargo test --package calc-sim --test failover_sweep --quiet
done

echo "== tier-7: chaos/overload suite (fuzz + overload sweep, 2 fixed seeds) =="
for seed in 64222 1311768467750121216; do
    echo "  -- CHAOS_SEED=${seed}"
    CHAOS_SEED="${seed}" cargo test --package calc-server --test protocol_fuzz --quiet
    CHAOS_SEED="${seed}" cargo test --package calc-server --test overload_chaos --quiet
done

echo "verify: all gates green"
