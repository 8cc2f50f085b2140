//! Cross-checks the shard-owned executor's routing arithmetic against the
//! rest of the system's partitioning, across crate boundaries:
//!
//! * `ShardRouter::shard_of` must be the plain `key % shards` for every
//!   key, large ones included, and
//! * `ShardRouter::owner_of_shard` must agree with the contiguous striping
//!   `calc_core::partition::ShardPartition` uses to split capture work
//!   over checkpoint threads.
//!
//! `calc-txn` cannot depend on `calc-core`, so this equivalence can only
//! be asserted here in the engine, which sees both.

use calc_common::types::Key;
use calc_core::partition::ShardPartition;
use calc_txn::route::ShardRouter;

#[test]
fn owner_striping_matches_checkpoint_shard_partition() {
    for workers in 1..=9usize {
        for spw in [1usize, 2, 3, 8, 13] {
            let router = ShardRouter::new(workers, spw);
            let shards = workers * spw;
            let part = ShardPartition::over(shards, workers);
            assert_eq!(part.parts(), workers);
            assert_eq!(part.total(), shards);
            for w in 0..workers {
                for s in part.range(w) {
                    assert_eq!(
                        router.owner_of_shard(s),
                        w,
                        "workers={workers} spw={spw}: shard {s} routed off its \
                         ShardPartition stripe"
                    );
                }
            }
        }
    }
}

#[test]
fn shard_of_is_the_plain_modulus_for_any_key() {
    let workers = 4;
    let spw = 8;
    let router = ShardRouter::new(workers, spw);
    let shards = workers * spw;
    for k in 0..10_000u64 {
        assert_eq!(router.shard_of(Key(k)), (k as usize) % shards);
    }
    // Large keys don't overflow or wrap differently.
    for k in [u64::MAX, u64::MAX - 1, 1 << 63] {
        assert_eq!(router.shard_of(Key(k)), (k % shards as u64) as usize);
    }
}

#[test]
fn every_key_routes_to_the_owner_of_its_shard() {
    let router = ShardRouter::new(3, 5);
    let part = ShardPartition::over(15, 3);
    for k in 0..1_000u64 {
        let shard = router.shard_of(Key(k));
        let owner = router.owner_of_key(Key(k));
        assert!(part.range(owner).contains(&shard));
    }
}
