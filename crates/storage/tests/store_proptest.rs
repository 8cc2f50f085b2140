//! Randomized model checking of the one store under each of its three
//! payloads: seeded insert/update/delete sequences must match a
//! `BTreeMap` model, with the memory accounting exact (no leaked live
//! bytes, no stable copy outside a checkpoint, one extra copy per record
//! where the layout keeps one).
//!
//! The offline build has no proptest, so cases are generated from
//! `calc_common::rng::SplitMix` — fully deterministic per seed, with the
//! failing seed printed on assertion failure.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use calc_common::rng::SplitMix;
use calc_common::types::Key;
use calc_storage::dual::{Dual, DualVersionStore, StoreConfig};
use calc_storage::triple::{Triple, TripleStore};
use calc_storage::zigzag::{Zigzag, ZigzagStore};
use calc_storage::{Payload, SlotGuard, Store};

#[derive(Clone, Debug)]
enum Op {
    Insert(u8, Vec<u8>),
    Update(u8, Vec<u8>),
    Delete(u8),
}

fn gen_value(rng: &mut SplitMix) -> Vec<u8> {
    let len = 1 + rng.next_below(23) as usize;
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

fn gen_ops(rng: &mut SplitMix) -> Vec<Op> {
    let n = rng.next_below(120) as usize;
    (0..n)
        .map(|_| {
            let k = (rng.next_below(32)) as u8;
            match rng.next_below(3) {
                0 => Op::Insert(k, gen_value(rng)),
                1 => Op::Update(k, gen_value(rng)),
                _ => Op::Delete(k),
            }
        })
        .collect()
}

fn config() -> StoreConfig {
    StoreConfig::for_records(4096, 32)
}

const CASES: u64 = 64;

const fn seed_base() -> u64 {
    0x5704_26e5_0000_0000
}

/// What the model test needs of each payload beyond the store's own
/// surface.
trait Layout: Payload {
    /// Seeds are `seed_base() ^ (SALT + case)`.
    const SALT: u64;
    /// Extra copies per record at rest.
    const EXTRA_PER_RECORD: usize;
    /// Whether the primary copy is the latest value (not for Zig-Zag,
    /// whose writes alternate copies).
    const PRIMARY_IS_LATEST: bool;
    fn store() -> Store<Self>;
    /// What becomes of a slot deleted at rest.
    fn retire(g: SlotGuard<'_, Self>, seed: u64);
}

impl Layout for Dual {
    const SALT: u64 = 0;
    const EXTRA_PER_RECORD: usize = 0;
    const PRIMARY_IS_LATEST: bool = true;
    fn store() -> Store<Self> {
        DualVersionStore::new(config())
    }
    fn retire(g: SlotGuard<'_, Self>, seed: u64) {
        assert!(g.release_if_vacant(), "seed {seed:#x}");
    }
}

impl Layout for Zigzag {
    const SALT: u64 = 0x100;
    const EXTRA_PER_RECORD: usize = 1;
    const PRIMARY_IS_LATEST: bool = false;
    fn store() -> Store<Self> {
        ZigzagStore::new(config())
    }
    fn retire(g: SlotGuard<'_, Self>, _: u64) {
        g.free();
    }
}

impl Layout for Triple {
    const SALT: u64 = 0x200;
    const EXTRA_PER_RECORD: usize = 1;
    const PRIMARY_IS_LATEST: bool = true;
    fn store() -> Store<Self> {
        TripleStore::new(config(), false)
    }
    /// The slot waits for a checkpoint to consume its tombstone.
    fn retire(_: SlotGuard<'_, Self>, _: u64) {}
}

/// Seeded insert/update/delete sequences on a `P` store must match a
/// `BTreeMap` model, with its memory counters exact.
fn store_matches_model<P: Layout>() {
    for case in 0..CASES {
        let seed = seed_base() ^ (P::SALT + case);
        let mut rng = SplitMix::new(seed);
        let ops = gen_ops(&mut rng);
        let store = P::store();
        let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    let r = store.insert(Key(k as u64), &v);
                    match model.entry(k as u64) {
                        Entry::Occupied(_) => {
                            assert!(r.is_err(), "seed {seed:#x}: duplicate insert accepted")
                        }
                        Entry::Vacant(e) => {
                            assert!(r.is_ok(), "seed {seed:#x}: fresh insert rejected");
                            e.insert(v);
                        }
                    }
                }
                Op::Update(k, v) => {
                    if store.write(Key(k as u64), &v).is_ok() {
                        assert!(model.contains_key(&(k as u64)), "seed {seed:#x}");
                        model.insert(k as u64, v);
                    } else {
                        assert!(!model.contains_key(&(k as u64)), "seed {seed:#x}");
                    }
                }
                Op::Delete(k) => match store.delete(Key(k as u64), None, &mut Vec::new()) {
                    Ok(g) => {
                        assert!(model.remove(&(k as u64)).is_some(), "seed {seed:#x}");
                        P::retire(g, seed);
                    }
                    Err(_) => {
                        assert!(!model.contains_key(&(k as u64)), "seed {seed:#x}");
                        assert!(store.slot_of(Key(k as u64)).is_none(), "seed {seed:#x}");
                    }
                },
            }
        }
        assert_eq!(store.len(), model.len(), "seed {seed:#x}");
        for (k, v) in &model {
            assert_eq!(
                store.get(Key(*k)).as_deref(),
                Some(v.as_slice()),
                "seed {seed:#x} key {k}"
            );
        }
        // Memory accounting exactness.
        let mem = store.memory();
        assert_eq!(mem.live_count, model.len(), "seed {seed:#x}");
        if P::PRIMARY_IS_LATEST {
            assert_eq!(
                mem.live_bytes,
                model.values().map(|v| v.len()).sum::<usize>(),
                "seed {seed:#x}"
            );
        }
        assert_eq!(
            mem.extra_count,
            P::EXTRA_PER_RECORD * model.len(),
            "seed {seed:#x}: extra copies at rest"
        );
        let dump = store.dump_live();
        assert_eq!(dump.len(), model.len(), "seed {seed:#x}");
    }
}

#[test]
fn dual_store_matches_model() {
    store_matches_model::<Dual>();
}

#[test]
fn zigzag_store_matches_model() {
    store_matches_model::<Zigzag>();
}

#[test]
fn triple_store_matches_model() {
    store_matches_model::<Triple>();
}

/// A full checkpoint cycle at any point in an op sequence leaves the
/// dual store's live state untouched.
#[test]
fn dual_store_checkpoint_cycle_preserves_live_state() {
    for case in 0..CASES {
        let seed = seed_base() ^ (0x300 + case);
        let mut rng = SplitMix::new(seed);
        let ops = gen_ops(&mut rng);
        // (This test intentionally uses only the storage API: simulate the
        // capture scan's slot walk with stable erasure + bit
        // normalization, then polarity swap, and verify live data is
        // untouched.)
        let store = DualVersionStore::new(config());
        let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        for op in &ops {
            if let Op::Insert(k, v) = op {
                if store.insert(Key(*k as u64), v).is_ok() {
                    model.entry(*k as u64).or_insert_with(|| v.clone());
                }
            }
        }
        // Create stable copies for half the records (as post-point writers
        // would), then run a capture-like walk.
        for (i, k) in model.keys().enumerate() {
            if i % 2 == 0 {
                let mut g = store.locked_slot_of(Key(*k)).unwrap();
                g.copy_live_to_stable();
                store.stable_status().mark(g.slot() as usize);
            }
        }
        capture_walk(&store);
        store.stable_status().swap_polarity();
        for (k, v) in &model {
            assert_eq!(
                store.get(Key(*k)).as_deref(),
                Some(v.as_slice()),
                "seed {seed:#x} key {k}"
            );
            let g = store.locked_slot_of(Key(*k)).unwrap();
            assert!(!g.has_stable(), "seed {seed:#x}");
            assert!(
                !store.stable_status().is_marked(g.slot() as usize),
                "seed {seed:#x}"
            );
        }
        assert_eq!(store.memory().extra_count, 0, "seed {seed:#x}");
    }
}

/// Minimal stand-in for the capture scan, storage-API-only.
fn capture_walk(store: &DualVersionStore) {
    let status = store.stable_status();
    for slot in store.slot_ids() {
        let mut g = store.lock_slot(slot);
        if !g.in_use() {
            status.mark(slot as usize);
            continue;
        }
        if status.is_marked(slot as usize) {
            g.erase_stable();
        } else {
            status.mark(slot as usize);
            g.erase_stable();
        }
    }
}
