//! Self-test of the recovery oracle against restart's checkpoint loader
//! (ROADMAP 4b): with the seeded `OldestWinsOnLoad` bug armed — the loader
//! walks the chain oldest → newest while still keeping the first value it
//! installs, so a stale full-checkpoint value beats the partial that
//! superseded it — `run_sim`'s "recovered state == model" check must
//! report a violation on a pCALC run within its seed budget; disarmed,
//! the identical sweep must stay silent.
//!
//! The mutation flags are process-global, which is why this is its own
//! test binary with a single test: nothing else may run while one is
//! armed.

use calc_common::mutation::{self, Mutation};
use calc_engine::StrategyKind;
use calc_sim::{base_seed, run_sim, SimSpec};

const SEED_BUDGET: u64 = 8;

/// Clean power cuts over a pCALC chain (base full + a partial every ten
/// transactions); the first violation, if any.
fn sweep() -> Option<String> {
    (0..SEED_BUDGET).find_map(|i| {
        let spec = SimSpec::smoke(StrategyKind::PCalc, base_seed() ^ (0x10AD + i));
        run_sim(&spec).err().map(|v| v.to_string())
    })
}

#[test]
fn oldest_wins_on_load_is_caught_and_the_disarmed_sweep_is_clean() {
    if let Some(violation) = sweep() {
        panic!("false positive on the real loader: {violation}");
    }
    mutation::arm(Mutation::OldestWinsOnLoad);
    let caught = sweep();
    mutation::disarm_all();
    let violation = caught.unwrap_or_else(|| {
        panic!("false negative: oldest-wins-on-load escaped the oracle on all {SEED_BUDGET} seeds")
    });
    eprintln!("oldest-wins-on-load caught: {violation}");
}
