//! Self-test of the fallback checks in `fallback_load.rs`: with the seeded
//! `SkipClearOnFallback` bug armed — the load, finding a cycle of its
//! chain unreadable part-way through, quarantines it and loads the next
//! chain without emptying the store first — both scenarios must fail on
//! every route; disarmed, they must pass.
//!
//! The mutation flags are process-global, which is why this is its own
//! test binary with a single test: nothing else may run while one is
//! armed.

mod fallback;

use calc_common::mutation::{self, Mutation};

use fallback::{corrupt_partial_mid_chain, late_frame_in_newest_full, Route};

/// A scenario: the first way its restart missed, if any.
type Scenario = fn(Route) -> Result<(), String>;

#[test]
fn skip_clear_on_fallback_is_caught_and_the_disarmed_run_is_clean() {
    let scenarios: [(&str, Scenario); 2] = [
        ("late frame in the newest full", late_frame_in_newest_full),
        ("corrupt partial mid-chain", corrupt_partial_mid_chain),
    ];
    for (name, scenario) in scenarios {
        for route in [Route::Server, Route::Caller] {
            if let Err(e) = scenario(route) {
                panic!("false positive on the real load, {name}, {route:?}: {e}");
            }
            mutation::arm(Mutation::SkipClearOnFallback);
            let caught = scenario(route);
            mutation::disarm_all();
            match caught {
                Err(e) => eprintln!("skip-clear-on-fallback caught, {name}, {route:?}: {e}"),
                Ok(()) => panic!(
                    "false negative: skip-clear-on-fallback escaped the {name} checks, {route:?}"
                ),
            }
        }
    }
}
