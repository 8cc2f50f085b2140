//! A restart whose chain fails to read part-way through its load: the
//! failed cycle is quarantined whole, the store emptied, and the chain
//! the catalog yields without it loaded and replayed — through the
//! server's restart and through `recover` over a caller's strategy.

mod fallback;

use fallback::{corrupt_partial_mid_chain, late_frame_in_newest_full, Route};

#[test]
fn a_late_corrupt_frame_in_the_newest_full_falls_back_to_the_parent() {
    for route in [Route::Server, Route::Caller] {
        if let Err(e) = late_frame_in_newest_full(route) {
            panic!("{route:?}: {e}");
        }
    }
}

#[test]
fn a_corrupt_partial_mid_chain_loads_the_chain_below_it() {
    for route in [Route::Server, Route::Caller] {
        if let Err(e) = corrupt_partial_mid_chain(route) {
            panic!("{route:?}: {e}");
        }
    }
}
