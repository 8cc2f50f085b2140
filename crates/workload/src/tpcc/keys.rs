//! TPC-C composite keys, bit-packed into `u64`.
//!
//! Layout: table tag in bits 56..64; fields below, documented per
//! constructor. Capacity bounds (warehouse ≤ 65 535, district ≤ 255,
//! customer ≤ 65 535, item ≤ 4 294 967 295, order id ≤ 16 777 215 per
//! district) comfortably exceed the paper's 50-warehouse scale.

use calc_common::types::Key;

/// Table tags.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
#[allow(missing_docs)]
pub enum Table {
    Warehouse = 1,
    District = 2,
    Customer = 3,
    Stock = 4,
    Item = 5,
    Order = 6,
    OrderLine = 7,
    NewOrder = 8,
    History = 9,
}

#[inline]
fn tag(t: Table) -> u64 {
    (t as u64) << 56
}

/// `WAREHOUSE(w)` — `w` in bits 0..16.
pub fn warehouse(w: u32) -> Key {
    debug_assert!(w < (1 << 16));
    Key(tag(Table::Warehouse) | w as u64)
}

/// `DISTRICT(w, d)` — `w` in bits 8..24, `d` in bits 0..8.
pub fn district(w: u32, d: u32) -> Key {
    debug_assert!(w < (1 << 16) && d < (1 << 8));
    Key(tag(Table::District) | ((w as u64) << 8) | d as u64)
}

/// `CUSTOMER(w, d, c)` — `w` 24..40, `d` 16..24, `c` 0..16.
pub fn customer(w: u32, d: u32, c: u32) -> Key {
    debug_assert!(w < (1 << 16) && d < (1 << 8) && c < (1 << 16));
    Key(tag(Table::Customer) | ((w as u64) << 24) | ((d as u64) << 16) | c as u64)
}

/// `STOCK(w, i)` — `w` 32..48, `i` 0..32.
pub fn stock(w: u32, i: u32) -> Key {
    debug_assert!(w < (1 << 16));
    Key(tag(Table::Stock) | ((w as u64) << 32) | i as u64)
}

/// `ITEM(i)` — `i` in bits 0..32.
pub fn item(i: u32) -> Key {
    Key(tag(Table::Item) | i as u64)
}

/// `ORDER(w, d, o)` — `w` 40..56, `d` 32..40, `o` 0..32.
pub fn order(w: u32, d: u32, o: u32) -> Key {
    debug_assert!(w < (1 << 16) && d < (1 << 8));
    Key(tag(Table::Order) | ((w as u64) << 40) | ((d as u64) << 32) | o as u64)
}

/// `NEW_ORDER(w, d, o)` — same layout as [`order`].
pub fn new_order(w: u32, d: u32, o: u32) -> Key {
    debug_assert!(w < (1 << 16) && d < (1 << 8));
    Key(tag(Table::NewOrder) | ((w as u64) << 40) | ((d as u64) << 32) | o as u64)
}

/// `ORDER_LINE(w, d, o, ol)` — `w` 40..56, `d` 32..40, `o` 8..32 (24
/// bits), `ol` 0..8.
pub fn order_line(w: u32, d: u32, o: u32, ol: u32) -> Key {
    debug_assert!(w < (1 << 16) && d < (1 << 8) && o < (1 << 24) && ol < (1 << 8));
    Key(tag(Table::OrderLine) | ((w as u64) << 40) | ((d as u64) << 32) | ((o as u64) << 8) | ol as u64)
}

/// `HISTORY(h)` — a generator-assigned unique id in bits 0..48.
pub fn history(h: u64) -> Key {
    debug_assert!(h < (1 << 48));
    Key(tag(Table::History) | h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn keys_are_unique_across_tables_and_fields() {
        let mut seen = HashSet::new();
        for w in 0..4 {
            assert!(seen.insert(warehouse(w)));
            for d in 0..4 {
                assert!(seen.insert(district(w, d)));
                for c in 0..4 {
                    assert!(seen.insert(customer(w, d, c)));
                }
                for o in 0..4 {
                    assert!(seen.insert(order(w, d, o)));
                    assert!(seen.insert(new_order(w, d, o)));
                    for ol in 0..3 {
                        assert!(seen.insert(order_line(w, d, o, ol)));
                    }
                }
            }
            for i in 0..8 {
                assert!(seen.insert(stock(w, i)));
            }
        }
        for i in 0..8 {
            assert!(seen.insert(item(i)));
        }
        for h in 0..8 {
            assert!(seen.insert(history(h)));
        }
    }

    #[test]
    fn full_scale_fields_fit() {
        // Paper scale: 50 warehouses, 10 districts, 3000 customers,
        // 100k items, millions of orders.
        let k1 = order_line(49, 9, 1_000_000, 14);
        let k2 = order_line(49, 9, 1_000_000, 15);
        assert_ne!(k1, k2);
        assert_ne!(stock(49, 99_999), stock(48, 99_999));
    }
}
