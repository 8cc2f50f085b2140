//! Tests for the full five-transaction TPC-C mix (Delivery, OrderStatus,
//! StockLevel on top of the paper's NewOrder/Payment).

use std::sync::Arc;

use calc_common::types::Key;
use calc_engine::{Database, EngineConfig, StrategyKind, TxnOutcome};
use calc_txn::proc::ProcRegistry;
use calc_workload::tpcc::procs::{
    delivery_params, new_order_params, order_status_params, stock_level_params, DELIVERY_PROC,
    NEW_ORDER_PROC, ORDER_STATUS_PROC, STOCK_LEVEL_PROC,
};
use calc_workload::tpcc::{keys, tables, TpccConfig, TpccWorkload};

fn open(config: &TpccConfig, name: &str) -> Database {
    let dir = std::env::temp_dir().join(format!("calc-tpcc-full-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut registry = ProcRegistry::new();
    TpccWorkload::register_full_mix(&mut registry);
    let mut ec = EngineConfig::new(StrategyKind::Calc, config.capacity_hint(10_000), 140, dir);
    ec.workers = 4;
    Database::open(ec, registry).unwrap()
}

fn place_order(db: &Database, w: u32, d: u32, c: u32) -> u32 {
    let district = tables::District::decode(&db.get(keys::district(w, d)).unwrap()).unwrap();
    let o_id = district.next_o_id;
    let lines = [(1u32, w, 2u32), (2, w, 3)];
    let out = db.execute(NEW_ORDER_PROC, new_order_params(w, d, c, 7, &lines));
    assert!(matches!(out, TxnOutcome::Committed(_)));
    o_id
}

#[test]
fn delivery_consumes_oldest_order_and_credits_customer() {
    let config = TpccConfig::small();
    let db = open(&config, "delivery");
    TpccWorkload::new(config.clone(), 1).populate(&db);

    let o1 = place_order(&db, 0, 0, 5);
    let o2 = place_order(&db, 0, 0, 6);
    assert!(db.get(keys::new_order(0, 0, o1)).is_some());

    let balance_before = tables::Customer::decode(&db.get(keys::customer(0, 0, 5)).unwrap())
        .unwrap()
        .balance_cents;
    // Reconnaissance: oldest undelivered is o1, customer 5.
    let out = db.execute(DELIVERY_PROC, delivery_params(0, 0, 3, 99, o1, 5));
    assert!(matches!(out, TxnOutcome::Committed(_)), "{out:?}");

    // NEW_ORDER row consumed, carrier stamped, lines delivered, customer
    // credited with the order total, cursor advanced.
    assert!(db.get(keys::new_order(0, 0, o1)).is_none());
    assert!(db.get(keys::new_order(0, 0, o2)).is_some());
    let order = tables::Order::decode(&db.get(keys::order(0, 0, o1)).unwrap()).unwrap();
    assert_eq!(order.carrier_id, 3);
    let line = tables::OrderLine::decode(&db.get(keys::order_line(0, 0, o1, 0)).unwrap()).unwrap();
    assert_eq!(line.delivery_d, 99);
    let customer = tables::Customer::decode(&db.get(keys::customer(0, 0, 5)).unwrap()).unwrap();
    assert!(customer.balance_cents > balance_before);
    assert_eq!(customer.delivery_cnt, 1);
    let district = tables::District::decode(&db.get(keys::district(0, 0)).unwrap()).unwrap();
    assert_eq!(district.next_deliv_o_id, o1 + 1);
}

#[test]
fn delivery_with_stale_prediction_aborts_cleanly() {
    let config = TpccConfig::small();
    let db = open(&config, "stale");
    TpccWorkload::new(config.clone(), 2).populate(&db);
    let o1 = place_order(&db, 1, 1, 3);
    // Wrong predicted customer: must abort without side effects.
    let out = db.execute(DELIVERY_PROC, delivery_params(1, 1, 2, 50, o1, 99));
    assert!(matches!(out, TxnOutcome::Aborted(_)));
    assert!(db.get(keys::new_order(1, 1, o1)).is_some(), "rolled back");
    let district = tables::District::decode(&db.get(keys::district(1, 1)).unwrap()).unwrap();
    assert_eq!(district.next_deliv_o_id, o1);
    // Wrong predicted order id likewise.
    let out = db.execute(DELIVERY_PROC, delivery_params(1, 1, 2, 50, o1 + 7, 3));
    assert!(matches!(out, TxnOutcome::Aborted(_)));
    // Nothing to deliver in an untouched district.
    let out = db.execute(DELIVERY_PROC, delivery_params(1, 2, 2, 50, 1, 0));
    assert!(matches!(out, TxnOutcome::Aborted(_)));
}

#[test]
fn order_status_and_stock_level_are_read_only() {
    let config = TpccConfig::small();
    let db = open(&config, "readonly");
    TpccWorkload::new(config.clone(), 3).populate(&db);
    place_order(&db, 0, 1, 7);
    let before: Vec<_> = [
        keys::district(0, 1),
        keys::customer(0, 1, 7),
        keys::stock(0, 1),
    ]
    .iter()
    .map(|k| db.get(*k).unwrap())
    .collect();

    let out = db.execute(ORDER_STATUS_PROC, order_status_params(0, 1, 7));
    assert!(matches!(out, TxnOutcome::Committed(_)));
    let out = db.execute(STOCK_LEVEL_PROC, stock_level_params(0, 1, 100));
    assert!(matches!(out, TxnOutcome::Committed(_)));

    let after: Vec<_> = [
        keys::district(0, 1),
        keys::customer(0, 1, 7),
        keys::stock(0, 1),
    ]
    .iter()
    .map(|k| db.get(*k).unwrap())
    .collect();
    assert_eq!(before, after, "read-only transactions mutated state");
}

#[test]
fn full_mix_runs_with_checkpointing() {
    let config = TpccConfig::small();
    let db = open(&config, "mix");
    let mut wl = TpccWorkload::new(config.clone(), 4);
    wl.populate(&db);
    db.finalize_load(false).unwrap();

    let mut by_proc = std::collections::HashMap::new();
    let mut committed = 0u32;
    for i in 0..600 {
        let (proc, p) = wl.next_request_full_mix(&db);
        *by_proc.entry(proc).or_insert(0u32) += 1;
        if matches!(db.execute(proc, p), TxnOutcome::Committed(_)) {
            committed += 1;
        }
        if i == 300 {
            db.checkpoint_now().unwrap();
        }
    }
    assert!(committed > 500, "committed={committed}");
    // All five transaction types appeared.
    assert!(by_proc.len() >= 4, "mix too narrow: {by_proc:?}");
    assert!(by_proc.get(&NEW_ORDER_PROC).copied().unwrap_or(0) > 200);
    // Deliveries happened and advanced cursors somewhere.
    let mut delivered = 0u32;
    for w in 0..config.warehouses {
        for d in 0..config.districts {
            let district =
                tables::District::decode(&db.get(keys::district(w, d)).unwrap()).unwrap();
            delivered += district.next_deliv_o_id - 1;
        }
    }
    if by_proc.get(&DELIVERY_PROC).copied().unwrap_or(0) > 0 {
        assert!(delivered > 0, "no delivery advanced a cursor");
    }

    // The checkpoint is a valid, loadable snapshot.
    let metas = db.checkpoint_dir().manifests().unwrap();
    assert_eq!(metas.len(), 1);
    assert!(metas[0].records > config.initial_records() as u64 / 2);
    let entries = metas[0].read_all().expect("checkpoint reads back whole");
    assert_eq!(entries.len() as u64, metas[0].records);
}

#[test]
fn full_mix_consistency_audit() {
    // TPC-C §3.3-style consistency conditions after a long full-mix run
    // with checkpoints interleaved: money columns, the order book, and the
    // delivery cursors must all agree.
    let config = TpccConfig::small();
    let db = open(&config, "audit");
    let mut wl = TpccWorkload::new(config.clone(), 7);
    wl.populate(&db);
    db.finalize_load(false).unwrap();
    for i in 0..800 {
        let (proc, p) = wl.next_request_full_mix(&db);
        db.execute(proc, p);
        if i % 250 == 249 {
            db.checkpoint_now().unwrap();
        }
    }

    let mut delivered_orders = 0u64;
    for w in 0..config.warehouses {
        // Condition 1 (§3.3.2.1 analog): W_YTD grew by exactly the sum of
        // the warehouse's district YTD growth — Payment adds the same
        // amount to both rows inside one transaction.
        let warehouse = tables::Warehouse::decode(&db.get(keys::warehouse(w)).unwrap()).unwrap();
        let district_ytd_delta: u64 = (0..config.districts)
            .map(|d| {
                tables::District::decode(&db.get(keys::district(w, d)).unwrap())
                    .unwrap()
                    .ytd_cents
                    - 3_000_000
            })
            .sum();
        assert_eq!(
            warehouse.ytd_cents - 30_000_000,
            district_ytd_delta,
            "w{w}: warehouse YTD out of sync with districts"
        );

        for d in 0..config.districts {
            let district =
                tables::District::decode(&db.get(keys::district(w, d)).unwrap()).unwrap();
            assert!(
                district.next_deliv_o_id <= district.next_o_id,
                "w{w} d{d}: delivery cursor ahead of order cursor"
            );
            // Conditions 2+3 (§3.3.2.2/.3 analog): every placed order has
            // an ORDER row; a NEW_ORDER row exists iff the order is still
            // undelivered; delivered orders are carrier-stamped with every
            // line delivery-dated, undelivered ones are not.
            for o in 1..district.next_o_id {
                let order =
                    tables::Order::decode(&db.get(keys::order(w, d, o)).unwrap()).unwrap();
                let undelivered = o >= district.next_deliv_o_id;
                assert_eq!(
                    db.get(keys::new_order(w, d, o)).is_some(),
                    undelivered,
                    "w{w} d{d} o{o}: NEW_ORDER row vs delivery cursor"
                );
                assert_eq!(
                    order.carrier_id == 0,
                    undelivered,
                    "w{w} d{d} o{o}: carrier stamp vs delivery cursor"
                );
                for ol in 0..order.ol_cnt {
                    let line = tables::OrderLine::decode(
                        &db.get(keys::order_line(w, d, o, ol)).unwrap(),
                    )
                    .unwrap();
                    assert_eq!(
                        line.delivery_d == 0,
                        undelivered,
                        "w{w} d{d} o{o} line {ol}: delivery date vs cursor"
                    );
                }
            }
            assert!(
                db.get(keys::new_order(w, d, district.next_o_id)).is_none(),
                "w{w} d{d}: NEW_ORDER row beyond the order cursor"
            );
            // Condition 4: the delivery cursor equals the number of
            // deliveries credited across this district's customers.
            let delivery_cnt: u32 = (0..config.customers_per_district)
                .map(|c| {
                    tables::Customer::decode(&db.get(keys::customer(w, d, c)).unwrap())
                        .unwrap()
                        .delivery_cnt
                })
                .sum();
            assert_eq!(
                delivery_cnt,
                district.next_deliv_o_id - 1,
                "w{w} d{d}: customer delivery counts vs cursor"
            );
            delivered_orders += (district.next_deliv_o_id - 1) as u64;
        }
    }
    // The audit is vacuous unless deliveries actually ran.
    assert!(delivered_orders > 0, "mix produced no deliveries");
}

#[test]
fn delivery_is_deterministic_for_replay() {
    // The same delivery params against the same state produce identical
    // results — required for command-log replay.
    let config = TpccConfig::small();
    let run = |name: &str| {
        let db = open(&config, name);
        TpccWorkload::new(config.clone(), 5).populate(&db);
        let o = place_order(&db, 0, 0, 2);
        db.execute(DELIVERY_PROC, delivery_params(0, 0, 4, 77, o, 2));
        (
            db.get(keys::customer(0, 0, 2)).unwrap(),
            db.get(keys::district(0, 0)).unwrap(),
            db.get(keys::order(0, 0, o)).unwrap(),
        )
    };
    assert_eq!(run("det-a"), run("det-b"));
}

#[test]
fn concurrent_full_mix_money_invariant() {
    // Warehouse YTD + customer balances respond consistently even with
    // deliveries crediting customers concurrently with payments.
    let config = TpccConfig::small();
    let db = Arc::new(open(&config, "concurrent"));
    let mut wl = TpccWorkload::new(config.clone(), 6);
    wl.populate(&db);
    let initial_balance_sum: i64 = (0..config.warehouses)
        .flat_map(|w| (0..config.districts).map(move |d| (w, d)))
        .flat_map(|(w, d)| (0..config.customers_per_district).map(move |c| (w, d, c)))
        .map(|(w, d, c)| {
            tables::Customer::decode(&db.get(keys::customer(w, d, c)).unwrap())
                .unwrap()
                .balance_cents
        })
        .sum();
    for _ in 0..400 {
        let (proc, p) = wl.next_request_full_mix(&db);
        db.execute(proc, p);
    }
    // Invariant: every customer row still decodes and the totals moved in
    // a sane direction (payments subtract, deliveries add back order
    // totals).
    let final_balance_sum: i64 = (0..config.warehouses)
        .flat_map(|w| (0..config.districts).map(move |d| (w, d)))
        .flat_map(|(w, d)| (0..config.customers_per_district).map(move |c| (w, d, c)))
        .map(|(w, d, c)| {
            tables::Customer::decode(&db.get(keys::customer(w, d, c)).unwrap())
                .unwrap()
                .balance_cents
        })
        .sum();
    assert_ne!(initial_balance_sum, final_balance_sum);
    let _ = Key(0);
}
