//! A restart's quarantines are the served node's: `open_or_recover` loads
//! the chain through the directory handle the node then serves with, so
//! `quarantined_files` counts what the restart renamed aside.

use std::sync::Arc;

use calc_engine::MetricValue;
use calc_server::{Client, Server};

#[test]
fn a_restarted_node_counts_what_its_restart_quarantined() {
    let dir = std::env::temp_dir().join(format!("calc-restart-quarantine-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = calc_server::open_or_recover(&dir, |config| config.workers = 2).unwrap();
    let server = Server::start(Arc::new(db), "127.0.0.1:0").unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    for i in 0..50u64 {
        c.put(i, &i.to_le_bytes()).unwrap();
    }
    c.checkpoint().unwrap();
    drop(c);
    Arc::try_unwrap(server.shutdown()).unwrap().shutdown();

    // One flipped byte in the full's part condemns the whole cycle.
    let ckpts = dir.join("ckpts");
    let part = std::fs::read_dir(&ckpts)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.to_string_lossy().contains("-full.part-"))
        .expect("a part of the full");
    let mut bytes = std::fs::read(&part).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&part, &bytes).unwrap();

    let db = calc_server::open_or_recover(&dir, |config| config.workers = 2).unwrap();
    for i in 0..50u64 {
        assert_eq!(db.get(calc_common::types::Key(i)).unwrap().as_ref(), &i.to_le_bytes());
    }
    let on_disk = std::fs::read_dir(&ckpts)
        .unwrap()
        .filter(|e| e.as_ref().unwrap().path().extension().is_some_and(|x| x == "quarantine"))
        .count() as u64;
    assert!(on_disk >= 1, "the corrupt cycle was not set aside");
    let values = db.metric_values();
    let listed = values.iter().find(|(n, _)| n == "quarantined_files").unwrap().1;
    assert_eq!(listed, MetricValue::Int(on_disk), "the restart's quarantines went uncounted");
    db.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
