//! An interactive shell over a CALC-checkpointed store — poke at the
//! system by hand: write data, take asynchronous checkpoints, crash, and
//! recover.
//!
//! ```sh
//! cargo run --release --example kv_shell
//! > put greeting hello
//! > get greeting
//! > checkpoint
//! > crash        # drops all in-memory state
//! > recover      # reloads checkpoints + replays the command log
//! > get greeting
//! ```
//!
//! Commands: `put K V` · `get K` · `del K` · `scan` · `checkpoint` ·
//! `merge` · `stats` · `crash` · `recover` · `help` · `quit`.
//! Keys are arbitrary words (hashed to the engine's u64 keyspace); values
//! are the rest of the line.

use std::io::{BufRead, Write};
use std::sync::Arc;

use calc_db::engine::{Database, EngineConfig, StrategyKind, TxnOutcome};
use calc_db::txn::proc::{
    params, AbortReason, LockRequest, ProcId, ProcRegistry, Procedure, TxnOps,
};
use calc_db::Key;

const PUT: ProcId = ProcId(1);
const DEL: ProcId = ProcId(2);

struct PutProc;
impl Procedure for PutProc {
    fn id(&self) -> ProcId {
        PUT
    }
    fn name(&self) -> &'static str {
        "put"
    }
    fn locks(&self, p: &[u8]) -> Result<LockRequest, AbortReason> {
        let mut r = params::Reader::new(p);
        Ok(LockRequest {
            reads: vec![],
            writes: vec![Key(r.u64()?)],
        })
    }
    fn run(&self, p: &[u8], ops: &mut dyn TxnOps) -> Result<(), AbortReason> {
        let mut r = params::Reader::new(p);
        let key = Key(r.u64()?);
        let value = r.bytes()?;
        if ops.get(key).is_some() {
            ops.put(key, value);
        } else {
            ops.insert(key, value);
        }
        Ok(())
    }
}

struct DelProc;
impl Procedure for DelProc {
    fn id(&self) -> ProcId {
        DEL
    }
    fn name(&self) -> &'static str {
        "del"
    }
    fn locks(&self, p: &[u8]) -> Result<LockRequest, AbortReason> {
        let mut r = params::Reader::new(p);
        Ok(LockRequest {
            reads: vec![],
            writes: vec![Key(r.u64()?)],
        })
    }
    fn run(&self, p: &[u8], ops: &mut dyn TxnOps) -> Result<(), AbortReason> {
        let mut r = params::Reader::new(p);
        if !ops.delete(Key(r.u64()?)) {
            return Err(AbortReason::Logic("no such key".into()));
        }
        Ok(())
    }
}

/// Stable key hash (so `get greeting` finds what `put greeting` wrote).
/// Values store the original name alongside the payload so `scan` can
/// print names back.
fn key_of(name: &str) -> Key {
    let mut x: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        x ^= b as u64;
        x = x.wrapping_mul(0x0000_0100_0000_01B3);
    }
    Key(x & ((1 << 56) - 1))
}

fn encode_named(name: &str, value: &str) -> Vec<u8> {
    let mut v = Vec::with_capacity(2 + name.len() + value.len());
    v.push(name.len() as u8);
    v.extend_from_slice(name.as_bytes());
    v.extend_from_slice(value.as_bytes());
    v
}

fn decode_named(bytes: &[u8]) -> (String, String) {
    let n = bytes[0] as usize;
    (
        String::from_utf8_lossy(&bytes[1..1 + n]).into_owned(),
        String::from_utf8_lossy(&bytes[1 + n..]).into_owned(),
    )
}

fn registry() -> ProcRegistry {
    let mut r = ProcRegistry::new();
    r.register(Arc::new(PutProc));
    r.register(Arc::new(DelProc));
    r
}

fn open(dir: &std::path::Path) -> Database {
    let mut config = EngineConfig::new(StrategyKind::PCalc, 100_000, 64, dir.join("ckpts"));
    config.merge_batch = Some(4);
    // The segmented on-disk command log (tiny segments, so rotation is
    // visible) is truncated behind `keep_checkpoints`.
    config.command_log_dir = Some(dir.join("cmdlog"));
    config.log_segment_bytes = Some(4 << 10);
    config.keep_checkpoints = Some(2);
    Database::open(config, registry()).expect("open database")
}

fn main() {
    let dir = std::env::temp_dir().join(format!("calc-kv-shell-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut db = open(&dir);
    db.finalize_load(true).unwrap();
    // What `crash` found on the on-disk command log, for `recover`.
    let mut saved_commands = Vec::new();
    let mut names: std::collections::BTreeSet<String> = Default::default();

    println!("calc-db shell (pCALC, merge every 4 partials). `help` for commands.");
    let stdin = std::io::stdin();
    loop {
        print!("> ");
        std::io::stdout().flush().unwrap();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let mut parts = line.trim().splitn(3, ' ');
        let cmd = parts.next().unwrap_or("");
        match cmd {
            "put" => {
                let (Some(k), Some(v)) = (parts.next(), parts.next()) else {
                    println!("usage: put KEY VALUE");
                    continue;
                };
                let p = params::Writer::new()
                    .u64(key_of(k).0)
                    .bytes(&encode_named(k, v))
                    .finish();
                match db.execute(PUT, p) {
                    TxnOutcome::Committed(seq) => {
                        names.insert(k.to_string());
                        println!("ok {seq}");
                    }
                    TxnOutcome::Aborted(e) => println!("aborted: {e}"),
                }
            }
            "get" => {
                let Some(k) = parts.next() else {
                    println!("usage: get KEY");
                    continue;
                };
                match db.get(key_of(k)) {
                    Some(bytes) => println!("{}", decode_named(&bytes).1),
                    None => println!("(nil)"),
                }
            }
            "del" => {
                let Some(k) = parts.next() else {
                    println!("usage: del KEY");
                    continue;
                };
                let p = params::Writer::new().u64(key_of(k).0).finish();
                match db.execute(DEL, p) {
                    TxnOutcome::Committed(_) => {
                        names.remove(k);
                        println!("ok");
                    }
                    TxnOutcome::Aborted(e) => println!("aborted: {e}"),
                }
            }
            "scan" => {
                for name in &names {
                    if let Some(bytes) = db.get(key_of(name)) {
                        println!("{name} = {}", decode_named(&bytes).1);
                    }
                }
            }
            "checkpoint" => match db.checkpoint_now() {
                Ok(s) => println!(
                    "{} checkpoint #{}: {} records, {} bytes, {:?} (quiesce {:?})",
                    s.kind, s.id, s.records, s.bytes, s.duration, s.quiesce
                ),
                Err(e) => println!("error: {e}"),
            },
            "merge" => match db.collapse_partials() {
                Ok(Some(m)) => println!(
                    "collapsed {} files → full #{} ({} records) in {:?}",
                    m.inputs, m.new_full_id, m.records, m.duration
                ),
                Ok(None) => println!("nothing to merge"),
                Err(e) => println!("error: {e}"),
            },
            "stats" => {
                let mem = db.strategy().memory();
                println!(
                    "records: {} · commits: {} · aborts: {} · mem: {} copies / {} bytes",
                    db.record_count(),
                    db.metrics().committed(),
                    db.metrics().aborted(),
                    mem.total_copies(),
                    mem.total_bytes()
                );
                for m in db.checkpoint_dir().manifests() {
                    println!(
                        "  {} #{} — {} records, watermark {}",
                        m.kind, m.id, m.records, m.watermark
                    );
                }
                let h = db.health();
                println!(
                    "  disk: last ckpt {} B · chains pruned {} · log segments truncated {} ({} B)",
                    h.last_checkpoint_bytes(),
                    h.checkpoints_pruned(),
                    h.log_segments_truncated(),
                    h.log_bytes_truncated()
                );
            }
            "crash" => {
                // Dropping the engine flushes the group committer, so the
                // segments hold every commit not yet truncated behind
                // `keep_checkpoints` — and those are covered by durable
                // checkpoints.
                drop(db);
                saved_commands = calc_db::recovery::read_dir_logs(
                    &calc_db::common::vfs::OsVfs,
                    &dir.join("cmdlog"),
                )
                .expect("read command log");
                db = open(&dir); // empty store, same directories
                println!(
                    "*** crashed; in-memory state dropped ({} commands survive on the log) ***",
                    saved_commands.len()
                );
            }
            "recover" => {
                let fresh = open(&dir);
                // Database::recover also resumes the commit-sequence and
                // checkpoint-id spaces, so new checkpoints never collide
                // with pre-crash files.
                match fresh.recover(&saved_commands) {
                    Ok(o) => {
                        println!(
                            "recovered {} records from {} file(s), replayed {} txns ({:?} + {:?})",
                            o.loaded_records,
                            o.checkpoint_files,
                            o.replayed,
                            o.load_duration,
                            o.replay_duration
                        );
                        db = fresh;
                    }
                    Err(e) => println!("recovery failed: {e}"),
                }
            }
            "help" => println!(
                "put K V · get K · del K · scan · checkpoint · merge · stats · crash · recover · quit"
            ),
            "quit" | "exit" => break,
            "" => {}
            other => println!("unknown command {other:?} — try `help`"),
        }
    }
}
