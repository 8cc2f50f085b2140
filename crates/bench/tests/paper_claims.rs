//! The paper's qualitative claims as assertions that can fail (ROADMAP
//! 7a). One so far — the memory half of §2.1/Figure 6: CALC's precise
//! partial multi-versioning keeps record memory near the database size,
//! checkpoint included.

use calc_bench::figures::{fig6, FigureOpts};
use calc_engine::StrategyKind;

#[test]
fn calc_memory_stays_near_the_database_through_a_checkpoint() {
    let out_dir = std::env::temp_dir().join(format!("calc-paper-claims-{}", std::process::id()));
    let opts = FigureOpts {
        seconds: 1.0,
        records: 20_000,
        workers: 2,
        disk_mbps: 0,
        out_dir: out_dir.clone(),
        ..FigureOpts::default()
    };
    let results = fig6(&opts);
    let _ = std::fs::remove_dir_all(&out_dir);
    for r in &results {
        let _ = std::fs::remove_dir_all(&r.dir);
    }
    let peak = |kind: StrategyKind| {
        let run = results.iter().find(|r| r.kind == kind);
        run.unwrap_or_else(|| panic!("fig6 ran no {kind} line"))
            .peak_mem_bytes()
    };
    let (none, calc) = (peak(StrategyKind::NoCheckpoint), peak(StrategyKind::Calc));
    assert!(
        calc as f64 <= 1.3 * none as f64,
        "CALC peak {calc} B should be within 1.3x of no checkpointing's {none} B"
    );
}
