//! The paper's qualitative claims as assertions that can fail (ROADMAP
//! 7a). One so far — §2.1's memory argument: full multi-versioning grows
//! with the update count, CALC's partial multi-versioning stays near the
//! database size.

use calc_bench::figures::{ablation_mvcc, FigureOpts};

#[test]
fn mvcc_memory_grows_with_updates_and_calc_stays_near_the_database() {
    let out_dir = std::env::temp_dir().join(format!("calc-paper-claims-{}", std::process::id()));
    let opts = FigureOpts {
        seconds: 1.0,
        records: 20_000,
        workers: 2,
        disk_mbps: 0,
        out_dir: out_dir.clone(),
        ..FigureOpts::default()
    };
    let results = ablation_mvcc(&opts);
    let _ = std::fs::remove_dir_all(&out_dir);
    for r in &results {
        let _ = std::fs::remove_dir_all(&r.dir);
    }
    let [none, calc, mvcc] = &results[..] else {
        panic!("expected None, CALC and MVCC runs, got {}", results.len());
    };
    let (none, calc, mvcc) = (
        none.peak_mem_bytes(),
        calc.peak_mem_bytes(),
        mvcc.peak_mem_bytes(),
    );
    assert!(
        mvcc >= 3 * calc,
        "MVCC peak {mvcc} B should be at least 3x CALC's {calc} B"
    );
    assert!(
        calc as f64 <= 1.3 * none as f64,
        "CALC peak {calc} B should be within 1.3x of no checkpointing's {none} B"
    );
}
