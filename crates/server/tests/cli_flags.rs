//! The `calc-server` binary refuses a malformed flag value instead of
//! dropping it: `--checkpoint-every-ms 5s` silently read as "no value"
//! would turn the checkpoint cadence off, so retention would never
//! truncate the log and every restart would replay all of it.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[test]
fn malformed_checkpoint_interval_is_a_usage_error() {
    let dir = std::env::temp_dir().join(format!("calc-cli-flags-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let port_file = dir.join("port");

    let mut child = Command::new(env!("CARGO_BIN_EXE_calc-server"))
        .args([
            "--dir",
            dir.to_str().unwrap(),
            "--port-file",
            port_file.to_str().unwrap(),
        ])
        .args(["--checkpoint-every-ms", "5s"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn calc-server binary");

    // A server that accepted the flag publishes its port and serves until
    // killed; reap it then (or after a bounded wait) so a failing run
    // leaks no process.
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break Some(status);
        }
        if port_file.exists() || Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            break None;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let served = port_file.exists();
    let _ = std::fs::remove_dir_all(&dir);

    let status = status.expect("calc-server accepted `--checkpoint-every-ms 5s` and kept serving");
    assert_eq!(status.code(), Some(2), "a malformed value is a usage error");
    assert!(!served, "a refused configuration must not publish a port");
}
