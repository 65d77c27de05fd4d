//! Flag handling at the `tcpburst` binary's surface: retired flags are
//! rejected as unknown with a usage error, never accepted or panicked on.

use std::process::Command;

#[test]
fn retired_parallel_engine_flag_is_an_unknown_flag() {
    let out = Command::new(env!("CARGO_BIN_EXE_tcpburst"))
        .args(["run", "--clients", "3", "--secs", "1", "--shards", "2"])
        .output()
        .expect("tcpburst binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("error: unknown flag: --shards"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "no run output on a usage error");
}
