//! Flag handling at the `tcpburst` binary's surface: retired flags are
//! rejected as unknown with a usage error, never accepted or panicked on,
//! and a subcommand missing its required flag fails with exit code 1.

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

#[test]
fn worker_without_connect_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_tcpburst"))
        .args(["worker", "--secs", "1"])
        .output()
        .expect("tcpburst binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("error: worker requires --connect ADDR"),
        "stderr: {stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "no frames on stdout: {:?}",
        out.stdout
    );
}
