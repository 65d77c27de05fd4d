//! End-to-end tests of multi-process sweep execution through the real
//! `tcpburst` binary: worker-process output is byte-identical to the
//! in-process path, a crashing worker loses one grid point, not the
//! sweep, and no worker child outlives its sweep.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

static CASE: AtomicU64 = AtomicU64::new(0);

fn temp_dir() -> PathBuf {
    let n = CASE.fetch_add(1, Ordering::SeqCst);
    let dir = std::env::temp_dir().join(format!("tcpburst-workers-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir is creatable");
    dir
}

/// Runs the release `tcpburst` binary with a throwaway cache root so the
/// test never reads or pollutes the developer's real cache.
fn tcpburst(cache_root: &PathBuf, args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_tcpburst"));
    cmd.args(args).env("TCPBURST_CACHE", cache_root);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("tcpburst binary runs")
}

const SWEEP: &[&str] = &[
    "sweep",
    "--protocols",
    "udp,reno",
    "--clients",
    "4,7",
    "--secs",
    "2",
    "--no-cache",
];

#[test]
fn worker_processes_match_in_process_output_byte_for_byte() {
    let dir = temp_dir();

    let serial = tcpburst(&dir, SWEEP, &[]);
    assert!(serial.status.success(), "in-process sweep fails: {serial:?}");

    let mut forked = SWEEP.to_vec();
    forked.extend_from_slice(&["--workers", "2"]);
    let workers = tcpburst(&dir, &forked, &[]);
    assert!(workers.status.success(), "worker sweep fails: {workers:?}");

    assert_eq!(
        String::from_utf8_lossy(&serial.stdout),
        String::from_utf8_lossy(&workers.stdout),
        "--workers 2 must reproduce --workers 1 byte-for-byte"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_crashing_worker_loses_zero_points() {
    let dir = temp_dir();

    let serial = tcpburst(&dir, SWEEP, &[]);
    assert!(serial.status.success(), "in-process sweep fails: {serial:?}");

    // Every worker that claims grid point 2 aborts mid-handling. The sweep
    // must requeue the point to the surviving worker and, once no worker
    // is left, finish the poisonous point in-process: the sweep succeeds
    // with ZERO lost points and byte-identical tables.
    let mut forked = SWEEP.to_vec();
    forked.extend_from_slice(&["--workers", "2"]);
    let crash = tcpburst(&dir, &forked, &[("TCPBURST_WORKER_CRASH_AT", "2")]);
    let stderr = String::from_utf8_lossy(&crash.stderr);
    assert!(
        crash.status.success(),
        "a crashing worker must not fail the sweep: {stderr}"
    );
    assert_eq!(
        stderr.matches("FAILED").count(),
        0,
        "zero lost points: {stderr}"
    );
    assert_eq!(
        String::from_utf8_lossy(&serial.stdout),
        String::from_utf8_lossy(&crash.stdout),
        "recovery must reproduce the serial tables byte-for-byte"
    );
    // The robustness summary records the requeues and the lost workers.
    assert!(
        stderr.contains("requeued_points=") && stderr.contains("worker_restarts="),
        "robustness counters are reported on stderr: {stderr}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn partitioned_workers_are_reaped_when_the_sweep_ends() {
    let dir = temp_dir();

    let serial = tcpburst(&dir, SWEEP, &[]);
    assert!(serial.status.success(), "in-process sweep fails: {serial:?}");

    // Every child session is partitioned at its registration frame, so no
    // child ever takes a point and each keeps reconnecting with backoff
    // for several seconds. The sweep finishes in-process after the grace
    // period and must kill its children on the way out: `output()` waits
    // for every holder of the stdout pipe, children included.
    let mut forked = SWEEP.to_vec();
    forked.extend_from_slice(&["--workers", "2"]);
    let started = Instant::now();
    let partitioned = tcpburst(&dir, &forked, &[("TCPBURST_CHAOS", "drop@1")]);
    let wall = started.elapsed();
    assert!(
        partitioned.status.success(),
        "partitioned workers must not fail the sweep: {partitioned:?}"
    );
    assert_eq!(
        String::from_utf8_lossy(&serial.stdout),
        String::from_utf8_lossy(&partitioned.stdout),
        "in-process completion must reproduce the serial tables byte-for-byte"
    );
    assert!(
        wall < Duration::from_secs(5),
        "the sweep or one of its children outlived the grace period: {wall:?}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
