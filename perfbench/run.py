#!/usr/bin/env python3
"""perfbench: the tcpburst benchmark.

Runs one workload through the `tcpburst` CLI, checks its output, and
prints the result as one JSON object on the last line of stdout:

    python3 perfbench/run.py --workload run-reno64 --seed 1 --seconds 20 --trace 0

With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json,
measured on the untraced CLI. With `--trace 1` they are the per-layer
ones: the workload is replayed in process by `perfbench-trace` (the Rust
package in perfbench/tracer) with spans around every layer call, and the
span file plus a per-layer self-time summary land in
`.perfbench_out/trace/<workload>/`.

Other modes:

    python3 perfbench/run.py --self-check          # every workload, tiny scale
    python3 perfbench/run.py --record 484188160,0,1  # (re)write expected outputs

Everything the benchmark builds or writes stays inside the checkout:
`.bench_build/` (or $CARGO_TARGET_DIR) for cargo, `.perfbench_work/` for
per-invocation stores and journals (removed at exit), `.perfbench_out/`
for traces and the last result of each workload.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected"

# The CLI's own default seed; its expected output is kept as plain text.
DEFAULT_SEED = 0x1CDC2000

PAPER_PROTOCOLS = ["udp", "reno", "reno-red", "vegas", "vegas-red", "reno-delayack"]
FIG2_CLIENTS = [5, 15, 25, 35, 39, 45]


@dataclass
class Workload:
    """One workload: a `tcpburst` invocation shape."""

    name: str
    kind: str  # "run" or "sweep"
    protocols: list
    clients: list
    secs: int
    store: str = "none"  # none | cold | warm
    jobs: int = 1  # in-process threads (--jobs), sweeps only
    workers: int = 1  # worker processes (--workers), sweeps only
    journal: bool = False
    # Confine every CLI process of an invocation to one CPU.
    one_cpu: bool = False
    # Workloads that share a grid share expected outputs.
    family: str = ""
    why: str = ""

    @property
    def points(self):
        return len(self.protocols) * len(self.clients)

    @property
    def lanes(self):
        """How many points can run at once."""
        return max(self.jobs, self.workers)

    def signature(self):
        """What the expected outputs depend on."""
        return f"{self.kind} {','.join(self.protocols)} {','.join(map(str, self.clients))} {self.secs}"


def workloads(scale):
    full = scale == "full"
    sweep_clients = FIG2_CLIENTS if full else [5, 45]
    sweep_secs = 30 if full else 2
    fan_clients = list(range(1, 81)) if full else list(range(1, 9))
    return {
        w.name: w
        for w in [
            Workload(
                "run-reno64", "run", ["reno"], [64], 200 if full else 5,
                family="run-reno64",
                why="the paper's most congested Reno point at full length; the event loop dominates",
            ),
            # Serial: on a shared 2-vCPU host, an invocation that keeps
            # both CPUs busy slows by half or more whenever the host takes
            # one of them away; a serial one moves to the other.
            Workload(
                "sweep-fig2-cold", "sweep", PAPER_PROTOCOLS, sweep_clients, sweep_secs,
                store="cold", jobs=1, journal=True, family="sweep-fig2",
                why="the Figure 2 grid from an empty store, serial: RED, Vegas, UDP, store and journal writes",
            ),
            # Runnable, but not in BENCHMARK.json: its millisecond
            # invocations spread too much between runs on a shared host.
            Workload(
                "sweep-fig2-warm", "sweep", PAPER_PROTOCOLS, sweep_clients, sweep_secs,
                store="warm", jobs=2, journal=True, family="sweep-fig2",
                why="the same grid served entirely from the store; simulates nothing",
            ),
            # The parent and its two workers share one CPU, so the wall
            # time sums the fan-out's work instead of measuring how the
            # host schedules three processes on two CPUs, and a host that
            # takes a CPU away does not double it.
            Workload(
                "fanout-workers2", "sweep", ["reno", "vegas"], fan_clients, 1,
                workers=2, one_cpu=True, family="fanout-workers2",
                why="many 1 s points over two worker processes on one CPU; per-point fan-out cost dominates",
            ),
        ]
    }


# ---------------------------------------------------------------------------
# Building and invoking
# ---------------------------------------------------------------------------


def target_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Builds the CLI and the tracer from source; returns their paths."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "core" / "Cargo.toml").is_file():
        raise SystemExit(f"perfbench: no tcpburst sources under {ROOT}; run from a full checkout")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "tcpburst-core", "--bin", "tcpburst"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         str(HERE / "tracer" / "Cargo.toml")],
    ):
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            raise SystemExit(f"perfbench: build failed: {' '.join(cmd)}")
    release = target_dir() / "release"
    return release / "tcpburst", release / "perfbench-trace"


def hermetic_env(work):
    """The CLI's environment: no user cache, chaos or crash hooks."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("TCPBURST_") and k not in ("XDG_CACHE_HOME", "HOME")}
    env["HOME"] = str(work / "home")
    env["XDG_CACHE_HOME"] = str(work / "home" / "cache")
    return env


@dataclass
class Invocation:
    wall_s: float
    rss_kb: int
    code: int
    out: str
    err: str


def invoke(cmd, work, env, cpus=None):
    """Runs `cmd` to completion, on the CPUs `cpus` if given: wall time from
    spawn to exit, and the peak resident set of its largest process (wait4
    covers reaped children)."""
    out_path, err_path = work / "stdout", work / "stderr"
    pin = (lambda: os.sched_setaffinity(0, cpus)) if cpus else None
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen([str(c) for c in cmd], stdout=out, stderr=err, env=env, cwd=work,
                                preexec_fn=pin)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(wall, usage.ru_maxrss, proc.returncode,
                      out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))


class StateDirs:
    """Fresh per-invocation directories under the run's work directory."""

    def __init__(self, work):
        self.work = work
        self.n = 0

    def fresh(self, stem):
        self.n += 1
        path = self.work / f"{stem}-{self.n}"
        path.mkdir(parents=True)
        return path


def cli_command(binary, w, seed, cache=None, journal=None, *, secs=None, clients=None,
                protocols=None, single_lane=False):
    secs = w.secs if secs is None else secs
    clients = w.clients if clients is None else clients
    protocols = w.protocols if protocols is None else protocols
    if w.kind == "run":
        return [binary, "run", "--clients", clients[0], "--protocol", protocols[0],
                "--secs", secs, "--seed", seed]
    cmd = [binary, "sweep", "--clients", ",".join(map(str, clients)),
           "--protocols", ",".join(protocols), "--secs", secs, "--seed", seed]
    if single_lane:
        cmd += ["--jobs", "1"]
    elif w.workers > 1:
        cmd += ["--workers", w.workers]
    else:
        cmd += ["--jobs", w.jobs]
    cmd += ["--cache", cache] if cache is not None else ["--no-cache"]
    if journal is not None:
        cmd += ["--journal", journal]
    return cmd


# ---------------------------------------------------------------------------
# Output checking
# ---------------------------------------------------------------------------


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def output_rows(w, text):
    """Splits CLI output into rows, each one digest: a sweep row is one
    client count across every figure; a run is one row. Wall-clock lines
    and the audit line are left out."""
    if w.kind == "run":
        keep = [l for l in text.splitlines()
                if l.strip() and not l.startswith("engine:") and not l.startswith("audit ")]
        return {"run": digest(keep)}
    rows, headers = {}, []
    for line in text.splitlines():
        tok = line.split()
        if tok and tok[0].isdigit():
            rows.setdefault(tok[0], []).append(line.strip())
        elif tok:
            headers.append(line.strip())
    out = {k: digest(v) for k, v in rows.items()}
    out["headers"] = digest(headers)
    return out


def failed_points(w, got, want):
    """Points of `got` that differ from `want`. A mismatching row fails
    each point in it; mismatching headers fail every point."""
    if got.get("headers") != want.get("headers"):
        return w.points
    per_row = 1 if w.kind == "run" else len(w.protocols)
    bad = sum(1 for k, v in want.items() if k != "headers" and got.get(k) != v)
    return min(w.points, bad * per_row)


def load_expected(w, seed):
    """Recorded rows for this workload and seed, or None. (The default
    seed's full text beside them is the same record, for people.)"""
    path = EXPECTED / f"{w.family}.json"
    if not path.is_file():
        return None
    data = json.loads(path.read_text())
    if data.get("signature") != w.signature():
        return None
    return data["seeds"].get(str(seed))


class Checker:
    """Counts attempted and failed points, and keeps the first problems."""

    def __init__(self, w, expected):
        self.w = w
        self.expected = expected
        self.reference = expected
        self.reference_text = None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def problem(self, msg):
        if len(self.problems) < 8:
            self.problems.append(msg)

    def set_reference(self, inv, what):
        """Adopts a set-up invocation's output as the reference. With a
        recorded expectation it must match that too; its points count as
        attempted."""
        self.attempted += self.w.points
        if inv.code != 0:
            self.problem(f"{what} exited {inv.code}: {inv.err.strip()[-300:]}")
            self.failed += self.w.points
            return
        rows = output_rows(self.w, inv.out)
        if self.expected is not None:
            bad = failed_points(self.w, rows, self.expected)
            if bad:
                self.problem(f"{what}: {bad} point(s) differ from the recorded output")
                self.failed += bad
                return
        else:
            self.reference = rows
        self.reference_text = inv.out

    def check(self, inv, what):
        self.attempted += self.w.points
        if inv.code != 0:
            self.failed += self.w.points
            self.problem(f"{what} exited {inv.code}: {inv.err.strip()[-300:]}")
            return
        failed = len(re.findall(r"^FAILED ", inv.err, re.M))
        got = output_rows(self.w, inv.out)
        if self.reference is None:
            self.reference = got
        differ = failed_points(self.w, got, self.reference)
        if differ:
            self.problem(f"{what}: {differ} point(s) differ from the reference")
        elif self.reference_text is None:
            self.reference_text = inv.out
        self.failed += min(self.w.points, max(failed, differ))

    def check_tables(self, text, what):
        """The traced replay's output against the CLI's: a sweep's tables
        must be identical; a run's report block must appear in the CLI's
        output."""
        self.attempted += self.w.points
        if self.w.kind == "run":
            differ = 0 if text.strip() and text.strip() in (self.reference_text or "") else 1
        else:
            differ = failed_points(self.w, output_rows(self.w, text), self.reference)
        if differ:
            self.problem(f"{what}: {differ} point(s) differ from the CLI")
        self.failed += differ

    def check_cache_line(self, inv, what):
        """A cold invocation must miss every point, a warm one hit every one."""
        m = re.search(r"cache: (\d+) hit\(s\), (\d+) miss", inv.err)
        if m is None:
            return
        hits, misses = int(m.group(1)), int(m.group(2))
        if self.w.store == "cold" and hits != 0:
            self.problem(f"{what}: {hits} cache hit(s) on a cold store")
            self.failed += hits
        if self.w.store == "warm" and misses != 0:
            self.problem(f"{what}: {misses} cache miss(es) on a warm store")
            self.failed += misses


def counter(err, name):
    m = re.search(rf"\b{name}=(\d+)", err)
    return int(m.group(1)) if m else 0


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


def median(values):
    return statistics.median(values) if values else 0.0


class Run:
    def __init__(self, w, seed, seconds, binary, work):
        self.w = w
        self.seed = seed
        self.seconds = seconds
        self.binary = binary
        self.work = work
        self.env = hermetic_env(work)
        (work / "home").mkdir(parents=True, exist_ok=True)
        self.dirs = StateDirs(work)
        self.checker = Checker(w, load_expected(w, seed))
        self.warm_store = None
        # The CPUs the workload's CLI processes may use, and how many.
        self.cpus = {max(os.sched_getaffinity(0))} if w.one_cpu else None
        self.cli_lanes = 1 if w.one_cpu else w.lanes
        # Every timing sample of the run, by metric, for the result file.
        self.samples = {}

    def invoke(self, cmd):
        return invoke(cmd, self.work, self.env, self.cpus)

    def command(self, **kw):
        """The workload's command with fresh per-invocation state, and the
        directory holding that state."""
        w = self.w
        d = self.dirs.fresh("inv")
        cache = {"cold": d / "store", "warm": self.warm_store}.get(w.store)
        journal = d / "journal.jsonl" if w.journal else None
        return cli_command(self.binary, w, self.seed, cache, journal, **kw), d

    def once(self, what):
        cmd, d = self.command()
        inv = self.invoke(cmd)
        journal = d / "journal.jsonl"
        if self.w.journal and inv.code == 0 and (not journal.is_file() or journal.stat().st_size == 0):
            self.checker.problem(f"{what}: no journal written")
            self.checker.failed += self.w.points
        shutil.rmtree(d, ignore_errors=True)
        return inv

    def fill_store(self):
        """Set-up for the warm workload: one cold invocation fills a
        private store (and the set-up twin's points); its output becomes
        the reference for every warm invocation."""
        self.warm_store = self.work / "warm-store"
        w = self.w
        fill = cli_command(self.binary, w, self.seed, self.warm_store)
        inv = self.invoke(fill)
        self.checker.set_reference(inv, "store fill")
        twin, d = self.twin_command(self.warm_store)
        self.invoke(twin)
        shutil.rmtree(d, ignore_errors=True)

    def reference(self):
        """Untimed set-up invocations whose output the timed ones must match."""
        w = self.w
        if w.store == "warm":
            self.fill_store()
        elif w.kind == "run":
            # Only the audit verdict counts here: the audited loop reports
            # its pending-event peak differently from the batch loop.
            cmd = cli_command(self.binary, w, self.seed) + ["--audit"]
            inv = self.invoke(cmd)
            self.checker.attempted += 1
            if inv.code != 0 or "audit PASS" not in inv.out:
                self.checker.problem("the audited run did not pass its audit")
                self.checker.failed += 1
        elif w.workers > 1:
            # Fan-out must match the in-process sweep.
            inv = self.invoke(cli_command(self.binary, w, self.seed, single_lane=True))
            self.checker.set_reference(inv, "in-process reference sweep")

    def twin_command(self, cache=None):
        """The workload cut to its set-up: the first two grid points (one
        point for `run`) with zero simulated seconds, and its state
        directory. It keeps the store but not the journal: a journal is
        finalized and synced to disk after the last point, which is not
        set-up, and on a virtual disk that sync is most of the twin's
        spread."""
        w = self.w
        d = self.dirs.fresh("twin")
        if w.store == "cold":
            cache = d / "store"
        cmd = cli_command(self.binary, w, self.seed, cache, secs=0,
                          clients=w.clients[:2], protocols=w.protocols[:1])
        return cmd, d

    def twin(self):
        """One set-up twin's wall time."""
        cmd, d = self.twin_command(self.warm_store)
        inv = self.invoke(cmd)
        if inv.code != 0:
            self.checker.problem(f"set-up twin exited {inv.code}: {inv.err.strip()[-300:]}")
        shutil.rmtree(d, ignore_errors=True)
        return inv.wall_s

    def timed(self, seconds, twins=0, min_count=3):
        """Invokes the workload back to back for `seconds`. Set-up twins are
        spread evenly over the same time, so that both see the same host."""
        invs, twin_walls = [], []
        started = time.perf_counter()
        while len(invs) < min_count or time.perf_counter() - started < seconds:
            what = f"invocation {len(invs) + 1}"
            inv = self.once(what)
            self.checker.check(inv, what)
            self.checker.check_cache_line(inv, what)
            invs.append(inv)
            while (len(twin_walls) < twins
                   and time.perf_counter() - started >= len(twin_walls) * seconds / twins):
                twin_walls.append(self.twin())
        while len(twin_walls) < twins:
            twin_walls.append(self.twin())
        return invs, twin_walls


# Set-up twins per end-to-end run; each takes a few milliseconds.
SETUP_TWINS = 101


def end_to_end(run):
    w = run.w
    run.reference()
    invs, setup = run.timed(run.seconds, twins=SETUP_TWINS)
    walls = [i.wall_s for i in invs]
    run.samples = {"wall_s": walls, "setup_s": setup}
    wall = median(walls)
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (median(setup), "s"),
        # Simulated seconds delivered per wall second; on the warm
        # workload they come from the store rather than the simulator.
        "sim_s_per_s": (w.secs * w.points / wall, "s/s"),
        "peak_rss_mb": (median([i.rss_kb for i in invs]) / 1024.0, "MB"),
    }
    notes = [f"invocations: {len(invs)} timed, {len(setup)} set-up twins",
             f"wall_s quartiles: {quartiles(walls)}",
             f"setup_s quartiles: {quartiles(setup)}"]
    return metrics, notes


def quartiles(values):
    """Quartiles, plus the highest of p90/p99 with ten samples beyond it."""
    if len(values) < 2:
        return " ".join(f"{v:.6g}" for v in values)
    q = statistics.quantiles(values, n=4)
    out = f"q1 {q[0]:.6g}  median {q[1]:.6g}  q3 {q[2]:.6g}  (n={len(values)})"
    for p in (99, 90):
        if len(values) * (100 - p) / 100 >= 10:
            return out + f"  p{p} {statistics.quantiles(values, n=100)[p - 1]:.6g}"
    return out


def journal_cost_us(run, pairs=25):
    """Per-point cost of the journal: warm invocations of the grid with and
    without `--journal`, interleaved, median difference per point."""
    w = run.w
    store = run.warm_store
    with_j, without_j = [], []
    for _ in range(pairs):
        d = run.dirs.fresh("journal")
        cmd = cli_command(run.binary, w, run.seed, store)
        without_j.append(run.invoke(cmd).wall_s)
        with_j.append(run.invoke(cmd + ["--journal", d / "j.jsonl"]).wall_s)
        shutil.rmtree(d, ignore_errors=True)
    return (median(with_j) - median(without_j)) / w.points * 1e6


def self_times(spans):
    """Each span's self time, by id: its duration minus the union of its
    children."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start_ns"], s["end_ns"]))
    selfs = {}
    for s in spans:
        covered, cur_start, cur_end = 0, None, None
        for a, b in sorted(children.get(s["id"], [])):
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        selfs[s["id"]] = (s["end_ns"] - s["start_ns"]) - covered
    return selfs


# Every per-layer metric and its unit, in print order. The traced replay
# supplies most; the rest come from CLI invocations (see per_layer).
LAYER_UNITS = {
    "scenario.setup_ms": "ms", "scenario.ns_per_event": "ns", "scenario.events": "count",
    "des.hold_ns": "ns", "des.pending_peak": "count", "des.cancelled_in_place": "count",
    "des.stale_fired": "count", "des.cancel_ratio": "ratio",
    "net.forward_ns": "ns", "net.droptail_ns": "ns", "net.red_ns": "ns",
    "net.tx_events": "count", "net.delivery_events": "count", "net.drops": "count",
    "net.peak_queue": "count",
    "transport.on_ack_ns.reno": "ns", "transport.on_ack_ns.vegas": "ns",
    "transport.timer_events": "count", "transport.timeouts": "count",
    "transport.fast_retx": "count",
    "traffic.generate_events": "count",
    "stats.record_ns": "ns", "stats.finish_ms": "ms",
    "store.digest_us": "us", "store.get_us": "us", "store.put_us": "us",
    "store.hit_ratio": "ratio",
    "codec.encode_us": "us", "codec.decode_us": "us", "codec.bytes": "bytes",
    "supervise.journal_us": "us",
    "parallel.busy_ratio": "ratio", "parallel.straggler_s": "s",
    "net_transport.frame_us": "us",
    "workers.overhead_ms": "ms", "workers.requeued_points": "count",
    "workers.worker_restarts": "count",
    "tracing.overhead_ratio": "ratio",
}


def per_layer(run, tracer):
    w = run.w
    half = max(run.seconds / 2.0, 0.5)
    out_dir = ROOT / ".perfbench_out" / "trace" / w.name
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    # Untraced CLI invocations: the wall time the traced run is set beside,
    # the fan-out counters, and the reference output.
    run.reference()
    invs, _ = run.timed(half)
    cli_wall = median([i.wall_s for i in invs])
    requeued = sum(counter(i.err, "requeued_points") for i in invs)
    restarts = sum(counter(i.err, "worker_restarts") for i in invs)

    # The traced in-process replay.
    cache = run.dirs.fresh("trace")
    if w.store == "warm":
        cache = run.warm_store
    cmd = [tracer, "--protocols", ",".join(w.protocols),
           "--clients", ",".join(map(str, w.clients)), "--secs", w.secs, "--seed", run.seed,
           "--jobs", w.lanes, "--store", w.store, "--cache", cache, "--seconds", half,
           "--spans", out_dir / "spans.jsonl", "--result", out_dir / "layers.json",
           "--tables", out_dir / "tables.txt"]
    if w.kind == "run":
        cmd.append("--single")
    inv = invoke(cmd, run.work, run.env)
    if inv.code != 0:
        raise SystemExit(f"perfbench: traced replay failed: {inv.err.strip()[-500:]}")
    layers = json.loads((out_dir / "layers.json").read_text())
    run.checker.check_tables((out_dir / "tables.txt").read_text(), "traced replay")
    if w.store == "warm" and layers["store.hit_ratio"] != 1.0:
        run.checker.problem("the traced replay missed the warm store")
        run.checker.failed += w.points

    journal_us = 0.0
    if w.journal:
        if run.warm_store is None:
            run.fill_store()
        journal_us = journal_cost_us(run)

    spans = [json.loads(l) for l in (out_dir / "spans.jsonl").read_text().splitlines()]
    selfs = self_times(spans)
    # Probe spans (untimed round trips outside the replay) are summed apart.
    probe_ids = {s["id"] for s in spans if s["name"] == "probe"}
    by_span, layer_self, probe_self = {}, {}, {}
    for s in spans:
        if s["name"] == "probe":
            continue
        ns = selfs[s["id"]]
        by_span[s["name"]] = by_span.get(s["name"], 0) + ns
        group = probe_self if s["parent"] in probe_ids else layer_self
        layer = s["name"].split(".")[0]
        group[layer] = group.get(layer, 0) + ns
    (out_dir / "self_time.json").write_text(json.dumps(
        {"by_span": {k: v / 1e6 for k, v in sorted(by_span.items())},
         "by_layer": {k: v / 1e6 for k, v in sorted(layer_self.items())},
         "probe_by_layer": {k: v / 1e6 for k, v in sorted(probe_self.items())},
         "unit": "ms", "reps": layers["reps"]}, indent=1) + "\n")

    values = dict(layers)
    values["supervise.journal_us"] = journal_us
    # Fan-out cost per point: CPU-seconds the CLI run had (wall × the CPUs
    # it may use) not spent inside the points themselves (timed in process).
    values["workers.overhead_ms"] = (cli_wall * run.cli_lanes - layers["point_busy_s"]) / w.points * 1e3
    values["workers.requeued_points"] = requeued
    values["workers.worker_restarts"] = restarts
    metrics = {name: (values[name], unit) for name, unit in LAYER_UNITS.items()}
    if requeued or restarts:
        run.checker.problem(f"fan-out wasted work: {requeued} requeued, {restarts} restarts")

    reps = int(layers["reps"])
    notes = [
        f"traced replay: {reps} rep(s), traced wall {layers['traced_wall_s']:.6g} s, "
        f"untraced in-process wall {layers['untraced_wall_s']:.6g} s, "
        f"untraced CLI wall_s {cli_wall:.6g} s "
        f"(tracing.overhead_ratio {layers['tracing.overhead_ratio']:.4f})",
        f"spans: {out_dir / 'spans.jsonl'} ({len(spans)} spans)",
        "self time per layer, summed over all traced reps (ms), with its share of"
        " the replays' lane time (wall x lanes):",
    ]
    lane_ns = layers["lanes"] * sum(s["end_ns"] - s["start_ns"] for s in spans if s["name"] == "workload")
    for layer, ns in sorted(layer_self.items(), key=lambda kv: -kv[1]):
        notes.append(f"  {layer:<14} {ns / 1e6:12.3f}  ({ns / max(lane_ns, 1):.1%})")
    notes.append("  probe round trips (outside the replay): " + ", ".join(
        f"{layer} {ns / 1e6:.3f}" for layer, ns in sorted(probe_self.items())))
    return metrics, notes


def host_fingerprint(tracer):
    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    done = subprocess.run([str(tracer), "--calibrate"], stdout=subprocess.PIPE, text=True)
    calib = float(done.stdout.strip()) if done.returncode == 0 else float("nan")
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "calibration_ns_per_step": calib}


def bench(args):
    ws = workloads(args.scale)
    if args.workload not in ws:
        raise SystemExit(f"perfbench: unknown workload {args.workload}; one of {', '.join(ws)}")
    w = ws[args.workload]
    binary, tracer = build()
    work = ROOT / ".perfbench_work" / f"{w.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        host = host_fingerprint(tracer)
        run = Run(w, args.seed, args.seconds, binary, work)
        if args.trace:
            metrics, notes = per_layer(run, tracer)
        else:
            metrics, notes = end_to_end(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    c = run.checker
    print(f"perfbench {w.name}: seed {args.seed}, {args.seconds} s, trace {args.trace}, "
          f"scale {args.scale}")
    print(f"host: nproc {host['nproc']}, cpu {host['cpu_model']}, "
          f"calibration {host['calibration_ns_per_step']:.4f} ns/step")
    print(f"expected output: {'recorded' if c.expected is not None else 'not recorded for this seed; invariants only'}")
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>16.6g} {unit}")
    fail_ratio = c.failed / c.attempted if c.attempted else 1.0
    print(f"  {'fail_ratio':<28} {fail_ratio:>16.6g} ratio ({c.failed} of {c.attempted} points)")
    for p in c.problems:
        print(f"problem: {p}")
    result = {
        "correct": c.failed == 0 and not c.problems and c.attempted > 0,
        "attempted": max(c.attempted, 1),
        "failed": c.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / f"{w.name}.trace{int(args.trace)}.json").write_text(
        json.dumps(dict(result, host=host, seed=args.seed, seconds=args.seconds,
                        samples=run.samples), indent=1) + "\n")
    print(json.dumps(result))


# ---------------------------------------------------------------------------
# Recording expected outputs and the self-check
# ---------------------------------------------------------------------------


def record(seeds):
    binary, _ = build()
    work = ROOT / ".perfbench_work" / f"record-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    env = hermetic_env(work)
    try:
        families = {}
        for w in workloads("full").values():
            families.setdefault(w.family, w)
        for family, w in families.items():
            path = EXPECTED / f"{family}.json"
            data = json.loads(path.read_text()) if path.is_file() else {}
            if data.get("signature") != w.signature():
                data = {"signature": w.signature(), "seeds": {}}
            for seed in seeds:
                inv = invoke(cli_command(binary, w, seed), work, env)
                if inv.code != 0:
                    raise SystemExit(f"perfbench: recording {family} seed {seed} failed: {inv.err}")
                data["seeds"][str(seed)] = output_rows(w, inv.out)
                if seed == DEFAULT_SEED:
                    text = inv.out if w.kind == "sweep" else "".join(
                        l + "\n" for l in inv.out.splitlines() if not l.startswith("engine:"))
                    (EXPECTED / f"{family}.default.txt").write_text(text)
                print(f"recorded {family} seed {seed}", file=sys.stderr)
            path.write_text(expected_json(data))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def expected_json(data):
    """One line per seed, so that a re-recorded seed is a one-line diff."""
    seeds = sorted(data["seeds"].items(), key=lambda kv: int(kv[0]))
    body = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}" for k, v in seeds)
    return f'{{\n "signature": {json.dumps(data["signature"])},\n "seeds": {{\n{body}\n }}\n}}\n'


def self_check():
    """Runs every workload at tiny scale, traced and untraced, and asserts
    that every metric BENCHMARK.json names is printed with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    bad = []
    for name in workloads("tiny"):
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", "7",
                   "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = done.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                bad.append(f"{name} trace {trace}: no result line (exit {done.returncode})")
                continue
            if not result["correct"]:
                bad.append(f"{name} trace {trace}: not correct ({result['failed']} failed)")
            for m in wanted[trace]:
                got = result["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    bad.append(f"{name} trace {trace}: metric {m['name']} missing or not in {m['unit']}")
            print(f"self-check {name} trace {trace}: {len(result['metrics'])} metrics", file=sys.stderr)
    for b in bad:
        print(f"self-check: {b}", file=sys.stderr)
    print("self-check: " + ("FAILED" if bad else "ok"))
    return 1 if bad else 0


def main():
    # A terminated benchmark still kills and reaps the invocation it is
    # waiting for (see invoke).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full")
    p.add_argument("--self-check", action="store_true")
    p.add_argument("--record", metavar="SEEDS", help="comma-separated seeds to record")
    args = p.parse_args()
    if args.self_check:
        return self_check()
    if args.record:
        record([int(s) for s in args.record.split(",")])
        return 0
    if not args.workload:
        p.error("--workload is required")
    bench(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
