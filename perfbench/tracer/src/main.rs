//! `perfbench-trace` — the traced half of the perfbench benchmark.
//!
//! Replays one workload in process through the tcpburst libraries, with a
//! span around every call into a public layer function (`Scenario::new`,
//! the event loop, `into_report`, `point_digest`, `ResultStore::get/put`,
//! the codec and the frame functions), and then times each layer on its
//! own in small microbenchmarks sized from the workload's reports.
//!
//! The grid comes from the command line, so `perfbench/run.py` stays the
//! one place that defines a workload:
//!
//! ```text
//! perfbench-trace --protocols reno --clients 64 --secs 200 --seed 484188160 \
//!     --jobs 1 --store none|cold|warm --cache DIR --seconds 5 \
//!     --spans spans.jsonl --result result.json --tables tables.txt [--single]
//! ```
//!
//! Spans stay in memory until the end and are then written as JSON lines
//! (`id`, `parent`, `name`, `point`, `lane`, `start_ns`, `end_ns`). The
//! result file is one flat JSON object of per-layer numbers. `--tables`
//! receives what the CLI would print for the same grid: the figure tables
//! of a sweep, or the report block of a single `run` (`--single`).

use std::cell::Cell;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use tcpburst_core::experiments::{Sweep, SweepCell};
use tcpburst_core::net_transport::{read_frame, write_frame};
use tcpburst_core::{
    codec, point_digest, run_indexed, Protocol, ResultStore, Scenario, ScenarioBuilder,
    ScenarioConfig, ScenarioReport,
};
use tcpburst_des::{EventQueue, Scheduler, SimDuration, SimTime};
use tcpburst_net::{Ecn, FlowId, NetEvent, Packet, PacketKind, QueueSpec, RedParams, SeqNo};
use tcpburst_stats::BinnedCounter;
use tcpburst_transport::{AckSample, CongestionControl, LossContext, Policy, RoundSample};

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// Parent id of a root span.
const ROOT: u64 = 0;
/// Point id of spans that belong to no grid point.
const NO_POINT: i64 = -1;

#[derive(Debug, Clone, Copy)]
struct Span {
    id: u64,
    parent: u64,
    name: &'static str,
    point: i64,
    lane: u64,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

static NEXT_LANE: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// A small per-thread number, so spans show which lane of a parallel
    /// section ran them.
    static LANE: Cell<u64> = const { Cell::new(u64::MAX) };
}

fn lane() -> u64 {
    LANE.with(|l| {
        if l.get() == u64::MAX {
            l.set(NEXT_LANE.fetch_add(1, Ordering::Relaxed));
        }
        l.get()
    })
}

/// In-memory span recorder shared by every thread of the replay. A
/// disabled tracer runs the same calls and records nothing, which gives
/// the untraced in-process baseline for `tracing.overhead_ratio`.
struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    enabled: bool,
}

impl Tracer {
    fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::with_capacity(if enabled { 1 << 16 } else { 0 })),
            enabled,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span; `f` receives the span's id so that calls it
    /// makes can record child spans.
    fn span<T>(&self, name: &'static str, parent: u64, point: i64, f: impl FnOnce(u64) -> T) -> T {
        self.span_named(parent, point, f, |_| name)
    }

    /// Like [`Tracer::span`], with the name chosen from the call's result.
    fn span_named<T>(
        &self,
        parent: u64,
        point: i64,
        f: impl FnOnce(u64) -> T,
        name: impl FnOnce(&T) -> &'static str,
    ) -> T {
        if !self.enabled {
            return f(ROOT);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        let name = name(&out);
        let span = Span {
            id,
            parent,
            name,
            point,
            lane: lane(),
            start_ns,
            end_ns,
        };
        self.spans.lock().expect("span lock").push(span);
        out
    }

    fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("span lock"));
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

// ---------------------------------------------------------------------------
// Arguments and configuration
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
enum StoreMode {
    /// No result store (`run`, `--no-cache`).
    None,
    /// A fresh, empty store per replay.
    Cold,
    /// The store at `--cache`, already holding every point.
    Warm,
}

struct Args {
    protocols: Vec<String>,
    clients: Vec<usize>,
    secs: u64,
    seed: u64,
    jobs: usize,
    store: StoreMode,
    cache: PathBuf,
    seconds: f64,
    spans: PathBuf,
    result: PathBuf,
    tables: PathBuf,
    single: bool,
}

/// Replays per run at most, which bounds the spans kept in memory on the
/// millisecond-long warm workload.
const MAX_REPS: usize = 200;

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let mut args = Args {
        protocols: Vec::new(),
        clients: Vec::new(),
        secs: 30,
        seed: 0x1CDC_2000,
        jobs: 1,
        store: StoreMode::None,
        cache: PathBuf::new(),
        seconds: 1.0,
        spans: PathBuf::from("spans.jsonl"),
        result: PathBuf::from("result.json"),
        tables: PathBuf::from("tables.txt"),
        single: false,
    };
    while let Some(flag) = argv.next() {
        if flag == "--single" {
            args.single = true;
            continue;
        }
        let value = argv.next().ok_or(format!("{flag} requires a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--protocols" => args.protocols = value.split(',').map(str::to_string).collect(),
            "--clients" => {
                args.clients = value
                    .split(',')
                    .map(|s| s.parse().map_err(|e| bad(&e)))
                    .collect::<Result<_, _>>()?
            }
            "--secs" => args.secs = value.parse().map_err(|e| bad(&e))?,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--jobs" => args.jobs = value.parse().map_err(|e| bad(&e))?,
            "--store" => {
                args.store = match value.as_str() {
                    "none" => StoreMode::None,
                    "cold" => StoreMode::Cold,
                    "warm" => StoreMode::Warm,
                    other => return Err(format!("--store {other}: expected none, cold or warm")),
                }
            }
            "--cache" => args.cache = PathBuf::from(&value),
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--spans" => args.spans = PathBuf::from(&value),
            "--result" => args.result = PathBuf::from(&value),
            "--tables" => args.tables = PathBuf::from(&value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.protocols.is_empty() || args.clients.is_empty() {
        return Err("--protocols and --clients are required".into());
    }
    if args.cache.as_os_str().is_empty() {
        return Err("--cache DIR is required".into());
    }
    Ok(args)
}

/// One grid point's configuration, built through the same flag grammar the
/// CLI parses, so that its digest matches the CLI's.
fn point_config(
    protocol: &str,
    clients: usize,
    secs: u64,
    seed: u64,
    audit: bool,
) -> Result<ScenarioConfig, String> {
    let mut b = ScenarioBuilder::paper();
    let flags = [
        ("--clients", clients.to_string()),
        ("--protocol", protocol.to_string()),
        ("--secs", secs.to_string()),
        ("--seed", seed.to_string()),
    ];
    for (flag, value) in &flags {
        b.apply_cli_flag(flag, Some(value)).map_err(|e| format!("{flag} {value}: {e}"))?;
    }
    if audit {
        b.apply_cli_flag("--audit", None).map_err(|e| format!("--audit: {e}"))?;
    }
    b.try_finish().map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------------
// The traced replay
// ---------------------------------------------------------------------------

struct Point {
    protocol: Protocol,
    clients: usize,
    cfg: ScenarioConfig,
    /// The same point with the invariant auditor on (a different digest,
    /// so it is run apart from the timed replays).
    audited: ScenarioConfig,
}

struct PointResult {
    report: ScenarioReport,
    hit: bool,
    looked_up: bool,
}

/// Resolves one grid point the way a sweep does (digest, store lookup,
/// simulate on a miss, store the result), each call in its own span.
fn resolve(
    tracer: &Tracer,
    parent: u64,
    index: usize,
    point: &Point,
    store: Option<&ResultStore>,
) -> Result<PointResult, String> {
    let p = index as i64;
    tracer.span("parallel.point", parent, p, |me| {
        let digest = store.map(|_| tracer.span("store.digest", me, p, |_| point_digest(&point.cfg)));
        if let (Some(store), Some(digest)) = (store, &digest) {
            // A lookup that misses is its own span name, so `store.get`
            // always times a hit.
            let got = tracer.span_named(me, p, |_| store.get(digest), |got| {
                if got.is_some() {
                    "store.get"
                } else {
                    "store.miss"
                }
            });
            if let Some(report) = got {
                return Ok(PointResult { report, hit: true, looked_up: true });
            }
        }
        let mut scenario = tracer.span("scenario.new", me, p, |_| Scenario::new(&point.cfg));
        tracer.span("scenario.run", me, p, |_| scenario.run_to_completion());
        let report = tracer.span("stats.finish", me, p, |_| scenario.into_report());
        if let (Some(store), Some(digest)) = (store, &digest) {
            tracer
                .span("store.put", me, p, |_| store.put(digest, &report))
                .map_err(|e| format!("store put: {e}"))?;
        }
        Ok(PointResult { report, hit: false, looked_up: store.is_some() })
    })
}

/// What the CLI prints for this grid: a sweep's four figure tables, or the
/// report block of a single run.
fn render(args: &Args, points: &[Point], reports: &[ScenarioReport]) -> Result<String, String> {
    if args.single {
        return Ok(format!("{}\n", reports[0]));
    }
    let cells = points
        .iter()
        .zip(reports)
        .map(|(p, r)| SweepCell {
            protocol: p.protocol,
            clients: p.clients,
            report: r.clone(),
        })
        .collect();
    let protocols = args
        .protocols
        .iter()
        .map(|s| s.parse::<Protocol>().map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let sweep = Sweep::from_cells(cells, protocols, args.clients.clone());
    let mut out = String::new();
    for table in [
        sweep.fig2_cov_table(),
        sweep.fig3_throughput_table(),
        sweep.fig4_loss_table(),
        sweep.fig13_timeout_ratio_table(),
    ] {
        let _ = writeln!(out, "{table}");
    }
    Ok(out)
}

/// One timed replay of the whole grid.
struct Rep {
    reports: Vec<ScenarioReport>,
    hits: u64,
    lookups: u64,
}

fn replay(tracer: &Tracer, args: &Args, points: &[Point], tag: &str) -> Result<Rep, String> {
    let store_dir = match args.store {
        StoreMode::None => None,
        StoreMode::Warm => Some(args.cache.clone()),
        StoreMode::Cold => Some(args.cache.join(tag)),
    };
    let results = tracer.span("workload", ROOT, NO_POINT, |root| {
        let store = match &store_dir {
            Some(dir) => Some(
                tracer
                    .span("store.open", root, NO_POINT, |_| ResultStore::open(dir.clone()))
                    .map_err(|e| format!("opening {}: {e}", dir.display()))?,
            ),
            None => None,
        };
        let results = tracer.span("parallel.run", root, NO_POINT, |run| {
            run_indexed(args.jobs, points.len(), |i| {
                resolve(tracer, run, i, &points[i], store.as_ref())
            })
        });
        results.into_iter().collect::<Result<Vec<_>, String>>()
    })?;
    if args.store == StoreMode::Cold {
        if let Some(dir) = &store_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
    let hits = results.iter().filter(|r| r.hit).count() as u64;
    let lookups = results.iter().filter(|r| r.looked_up).count() as u64;
    Ok(Rep {
        reports: results.into_iter().map(|r| r.report).collect(),
        hits,
        lookups,
    })
}

/// Runs every point once more with the invariant auditor on (untimed) and
/// fails if any audit does not pass.
fn audit_all(args: &Args, points: &[Point]) -> Result<(), String> {
    let outcomes = run_indexed(args.jobs, points.len(), |i| {
        let p = &points[i];
        match Scenario::run(&p.audited).audit {
            Some(a) if a.passed() => Ok(()),
            Some(a) => Err(format!(
                "audit failed for {} / {} clients: {:?}",
                p.protocol.label(),
                p.clients,
                a.violations
            )),
            None => Err("audit did not run".to_string()),
        }
    });
    outcomes.into_iter().collect()
}

// ---------------------------------------------------------------------------
// Layer microbenchmarks
// ---------------------------------------------------------------------------

/// splitmix64: the benchmark's own input generator, independent of the
/// simulator's RNG.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1].
    fn unit(&mut self) -> f64 {
        ((self.next() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }

    /// Exponential with the given mean.
    fn exp(&mut self, mean: f64) -> f64 {
        -mean * self.unit().ln()
    }

    /// A ring of 4096 exponential draws (as whole units, at least 1),
    /// drawn up front so that the generator's cost stays out of the timed
    /// loops.
    fn exp_ring(&mut self, mean: f64) -> Vec<u64> {
        (0..4096).map(|_| self.exp(mean) as u64 + 1).collect()
    }
}

/// Times `batch` (which performs some operations and returns how many) in
/// rounds of about `round` each, and returns the median nanoseconds per
/// operation over `rounds` rounds.
fn per_op_ns(rounds: usize, round: Duration, mut batch: impl FnMut() -> u64) -> f64 {
    let mut samples = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let started = Instant::now();
        let mut ops = 0u64;
        while started.elapsed() < round {
            ops += batch();
        }
        samples.push(started.elapsed().as_nanos() as f64 / ops.max(1) as f64);
    }
    median(&mut samples)
}

const ROUNDS: usize = 5;
const ROUND: Duration = Duration::from_millis(40);

/// `EventQueue` push+pop in the classic hold model, at `pending` events.
fn hold_ns(pending: usize, seed: u64) -> f64 {
    let mut rng = Mix(seed);
    let pending = pending.max(1);
    let mut q: EventQueue<u64> = EventQueue::with_capacity(pending);
    // Mean gap of 1 ms of simulated time between a pop and its re-push.
    let gaps = rng.exp_ring(1e6);
    for i in 0..pending {
        q.push(SimTime::from_nanos(gaps[i % gaps.len()] * (i as u64 % 7 + 1)), i as u64);
    }
    let mut k = 0usize;
    per_op_ns(ROUNDS, ROUND, || {
        for _ in 0..1024 {
            let (t, e) = q.pop().expect("hold queue never drains");
            k = (k + 1) % gaps.len();
            q.push(t + SimDuration::from_nanos(gaps[k]), black_box(e));
        }
        1024
    })
}

/// Per-hop forwarding on the workload's built topology: every flow injects
/// one packet, and a `Scheduler` pumps `on_tx_complete`/`on_delivery`
/// until the network is empty. Returns nanoseconds per handler call.
fn forward_ns(cfg: &ScenarioConfig) -> Result<f64, String> {
    let mut topo = cfg.topology_spec().build().map_err(|e| e.to_string())?;
    let mut sched: Scheduler<NetEvent> = Scheduler::with_capacity(4 * topo.flows.len() + 16);
    let size = cfg.params.packet_bytes;
    Ok(per_op_ns(ROUNDS, ROUND, || {
        let mut calls = 0u64;
        for (i, ep) in topo.flows.iter().enumerate() {
            let pkt = Packet {
                flow: FlowId(i as u32),
                kind: PacketKind::Datagram,
                size_bytes: size,
                src: ep.src,
                dst: ep.dst,
                created_at: sched.now(),
                ecn: Ecn::NotCapable,
            };
            topo.network.inject(pkt, &mut sched);
            calls += 1;
        }
        while let Some((_, ev)) = sched.pop() {
            match ev {
                NetEvent::TxComplete { link, epoch } => {
                    topo.network.on_tx_complete(link, epoch, &mut sched)
                }
                NetEvent::Delivery { link, epoch, packet } => {
                    black_box(topo.network.on_delivery(link, epoch, packet, &mut sched));
                }
            }
            calls += 1;
        }
        calls
    }))
}

/// Gateway queue enqueue+dequeue with `occupancy` packets already queued.
fn queue_ns(spec: QueueSpec, occupancy: usize, seed: u64) -> f64 {
    let mut q = spec.build(seed);
    let pkt = Packet {
        flow: FlowId(0),
        kind: PacketKind::Datagram,
        size_bytes: 1500,
        src: tcpburst_net::NodeId(0),
        dst: tcpburst_net::NodeId(1),
        created_at: SimTime::ZERO,
        ecn: Ecn::NotCapable,
    };
    // One 1500-byte serialization on the paper's 50 Mbps bottleneck.
    let step = SimDuration::from_micros(240);
    let mut now = SimTime::ZERO;
    for _ in 0..occupancy {
        q.enqueue(pkt, now);
    }
    per_op_ns(ROUNDS, ROUND, || {
        for _ in 0..1024 {
            now = now + step;
            black_box(q.enqueue(pkt, now));
            // Keep the backlog at the target even after a drop.
            while q.len() > occupancy {
                black_box(q.dequeue(now));
            }
        }
        1024
    })
}

/// The congestion-control policy's per-ACK hooks (`on_rtt_sample`,
/// `on_ack`, `on_round`) on a synthetic ACK stream with a loss every 256
/// ACKs. Returns nanoseconds per ACK.
fn on_ack_ns(protocol: &str, seed: u64) -> Result<f64, String> {
    let cfg = point_config(protocol, 1, 1, seed, false)?;
    let tcp = cfg.tcp_config();
    let mut policy = Policy::for_config(&tcp);
    let mut rng = Mix(seed);
    let advertised = f64::from(tcp.advertised_window);
    let (mut cwnd, mut ssthresh) = (1.0f64, advertised);
    let mut now = SimTime::ZERO;
    let mut seq = 0u64;
    let base = SimDuration::from_millis(44);
    let jitter = rng.exp_ring(2000.0);
    Ok(per_op_ns(ROUNDS, ROUND, || {
        for i in 0..1024u64 {
            let rtt = base + SimDuration::from_micros(jitter[(seq % 4096) as usize]);
            now = now + SimDuration::from_micros(500);
            seq += 1;
            policy.on_rtt_sample(rtt);
            let sample = AckSample {
                now,
                cwnd,
                ssthresh,
                in_slow_start: cwnd < ssthresh,
                advertised,
                newly_acked: 1,
                flight: cwnd,
                rtt: Some(rtt),
                srtt: Some(rtt),
                min_rtt: Some(base),
                rate: None,
            };
            if let Some(w) = policy.on_ack(&sample) {
                cwnd = w.clamp(1.0, advertised);
            }
            let round = RoundSample {
                ack: SeqNo(seq),
                snd_nxt: SeqNo(seq + cwnd as u64),
                cwnd,
                in_slow_start: cwnd < ssthresh,
                in_fast_recovery: false,
                advertised,
            };
            match policy.on_round(round) {
                Some(tcpburst_transport::RoundAdjust::SetCwnd(w)) => cwnd = w.clamp(1.0, advertised),
                Some(tcpburst_transport::RoundAdjust::ExitSlowStart { cwnd: w, ssthresh: s }) => {
                    cwnd = w.clamp(1.0, advertised);
                    ssthresh = s;
                }
                _ => {}
            }
            if i % 256 == 255 {
                let loss = LossContext {
                    now,
                    flight: cwnd,
                    cwnd,
                    ssthresh,
                    resume_from: SeqNo(seq),
                    min_rtt: Some(base),
                };
                ssthresh = match policy.on_loss_signal(&loss) {
                    tcpburst_transport::LossResponse::Collapse { ssthresh } => {
                        cwnd = 1.0;
                        ssthresh
                    }
                    tcpburst_transport::LossResponse::FastRecovery { ssthresh } => {
                        cwnd = policy.post_recovery_cwnd(ssthresh);
                        ssthresh
                    }
                };
            }
        }
        black_box(cwnd);
        1024
    }))
}

/// `BinnedCounter::record` at the workload's aggregate arrival rate.
fn record_ns(cfg: &ScenarioConfig, seed: u64) -> f64 {
    let mut rng = Mix(seed);
    let rate = cfg.source.mean_rate() * cfg.num_flows() as f64;
    let gaps = rng.exp_ring(1e9 / rate.max(1.0));
    let mut counter = BinnedCounter::starting_at(SimTime::ZERO, cfg.cov_bin_width());
    let (mut t, mut k) = (0u64, 0usize);
    per_op_ns(ROUNDS, ROUND, || {
        for _ in 0..1024 {
            k = (k + 1) % gaps.len();
            t += gaps[k];
            counter.record(SimTime::from_nanos(t));
        }
        1024
    })
}

// ---------------------------------------------------------------------------
// Probes: layer calls the workload's own path does not make
// ---------------------------------------------------------------------------

/// Round-trips the workload's reports through the codec, the frame layer
/// and a private store, each call in a span under a `probe` root. A layer
/// metric reads these spans only when the workload's own path made no
/// such call (a `run` never touches the store; a store hides its codec).
fn probe(tracer: &Tracer, args: &Args, points: &[Point], reports: &[ScenarioReport]) -> Result<f64, String> {
    let dir = args.cache.join("probe-store");
    let mut bytes = 0usize;
    tracer.span("probe", ROOT, NO_POINT, |root| -> Result<(), String> {
        let store = ResultStore::open(dir.clone()).map_err(|e| format!("probe store: {e}"))?;
        for (i, (point, report)) in points.iter().zip(reports).enumerate() {
            let p = i as i64;
            let payload = tracer
                .span("codec.encode", root, p, |_| codec::encode(report))
                .ok_or("report is not encodable")?;
            bytes += payload.len();
            let decoded = tracer
                .span("codec.decode", root, p, |_| codec::decode(&payload))
                .ok_or("encoded report does not decode")?;
            if codec::encode(&decoded).as_deref() != Some(payload.as_str()) {
                return Err("codec round trip changed the report".into());
            }
            tracer.span("net_transport.frame", root, p, |_| -> Result<(), String> {
                let mut wire = Vec::with_capacity(payload.len() + 16);
                write_frame(&mut wire, payload.as_bytes(), "probe").map_err(|e| e.to_string())?;
                let back = read_frame(&mut wire.as_slice(), "probe").map_err(|e| e.to_string())?;
                if back.as_deref() != Some(payload.as_bytes()) {
                    return Err("frame round trip changed the payload".into());
                }
                Ok(())
            })?;
            let digest = tracer.span("store.digest", root, p, |_| point_digest(&point.cfg));
            tracer
                .span("store.put", root, p, |_| store.put(&digest, report))
                .map_err(|e| format!("probe put: {e}"))?;
            if tracer.span("store.get", root, p, |_| store.get(&digest)).is_none() {
                return Err("probe store lost a report".into());
            }
        }
        Ok(())
    })?;
    let _ = std::fs::remove_dir_all(&dir);
    Ok(bytes as f64 / reports.len().max(1) as f64)
}

// ---------------------------------------------------------------------------
// Summaries
// ---------------------------------------------------------------------------

fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median duration, in seconds, of every span with this name.
fn median_span(spans: &[Span], name: &str) -> f64 {
    let mut v: Vec<f64> = spans.iter().filter(|s| s.name == name).map(Span::secs).collect();
    median(&mut v)
}

/// Per-replay totals of the spans under each `workload` root.
struct RepSpans {
    wall: f64,
    busy: f64,
    straggler: f64,
    setup: f64,
    run: f64,
    finish: f64,
}

fn rep_spans(spans: &[Span]) -> Vec<RepSpans> {
    let roots: Vec<&Span> = spans.iter().filter(|s| s.name == "workload").collect();
    roots
        .iter()
        .map(|root| {
            let inside = |s: &&Span| s.start_ns >= root.start_ns && s.end_ns <= root.end_ns;
            let total = |name: &str| -> f64 {
                spans.iter().filter(inside).filter(|s| s.name == name).map(Span::secs).sum()
            };
            // A lane's end is the end of the last point it ran; the
            // straggler is how long the last lane ran after the first one
            // ran out of points.
            let mut lane_end: Vec<(u64, u64)> = Vec::new();
            for s in spans.iter().filter(inside).filter(|s| s.name == "parallel.point") {
                match lane_end.iter_mut().find(|(l, _)| *l == s.lane) {
                    Some((_, end)) => *end = (*end).max(s.end_ns),
                    None => lane_end.push((s.lane, s.end_ns)),
                }
            }
            let ends: Vec<u64> = lane_end.iter().map(|(_, e)| *e).collect();
            let straggler = match (ends.iter().min(), ends.iter().max()) {
                (Some(lo), Some(hi)) if ends.len() > 1 => (hi - lo) as f64 / 1e9,
                _ => 0.0,
            };
            RepSpans {
                wall: root.secs(),
                busy: total("parallel.point"),
                straggler,
                setup: total("scenario.new"),
                run: total("scenario.run"),
                finish: total("stats.finish"),
            }
        })
        .collect()
}

fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"point\":{},\"lane\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.name, s.point, s.lane, s.start_ns, s.end_ns
        );
    }
    std::fs::write(path, out)
}

fn main() {
    match real_main() {
        Ok(()) => {}
        Err(e) => {
            eprintln!("perfbench-trace: {e}");
            std::process::exit(1);
        }
    }
}

/// The host's speed on a fixed integer loop that shares no code with the
/// simulator: median nanoseconds per splitmix64 step over five rounds.
fn calibrate() -> f64 {
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let mut mix = Mix(0x1CDC_2000);
            let mut acc = 0u64;
            let started = Instant::now();
            for _ in 0..20_000_000u32 {
                acc ^= mix.next();
            }
            black_box(acc);
            started.elapsed().as_nanos() as f64 / 20e6
        })
        .collect();
    median(&mut samples)
}

fn real_main() -> Result<(), String> {
    if std::env::args().nth(1).as_deref() == Some("--calibrate") {
        println!("{}", calibrate());
        return Ok(());
    }
    let args = parse_args()?;
    let mut points = Vec::new();
    for name in &args.protocols {
        let protocol: Protocol = name.parse().map_err(|e| format!("{name}: {e}"))?;
        for &clients in &args.clients {
            points.push(Point {
                protocol,
                clients,
                cfg: point_config(name, clients, args.secs, args.seed, false)?,
                audited: point_config(name, clients, args.secs, args.seed, true)?,
            });
        }
    }

    // Timed replays, alternating traced and untraced. Every replay must
    // render the same output.
    let tracer = Tracer::new(true);
    let quiet = Tracer::new(false);
    let started = Instant::now();
    let mut reps = Vec::new();
    let mut untraced_walls = Vec::new();
    let mut tables: Option<String> = None;
    while reps.is_empty()
        || (started.elapsed().as_secs_f64() < args.seconds && reps.len() < MAX_REPS)
    {
        let rep = replay(&tracer, &args, &points, &format!("traced-{}", reps.len()))?;
        let untraced_started = Instant::now();
        let plain = replay(&quiet, &args, &points, &format!("untraced-{}", reps.len()))?;
        untraced_walls.push(untraced_started.elapsed().as_secs_f64());
        for out in [render(&args, &points, &rep.reports)?, render(&args, &points, &plain.reports)?] {
            match &tables {
                None => tables = Some(out),
                Some(first) if *first != out => {
                    return Err("replays rendered different output".into())
                }
                Some(_) => {}
            }
        }
        reps.push(rep);
    }
    let tables = tables.unwrap_or_default();
    let replay_spans = tracer.take();
    let reports = &reps[0].reports;

    audit_all(&args, &points)?;
    let codec_bytes = probe(&tracer, &args, &points, reports)?;
    let probe_spans = tracer.take();

    // Per-layer microbenchmarks, sized from the workload's own reports.
    let pending_peak = reports.iter().map(|r| r.timers.pending_peak).max().unwrap_or(1) as usize;
    let occupancy = {
        let mean = reports.iter().map(|r| r.avg_queue_len).sum::<f64>() / reports.len() as f64;
        (mean.round() as usize).min(49)
    };
    let largest = points
        .iter()
        .max_by_key(|p| p.clients)
        .map(|p| p.cfg)
        .ok_or("empty grid")?;
    let micro_started = Instant::now();
    let mut micro = vec![
        ("des.hold_ns", hold_ns(pending_peak, args.seed)),
        ("net.forward_ns", forward_ns(&largest)?),
        (
            "net.droptail_ns",
            queue_ns(QueueSpec::DropTail { capacity: 50 }, occupancy, args.seed),
        ),
        (
            "net.red_ns",
            queue_ns(QueueSpec::Red(RedParams::paper_defaults()), occupancy, args.seed),
        ),
        ("transport.on_ack_ns.reno", on_ack_ns("reno", args.seed)?),
        ("transport.on_ack_ns.vegas", on_ack_ns("vegas", args.seed)?),
        ("stats.record_ns", record_ns(&largest, args.seed)),
    ];
    let micro_s = micro_started.elapsed().as_secs_f64();

    // Counts repeat exactly: they come from the reports' public fields.
    let sum = |f: &dyn Fn(&ScenarioReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
    let events = sum(&|r| r.events_processed);
    let cancelled = sum(&|r| r.timers.cancelled_in_place);
    let stale = sum(&|r| r.timers.stale_fired);
    let per_rep = rep_spans(&replay_spans);
    let rep_median = |f: &dyn Fn(&RepSpans) -> f64| {
        let mut v: Vec<f64> = per_rep.iter().map(f).collect();
        median(&mut v)
    };
    let run_s = rep_median(&|r| r.run);
    let lanes = args.jobs.max(1).min(points.len()) as f64;
    let hits: u64 = reps.iter().map(|r| r.hits).sum();
    let lookups: u64 = reps.iter().map(|r| r.lookups).sum();
    // A call the workload made itself is read from its own spans, anything
    // else from the probe's.
    let us = |name: &str| {
        let path = median_span(&replay_spans, name);
        (if path > 0.0 { path } else { median_span(&probe_spans, name) }) * 1e6
    };

    let mut metrics: Vec<(&str, f64)> = vec![
        ("scenario.setup_ms", rep_median(&|r| r.setup) * 1e3),
        ("scenario.ns_per_event", if events > 0.0 { run_s * 1e9 / events } else { 0.0 }),
        ("scenario.events", events),
        ("des.pending_peak", pending_peak as f64),
        ("des.cancelled_in_place", cancelled),
        ("des.stale_fired", stale),
        (
            "des.cancel_ratio",
            if cancelled + stale > 0.0 { cancelled / (cancelled + stale) } else { 0.0 },
        ),
        ("net.tx_events", sum(&|r| r.dispatch.net_tx.count)),
        ("net.delivery_events", sum(&|r| r.dispatch.net_delivery.count)),
        ("net.drops", sum(&|r| r.bottleneck_queue.drops_total())),
        (
            "net.peak_queue",
            reports.iter().map(|r| r.bottleneck_queue.peak_len).max().unwrap_or(0) as f64,
        ),
        ("transport.timer_events", sum(&|r| r.dispatch.transport.count)),
        ("transport.timeouts", sum(&|r| r.tcp_totals.timeouts)),
        ("transport.fast_retx", sum(&|r| r.tcp_totals.fast_retransmits)),
        ("traffic.generate_events", sum(&|r| r.dispatch.generate.count)),
        ("stats.finish_ms", rep_median(&|r| r.finish) * 1e3),
        ("store.digest_us", us("store.digest")),
        ("store.get_us", us("store.get")),
        ("store.put_us", us("store.put")),
        ("store.hit_ratio", if lookups > 0 { hits as f64 / lookups as f64 } else { 0.0 }),
        ("codec.encode_us", us("codec.encode")),
        ("codec.decode_us", us("codec.decode")),
        ("codec.bytes", codec_bytes),
        ("net_transport.frame_us", us("net_transport.frame")),
        ("parallel.busy_ratio", rep_median(&|r| r.busy / (lanes * r.wall))),
        ("parallel.straggler_s", rep_median(&|r| r.straggler)),
    ];
    metrics.append(&mut micro);

    let mut json = String::from("{");
    let mut field = |k: &str, v: f64| {
        if json.len() > 1 {
            json.push(',');
        }
        // `+ 0.0` turns the -0.0 of an empty sum into 0.
        let _ = write!(json, "\"{k}\":{}", v + 0.0);
    };
    for (k, v) in &metrics {
        field(k, *v);
    }
    let traced_wall = rep_median(&|r| r.wall);
    let untraced_wall = median(&mut untraced_walls);
    field("tracing.overhead_ratio", traced_wall / untraced_wall);
    field("traced_wall_s", traced_wall);
    field("untraced_wall_s", untraced_wall);
    field("point_busy_s", rep_median(&|r| r.busy));
    field("points", points.len() as f64);
    field("lanes", lanes);
    field("reps", reps.len() as f64);
    field("micro_s", micro_s);
    json.push_str("}\n");

    let mut all_spans = replay_spans;
    all_spans.extend(probe_spans);
    write_spans(&args.spans, &all_spans).map_err(|e| format!("writing spans: {e}"))?;
    std::fs::write(&args.result, json).map_err(|e| format!("writing result: {e}"))?;
    std::fs::write(&args.tables, tables).map_err(|e| format!("writing tables: {e}"))?;
    Ok(())
}
