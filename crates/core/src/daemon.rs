//! Worker-process fan-out for sweeps: a gateway that accepts sweep jobs
//! and worker registrations over TCP, the executor that drives registered
//! workers from a claim-counter pool, and the worker that dials in and
//! computes grid points. It is the one path by which a grid point reaches
//! another process, local or remote.
//!
//! ## Topology
//!
//! ```text
//!   tcpburst submit ----> tcpburst serve <---- tcpburst worker --connect
//!   (job: argv tail)      (gateway + claim pool)    (1..n machines)
//! ```
//!
//! The daemon ([`Gateway`]) listens on one socket and classifies each
//! connection by its first frame: `worker <token> <schema> <resume|->`
//! registers a worker, `sweep <token>\n<argv…>` submits a job. Workers
//! authenticate with the shared job token and are parked until a job is
//! running; the job's [`RemoteExec`] then drives every registered worker
//! from a shared claim pool — the same work-stealing discipline as the
//! thread pool, so output stays byte-identical.
//!
//! `sweep --workers N` runs the same machinery on one host: the sweep
//! binds a gateway on `127.0.0.1:0` under a random per-sweep token and
//! starts N children of its own binary as `worker --connect ADDR`, with
//! the token in their environment ([`TOKEN_ENV`]) rather than their
//! argv. The scenario argv reaches them in the `job` greeting. When the
//! sweep ends, every child still running is killed and reaped and the
//! listener closes.
//!
//! ## Protocol
//!
//! Frames are the [`crate::net_transport`] wire format (length prefix +
//! SHA-256-derived checksum + UTF-8 payload). After the handshake the
//! driver sends one `point <index> <protocol> <clients> <seed> <sim|->
//! <events|-> <wall|->` frame per claimed grid point (the trailing triple
//! is the watchdog budget, `-` = unlimited); the worker replies
//! `done <index>\n<codec payload>` or `fail <index> <kind>\n<message>`,
//! interleaving `hb` heartbeats while it computes. The scenario base
//! configuration never crosses the wire: the worker re-parses the job's
//! CLI argument tail with the same parser, and only the per-point
//! coordinates travel as data. Replies are decoded by the same exact
//! codec the result store uses, so a point's bytes do not depend on who
//! computed it.
//!
//! ## Robustness model
//!
//! Every failure mode has a bounded, counted recovery:
//!
//! * **Silent worker** — while a point is in flight the worker heartbeats
//!   (`hb` frames) between compute polls; the daemon reads under a
//!   liveness deadline, and a deadline expiry *requeues* the in-flight
//!   point and drops the connection (`heartbeat_misses`).
//! * **Dead or partitioned worker** — any frame error (EOF, truncation,
//!   checksum, injected chaos) requeues the in-flight point
//!   (`requeued_points`, `worker_restarts`).
//! * **Hung simulation** — the per-point wall-clock budget travels in the
//!   point frame; a worker that heartbeats past the budget-derived
//!   deadline is cut off, and the point retries under the supervisor's
//!   budget-doubling policy.
//! * **Worker comeback** — a disconnected worker reconnects with
//!   exponential backoff + jitter, offering the job digest it already
//!   holds; a matching digest short-circuits to a `resume` handshake
//!   (`backoff_retries`) instead of reshipping the config.
//! * **Total worker loss** — when no worker has been live for a grace
//!   period, the dispatcher degrades gracefully and computes the remaining
//!   claims *in-process*, back to back; between points it looks at the
//!   gateway without waiting, so a late worker can still rejoin and steal
//!   what's left. A crashed local child is not respawned: its point goes
//!   to the surviving children, and once none is left this path finishes
//!   the sweep.
//!
//! A point is resolved exactly once: a zombie worker's late reply for an
//! already-requeued point is discarded, so the journal never sees a
//! duplicate append and the byte-identity contract holds under any chaos
//! schedule ([`crate::chaos`]).

use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::{BuildHasher, Hasher};
use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tcpburst_des::SimDuration;

use crate::chaos::{ChaosSchedule, ChaosTransport, CHAOS_ENV, CHAOS_ID_ENV, HEARTBEAT_PAYLOAD};
use crate::codec;
use crate::config::{Protocol, ScenarioConfig};
use crate::net_transport::{FrameTransport, TcpTransport};
use crate::report::ScenarioReport;
use crate::store::ENGINE_SCHEMA_VERSION;
use crate::supervise::{FailurePolicy, PointOutcome, RunBudget, RunError};

/// How long a freshly accepted connection gets to identify itself.
const HANDSHAKE_DEADLINE: Duration = Duration::from_secs(5);

/// Hard cap on how often one point may be requeued before it is failed —
/// a backstop against a point that kills every worker it touches forever.
const MAX_REQUEUES: u32 = 32;

/// Environment variable naming a grid-point index at which a worker
/// process deliberately aborts — the crash-isolation test hook. Unset in
/// normal operation.
pub const CRASH_AT_ENV: &str = "TCPBURST_WORKER_CRASH_AT";

/// Environment variable carrying the job token to `tcpburst worker` when
/// no `--token` is given. Local sweep children receive their per-sweep
/// token this way, so it never shows in a process listing.
pub const TOKEN_ENV: &str = "TCPBURST_TOKEN";

// ---------------------------------------------------------------------------
// Point frames and replies
// ---------------------------------------------------------------------------

/// One grid point's coordinates, as shipped to a worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PointSpec {
    /// Protocol of the point.
    pub protocol: Protocol,
    /// Client count of the point.
    pub clients: usize,
    /// Seed of the point.
    pub seed: u64,
}

fn budget_field(v: Option<u64>) -> String {
    match v {
        Some(n) => n.to_string(),
        None => "-".to_string(),
    }
}

fn parse_budget_field(token: &str) -> Option<Option<u64>> {
    if token == "-" {
        Some(None)
    } else {
        token.parse().ok().map(Some)
    }
}

fn point_frame(index: usize, point: &PointSpec, budget: &RunBudget) -> String {
    format!(
        "point {index} {} {} {} {} {} {}",
        point.protocol.cli_name(),
        point.clients,
        point.seed,
        budget_field(budget.max_sim_time.map(|d| d.as_nanos())),
        budget_field(budget.max_events),
        budget_field(budget.max_wall.map(|w| w.as_nanos() as u64)),
    )
}

/// Parses a `point ...` frame into its coordinates and budget.
fn parse_point_frame(text: &str) -> Option<(usize, PointSpec, RunBudget)> {
    let rest = text.strip_prefix("point ")?;
    let mut tokens = rest.split_whitespace();
    let index: usize = tokens.next()?.parse().ok()?;
    let protocol: Protocol = tokens.next()?.parse().ok()?;
    let clients: usize = tokens.next()?.parse().ok()?;
    let seed: u64 = tokens.next()?.parse().ok()?;
    let budget = RunBudget {
        max_sim_time: parse_budget_field(tokens.next()?)?.map(SimDuration::from_nanos),
        max_events: parse_budget_field(tokens.next()?)?,
        max_wall: parse_budget_field(tokens.next()?)?.map(Duration::from_nanos),
    };
    if tokens.next().is_some() {
        return None;
    }
    Some((index, PointSpec { protocol, clients, seed }, budget))
}

/// What a worker sent back for one point.
enum Reply {
    /// The point completed; decoded report attached.
    Done(ScenarioReport),
    /// The point failed remotely with a typed kind and message.
    Fail {
        /// The remote [`RunError::kind`].
        kind: String,
        /// The remote error rendered as text.
        message: String,
    },
}

/// Parses a `done`/`fail` reply frame into its echoed index and payload.
fn parse_reply(text: &str) -> Option<(usize, Reply)> {
    let (head, body) = text.split_once('\n')?;
    let mut tokens = head.split_whitespace();
    let tag = tokens.next()?;
    let index: usize = tokens.next()?.parse().ok()?;
    match tag {
        "done" => {
            if tokens.next().is_some() {
                return None;
            }
            Some((index, Reply::Done(codec::decode(body)?)))
        }
        "fail" => Some((
            index,
            Reply::Fail {
                kind: tokens.next()?.to_string(),
                message: body.to_string(),
            },
        )),
        _ => None,
    }
}

/// Runs one `point` frame against `base` and renders the reply frame;
/// `None` when the frame does not parse.
fn handle_point(base: &ScenarioConfig, text: &str, crash_at: Option<usize>) -> Option<String> {
    let (index, spec, budget) = parse_point_frame(text)?;
    if crash_at == Some(index) {
        // The crash-isolation hook: die like a segfault would, with no
        // unwinding and no reply frame.
        std::process::abort();
    }
    let mut cfg = *base;
    cfg.num_clients = spec.clients;
    cfg.apply_protocol(spec.protocol);
    cfg.seed = spec.seed;
    Some(match crate::supervise::run_point(&cfg, &budget) {
        Ok(report) => match codec::encode(&report) {
            Some(payload) => format!("done {index}\n{payload}"),
            None => format!(
                "fail {index} unencodable\nreport carries trace payloads \
                 the worker protocol cannot ship"
            ),
        },
        Err(error) => format!("fail {index} {}\n{error}", error.kind()),
    })
}

// ---------------------------------------------------------------------------
// Robustness accounting
// ---------------------------------------------------------------------------

/// Control-plane robustness counters, surfaced in the sweep summary next
/// to the cache statistics. All zeros on a fault-free run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RobustnessCounters {
    /// In-flight grid points put back for another attempt after their
    /// worker died, disconnected or went silent (one increment per
    /// requeue event; a point can be requeued more than once).
    pub requeued_points: u64,
    /// Worker connections that ended abnormally (died, disconnected,
    /// went silent or failed the job handshake).
    pub worker_restarts: u64,
    /// Liveness deadlines that expired with no frame and no heartbeat
    /// from a worker.
    pub heartbeat_misses: u64,
    /// Remote-worker re-registrations after backoff (resume handshakes
    /// accepted for a worker that reconnected).
    pub backoff_retries: u64,
}

impl RobustnessCounters {
    /// True when any counter is non-zero (the summary line is printed
    /// only then, keeping fault-free output unchanged).
    pub fn any(&self) -> bool {
        *self != RobustnessCounters::default()
    }

    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &RobustnessCounters) {
        self.requeued_points += other.requeued_points;
        self.worker_restarts += other.worker_restarts;
        self.heartbeat_misses += other.heartbeat_misses;
        self.backoff_retries += other.backoff_retries;
    }
}

impl fmt::Display for RobustnessCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "requeued_points={} worker_restarts={} heartbeat_misses={} backoff_retries={}",
            self.requeued_points, self.worker_restarts, self.heartbeat_misses, self.backoff_retries
        )
    }
}

/// Atomic counterpart shared across driver threads.
#[derive(Debug, Default)]
struct SharedCounters {
    requeued_points: AtomicU64,
    worker_restarts: AtomicU64,
    heartbeat_misses: AtomicU64,
    backoff_retries: AtomicU64,
}

impl SharedCounters {
    fn snapshot(&self) -> RobustnessCounters {
        RobustnessCounters {
            requeued_points: self.requeued_points.load(Ordering::Relaxed),
            worker_restarts: self.worker_restarts.load(Ordering::Relaxed),
            heartbeat_misses: self.heartbeat_misses.load(Ordering::Relaxed),
            backoff_retries: self.backoff_retries.load(Ordering::Relaxed),
        }
    }
}

/// Tuning for the daemon side of the control plane.
#[derive(Debug, Clone, Copy)]
pub struct ExecTuning {
    /// Read deadline while a point is in flight: a worker that sends
    /// neither a reply nor a heartbeat for this long is declared dead.
    pub liveness: Duration,
    /// How long the driver waits with zero live workers before degrading
    /// to in-process execution.
    pub grace: Duration,
}

impl Default for ExecTuning {
    fn default() -> Self {
        ExecTuning {
            liveness: Duration::from_millis(2000),
            grace: Duration::from_millis(1500),
        }
    }
}

// ---------------------------------------------------------------------------
// Gateway: the daemon's accept loop
// ---------------------------------------------------------------------------

/// A registered remote worker, parked until a job drives it.
pub(crate) struct WorkerConn {
    transport: TcpTransport,
    /// The job digest the worker already holds (a reconnecting worker's
    /// resume offer), if any.
    resume: Option<String>,
}

/// A submitted sweep job: the client's connection plus the argv tail it
/// wants run. The daemon streams output frames back on the same
/// connection.
pub struct JobConn {
    transport: TcpTransport,
    argv: Vec<String>,
}

impl JobConn {
    /// The submitted CLI argument tail.
    pub fn argv(&self) -> &[String] {
        &self.argv
    }

    /// Streams a chunk of stdout text back to the submitter.
    pub fn send_out(&mut self, text: &str) -> bool {
        self.transport.send_text(&format!("out\n{text}")).is_ok()
    }

    /// Streams a chunk of stderr text back to the submitter.
    pub fn send_err(&mut self, text: &str) -> bool {
        self.transport.send_text(&format!("err\n{text}")).is_ok()
    }

    /// Ends the job conversation: `ok` tells the submitter the sweep
    /// completed, the message carries a failure summary otherwise.
    pub fn finish(&mut self, ok: bool, message: &str) {
        let frame = if ok {
            "done ok".to_string()
        } else {
            format!("done fail\n{message}")
        };
        let _ = self.transport.send_text(&frame);
    }
}

/// The daemon's front door: binds the listen address, accepts and
/// classifies connections (worker registrations vs job submissions), and
/// parks workers until a [`RemoteExec`] drives them. Dropping it closes
/// the listener and joins the accept thread.
pub struct Gateway {
    addr: SocketAddr,
    /// Registered workers, plus `None` wake-ups that a running job sends
    /// its own dispatcher when a point resolves or a driver exits.
    arrivals_tx: Sender<Option<WorkerConn>>,
    arrivals_rx: Mutex<Receiver<Option<WorkerConn>>>,
    jobs_rx: Mutex<Receiver<JobConn>>,
    closed: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl fmt::Debug for Gateway {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Gateway").field("addr", &self.addr).finish()
    }
}

impl Gateway {
    /// Binds `listen` (e.g. `127.0.0.1:0` for an ephemeral test port) and
    /// starts the accept thread. Connections must present `token` in
    /// their first frame or are rejected. The accept thread lives until
    /// the gateway is dropped.
    pub fn bind(listen: &str, token: &str) -> io::Result<Gateway> {
        let listener = TcpListener::bind(listen)?;
        let addr = listener.local_addr()?;
        let (arrivals_tx, arrivals_rx) = channel();
        let (jobs_tx, jobs_rx) = channel();
        let closed = Arc::new(AtomicBool::new(false));
        let accept = {
            let token = token.to_string();
            let arrivals = arrivals_tx.clone();
            let closed = Arc::clone(&closed);
            std::thread::spawn(move || accept_loop(listener, &token, &arrivals, &jobs_tx, &closed))
        };
        Ok(Gateway {
            addr,
            arrivals_tx,
            arrivals_rx: Mutex::new(arrivals_rx),
            jobs_rx: Mutex::new(jobs_rx),
            closed,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves `:0` to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks for the next submitted job; `None` when the accept loop has
    /// died (the listener socket failed).
    pub fn next_job(&self) -> Option<JobConn> {
        let rx = self.jobs_rx.lock().ok()?;
        rx.recv().ok()
    }

    /// The next registered worker: blocks up to `timeout`
    /// (`Duration::MAX` = until something arrives) and returns `None` on
    /// a wake-up or a timeout.
    fn next_worker(&self, timeout: Duration) -> Option<WorkerConn> {
        self.arrivals_rx
            .lock()
            .ok()?
            .recv_timeout(timeout)
            .ok()
            .flatten()
    }

    /// A registered worker if one is waiting, without blocking.
    fn try_next_worker(&self) -> Option<WorkerConn> {
        self.arrivals_rx.lock().ok()?.try_recv().ok().flatten()
    }

    /// Wakes a dispatcher blocked in [`next_worker`](Self::next_worker).
    fn wake(&self) {
        let _ = self.arrivals_tx.send(None);
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        self.closed.store(true, Ordering::SeqCst);
        let Some(accept) = self.accept.take() else {
            return;
        };
        // The accept thread is blocked in `accept`: a loopback connection
        // wakes it, it sees `closed` and returns, dropping the listener.
        let ip = match self.addr {
            SocketAddr::V4(a) if a.ip().is_unspecified() => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(a) if a.ip().is_unspecified() => Ipv6Addr::LOCALHOST.into(),
            a => a.ip(),
        };
        let woken =
            TcpStream::connect_timeout(&SocketAddr::new(ip, self.addr.port()), HANDSHAKE_DEADLINE);
        if woken.is_ok() || accept.is_finished() {
            let _ = accept.join();
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    token: &str,
    workers: &Sender<Option<WorkerConn>>,
    jobs: &Sender<JobConn>,
    closed: &AtomicBool,
) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            return;
        };
        if closed.load(Ordering::SeqCst) {
            return;
        }
        let token = token.to_string();
        let workers = workers.clone();
        let jobs = jobs.clone();
        std::thread::spawn(move || classify(stream, &token, &workers, &jobs));
    }
}

/// Reads one identification frame and routes the connection; anything
/// malformed, mis-tokened or mis-versioned gets a `reject` frame and is
/// dropped.
fn classify(
    stream: TcpStream,
    token: &str,
    workers: &Sender<Option<WorkerConn>>,
    jobs: &Sender<JobConn>,
) {
    let _ = stream.set_nodelay(true);
    let mut t = TcpTransport::new(stream);
    if t.set_read_deadline(Some(HANDSHAKE_DEADLINE)).is_err() {
        return;
    }
    let Ok(Some(text)) = t.recv_text() else {
        return;
    };
    if let Some(rest) = text.strip_prefix("worker ") {
        let mut tokens = rest.split_whitespace();
        let (Some(offered), Some(schema), Some(resume)) =
            (tokens.next(), tokens.next(), tokens.next())
        else {
            let _ = t.send_text("reject malformed worker registration");
            return;
        };
        if offered != token {
            let _ = t.send_text("reject bad token");
            return;
        }
        if schema.parse::<u32>().ok() != Some(ENGINE_SCHEMA_VERSION) {
            let _ = t.send_text(&format!(
                "reject worker speaks engine schema {schema}, daemon expects \
                 {ENGINE_SCHEMA_VERSION} (mixed builds?)"
            ));
            return;
        }
        // Park until a job drives this worker; no deadline while idle.
        if t.set_read_deadline(None).is_err() {
            return;
        }
        let resume = (resume != "-").then(|| resume.to_string());
        let _ = workers.send(Some(WorkerConn {
            transport: t,
            resume,
        }));
    } else if let Some(body) = text.strip_prefix("sweep ") {
        let (offered, argv_text) = match body.split_once('\n') {
            Some((head, tail)) => (head.trim(), tail),
            None => (body.trim(), ""),
        };
        if offered != token {
            let _ = t.send_text("reject bad token");
            return;
        }
        let argv: Vec<String> = argv_text
            .lines()
            .map(str::to_string)
            .filter(|l| !l.is_empty())
            .collect();
        let _ = jobs.send(JobConn { transport: t, argv });
    } else {
        let _ = t.send_text("reject unrecognized peer");
    }
}

// ---------------------------------------------------------------------------
// RemoteExec: driving registered workers through one sweep
// ---------------------------------------------------------------------------

/// Executes one sweep's pending grid points across the gateway's
/// registered remote workers, with the robustness model described in the
/// module docs. Attach to a [`crate::SweepSupervisor`] via
/// [`remote`](crate::SweepSupervisor::remote).
pub struct RemoteExec {
    gateway: Arc<Gateway>,
    argv: Vec<String>,
    tuning: ExecTuning,
}

impl fmt::Debug for RemoteExec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RemoteExec")
            .field("gateway", &self.gateway)
            .field("argv", &self.argv)
            .field("tuning", &self.tuning)
            .finish()
    }
}

impl RemoteExec {
    /// A remote executor shipping `argv` (the scenario argument tail both
    /// sides parse into the identical base config) to workers registered
    /// at `gateway`.
    pub fn new(gateway: Arc<Gateway>, argv: Vec<String>, tuning: ExecTuning) -> RemoteExec {
        RemoteExec {
            gateway,
            argv,
            tuning,
        }
    }

    /// Runs every point across the registered workers (and, under total
    /// worker loss, in-process); outcomes come back in point order with
    /// the control plane's robustness counters.
    ///
    /// `fallback` computes one point in-process under the given budget.
    /// `on_done` runs the moment a point completes (this is where the
    /// supervisor appends the journal line and writes the result store);
    /// an `Err` from it demotes the point to [`PointOutcome::Failed`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_points<F, G>(
        &self,
        digest: &str,
        specs: &[PointSpec],
        budget: RunBudget,
        policy: FailurePolicy,
        retries: u32,
        fallback: G,
        on_done: F,
    ) -> (Vec<PointOutcome<ScenarioReport>>, RobustnessCounters)
    where
        F: Fn(usize, &ScenarioReport) -> Result<(), RunError> + Sync,
        G: Fn(usize, &RunBudget) -> Result<ScenarioReport, RunError> + Sync,
    {
        let gateway = &*self.gateway;
        let ctx = RunCtx {
            gateway,
            digest,
            argv: &self.argv,
            specs,
            budget,
            policy,
            retries,
            liveness: self.tuning.liveness,
            next: AtomicUsize::new(0),
            requeued: Mutex::new(Vec::new()),
            attempts: specs.iter().map(|_| AtomicU32::new(0)).collect(),
            slots: Mutex::new((0..specs.len()).map(|_| None).collect()),
            resolved: AtomicUsize::new(0),
            abort: AtomicBool::new(false),
            live_workers: AtomicUsize::new(0),
            counters: SharedCounters::default(),
            on_done,
            fallback,
        };

        // The dispatcher blocks on the gateway. Drivers wake it when the
        // last point resolves and when they exit, so it never polls.
        std::thread::scope(|scope| {
            let mut zero_since = Some(Instant::now());
            while ctx.resolved.load(Ordering::SeqCst) < specs.len() {
                ctx.skip_unclaimed_on_abort();
                let conn = if ctx.live_workers.load(Ordering::SeqCst) > 0 {
                    zero_since = None;
                    gateway.next_worker(Duration::MAX)
                } else {
                    let since = *zero_since.get_or_insert_with(Instant::now);
                    match self.tuning.grace.checked_sub(since.elapsed()) {
                        Some(left) if !left.is_zero() => gateway.next_worker(left),
                        _ => {
                            // Graceful degradation: no worker for a full
                            // grace period. Compute claims in-process back
                            // to back, looking at the door between points
                            // so a late worker can still rejoin.
                            let conn = gateway.try_next_worker();
                            if conn.is_none() {
                                if let Some(j) = ctx.claim() {
                                    ctx.run_local(j);
                                }
                            }
                            conn
                        }
                    }
                };
                if let Some(conn) = conn {
                    ctx.live_workers.fetch_add(1, Ordering::SeqCst);
                    let ctx = &ctx;
                    scope.spawn(move || {
                        drive_worker(conn, ctx);
                        ctx.live_workers.fetch_sub(1, Ordering::SeqCst);
                        ctx.gateway.wake();
                    });
                }
            }
        });

        let outcomes = ctx
            .slots
            .lock()
            .map(|mut slots| {
                slots
                    .iter_mut()
                    .map(|slot| match slot.take() {
                        Some(outcome) => outcome,
                        None => PointOutcome::Failed(RunError::Panicked {
                            message: "remote driver lost a point slot".to_string(),
                        }),
                    })
                    .collect()
            })
            .unwrap_or_default();
        (outcomes, ctx.counters.snapshot())
    }
}

/// Shared state of one remote run: the claim pool, resolve-once slots,
/// per-point attempt counts and robustness counters.
struct RunCtx<'a, F, G> {
    gateway: &'a Gateway,
    digest: &'a str,
    argv: &'a [String],
    specs: &'a [PointSpec],
    budget: RunBudget,
    policy: FailurePolicy,
    retries: u32,
    liveness: Duration,
    next: AtomicUsize,
    requeued: Mutex<Vec<usize>>,
    attempts: Vec<AtomicU32>,
    slots: Mutex<Vec<Option<PointOutcome<ScenarioReport>>>>,
    resolved: AtomicUsize,
    abort: AtomicBool,
    live_workers: AtomicUsize,
    counters: SharedCounters,
    on_done: F,
    fallback: G,
}

impl<F, G> RunCtx<'_, F, G>
where
    F: Fn(usize, &ScenarioReport) -> Result<(), RunError> + Sync,
    G: Fn(usize, &RunBudget) -> Result<ScenarioReport, RunError> + Sync,
{
    /// Claims the next unowned point: requeued points first, then the
    /// shared counter. `None` once the pool is drained (or aborted).
    fn claim(&self) -> Option<usize> {
        if self.abort.load(Ordering::SeqCst) {
            return None;
        }
        if let Ok(mut q) = self.requeued.lock() {
            if let Some(j) = q.pop() {
                return Some(j);
            }
        }
        let j = self.next.fetch_add(1, Ordering::SeqCst);
        (j < self.specs.len()).then_some(j)
    }

    /// The point's budget under the doubling retry policy: doubled once
    /// per recorded attempt, capped at the retry bound.
    fn budget_for(&self, j: usize) -> RunBudget {
        let attempts = self.attempts[j].load(Ordering::SeqCst).min(self.retries);
        let mut budget = self.budget;
        for _ in 0..attempts {
            budget = budget.doubled();
        }
        budget
    }

    /// Puts an in-flight point back into the pool (its worker died, went
    /// silent, or overran its deadline); after [`MAX_REQUEUES`] the point
    /// is failed instead so a poisonous point cannot spin forever.
    fn requeue(&self, j: usize, why: &str) {
        self.counters.requeued_points.fetch_add(1, Ordering::Relaxed);
        let n = self.attempts[j].fetch_add(1, Ordering::SeqCst) + 1;
        if n > MAX_REQUEUES {
            self.resolve(
                j,
                PointOutcome::Failed(RunError::Remote {
                    kind: "requeue-limit".to_string(),
                    message: format!(
                        "point requeued {MAX_REQUEUES} times without completing (last: {why})"
                    ),
                }),
            );
            return;
        }
        if let Ok(mut q) = self.requeued.lock() {
            q.push(j);
        }
    }

    /// Resolves a point exactly once; late duplicates (a zombie worker
    /// replying for an already-requeued point) are discarded, which is
    /// what keeps the journal free of duplicate appends.
    fn resolve(&self, j: usize, outcome: PointOutcome<ScenarioReport>) {
        let Ok(mut slots) = self.slots.lock() else {
            return;
        };
        if slots[j].is_some() {
            return;
        }
        let outcome = match outcome {
            PointOutcome::Done(report) => match (self.on_done)(j, &report) {
                Ok(()) => PointOutcome::Done(report),
                Err(e) => PointOutcome::Failed(e),
            },
            other => other,
        };
        let abort =
            matches!(outcome, PointOutcome::Failed(_)) && self.policy == FailurePolicy::FailFast;
        if abort {
            self.abort.store(true, Ordering::SeqCst);
        }
        slots[j] = Some(outcome);
        if self.resolved.fetch_add(1, Ordering::SeqCst) + 1 == self.specs.len() || abort {
            self.gateway.wake();
        }
    }

    /// Handles a worker's terminal reply for a point.
    fn finish_remote(&self, j: usize, reply: Reply) {
        match reply {
            Reply::Done(report) => self.resolve(j, PointOutcome::Done(report)),
            Reply::Fail { kind, message } => {
                if kind == "budget-exceeded"
                    && self.attempts[j].load(Ordering::SeqCst) < self.retries
                {
                    self.attempts[j].fetch_add(1, Ordering::SeqCst);
                    if let Ok(mut q) = self.requeued.lock() {
                        q.push(j);
                    }
                } else {
                    self.resolve(j, PointOutcome::Failed(RunError::Remote { kind, message }));
                }
            }
        }
    }

    /// Computes one claimed point in-process (graceful degradation),
    /// honoring the budget-doubling retry policy.
    fn run_local(&self, j: usize) {
        let budget = self.budget_for(j);
        match (self.fallback)(j, &budget) {
            Ok(report) => self.resolve(j, PointOutcome::Done(report)),
            Err(e) => {
                if e.kind() == "budget-exceeded"
                    && self.attempts[j].load(Ordering::SeqCst) < self.retries
                {
                    self.attempts[j].fetch_add(1, Ordering::SeqCst);
                    if let Ok(mut q) = self.requeued.lock() {
                        q.push(j);
                    }
                } else {
                    self.resolve(j, PointOutcome::Failed(e));
                }
            }
        }
    }

    /// After a fail-fast abort, resolve everything still unclaimed as
    /// skipped (claims return `None` once aborted, so nothing else will
    /// ever pick these up).
    fn skip_unclaimed_on_abort(&self) {
        if !self.abort.load(Ordering::SeqCst) {
            return;
        }
        loop {
            let j = {
                let Ok(mut q) = self.requeued.lock() else { return };
                match q.pop() {
                    Some(j) => j,
                    None => {
                        let j = self.next.fetch_add(1, Ordering::SeqCst);
                        if j >= self.specs.len() {
                            return;
                        }
                        j
                    }
                }
            };
            self.resolve(j, PointOutcome::Skipped);
        }
    }
}

/// Drives one registered worker through the claim pool until the pool is
/// drained, the worker dies, or it goes silent past the liveness
/// deadline. Every exit path either resolves or requeues the in-flight
/// point — nothing is lost.
fn drive_worker<F, G>(mut conn: WorkerConn, ctx: &RunCtx<'_, F, G>)
where
    F: Fn(usize, &ScenarioReport) -> Result<(), RunError> + Sync,
    G: Fn(usize, &RunBudget) -> Result<ScenarioReport, RunError> + Sync,
{
    let t = &mut conn.transport;
    // Registration reply: a reconnecting worker offering the right digest
    // resumes without reshipping the config.
    let resumed = conn.resume.as_deref() == Some(ctx.digest);
    let greeting = if resumed {
        ctx.counters.backoff_retries.fetch_add(1, Ordering::Relaxed);
        format!("resume {}", ctx.digest)
    } else {
        format!("job {}\n{}", ctx.digest, ctx.argv.join("\n"))
    };
    if t.send_text(&greeting).is_err() || t.set_read_deadline(Some(ctx.liveness)).is_err() {
        ctx.counters.worker_restarts.fetch_add(1, Ordering::Relaxed);
        return;
    }
    match t.recv_text() {
        Ok(Some(text)) if text == format!("ready {}", ctx.digest) => {}
        _ => {
            // Config parse failure, digest mismatch or death during
            // setup: nothing in flight, nothing to requeue.
            ctx.counters.worker_restarts.fetch_add(1, Ordering::Relaxed);
            return;
        }
    }
    loop {
        let Some(j) = ctx.claim() else {
            let _ = t.send_text("shutdown");
            return;
        };
        let budget = ctx.budget_for(j);
        if t.send_text(&point_frame(j, &ctx.specs[j], &budget)).is_err() {
            ctx.counters.worker_restarts.fetch_add(1, Ordering::Relaxed);
            ctx.requeue(j, "send failed");
            return;
        }
        // The hung-simulation deadline: the budget's wall limit plus
        // headroom for retry doubling and shipping. A worker may
        // heartbeat forever; it may not *compute* forever.
        let started = Instant::now();
        let hang_deadline = budget.max_wall.map(|w| w * 2 + ctx.liveness);
        loop {
            match t.recv() {
                Ok(Some(frame)) if frame == HEARTBEAT_PAYLOAD => {
                    if hang_deadline.is_some_and(|d| started.elapsed() > d) {
                        ctx.counters.worker_restarts.fetch_add(1, Ordering::Relaxed);
                        ctx.requeue(j, "hung past its wall-clock deadline");
                        return;
                    }
                }
                Ok(Some(frame)) => {
                    let reply = String::from_utf8(frame).ok().and_then(|s| parse_reply(&s));
                    match reply {
                        Some((echoed, reply)) if echoed == j => {
                            ctx.finish_remote(j, reply);
                            break;
                        }
                        _ => {
                            ctx.counters.worker_restarts.fetch_add(1, Ordering::Relaxed);
                            ctx.requeue(j, "malformed reply");
                            return;
                        }
                    }
                }
                Ok(None) => {
                    ctx.counters.worker_restarts.fetch_add(1, Ordering::Relaxed);
                    ctx.requeue(j, "worker disconnected mid-point");
                    return;
                }
                Err(e) => {
                    if e.is_timeout() {
                        ctx.counters.heartbeat_misses.fetch_add(1, Ordering::Relaxed);
                    }
                    ctx.counters.worker_restarts.fetch_add(1, Ordering::Relaxed);
                    ctx.requeue(j, &e.to_string());
                    return;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Local fan-out: `sweep --workers N`
// ---------------------------------------------------------------------------

/// How to launch one local worker process. The sweep CLI uses its own
/// binary with `["worker"]`; the bench example self-spawns with a private
/// flag its `main` recognises. Either way the child is started as
/// `program args… --connect ADDR`.
#[derive(Debug, Clone)]
pub struct WorkerCommand {
    /// The executable to spawn.
    pub program: PathBuf,
    /// Arguments placed before `--connect ADDR`.
    pub args: Vec<String>,
    /// The scenario argument tail shipped in the `job` greeting; the
    /// child parses it into the same base configuration as the parent.
    pub job_argv: Vec<String>,
}

impl WorkerCommand {
    /// A command that re-executes the current binary with `args`, shipping
    /// `job_argv` to the children.
    pub fn current_exe(args: Vec<String>, job_argv: Vec<String>) -> io::Result<WorkerCommand> {
        Ok(WorkerCommand {
            program: std::env::current_exe()?,
            args,
            job_argv,
        })
    }
}

/// N local children of a [`WorkerCommand`] registered at a private
/// loopback gateway, for one sweep. Dropping it kills and reaps every
/// child still running, then closes the gateway.
pub(crate) struct LocalWorkers {
    children: Vec<Child>,
    pub(crate) exec: RemoteExec,
}

impl LocalWorkers {
    /// Binds a gateway on `127.0.0.1:0` under a fresh random token and
    /// starts `n` children against it. When `TCPBURST_CHAOS` is set, the
    /// children get the chaos ids `w1`…`wN` in spawn order.
    pub(crate) fn spawn(command: &WorkerCommand, n: usize) -> io::Result<LocalWorkers> {
        let token = sweep_token();
        let gateway = Arc::new(Gateway::bind("127.0.0.1:0", &token)?);
        let addr = gateway.local_addr().to_string();
        let mut local = LocalWorkers {
            children: Vec::with_capacity(n),
            exec: RemoteExec::new(gateway, command.job_argv.clone(), ExecTuning::default()),
        };
        let chaos = std::env::var_os(CHAOS_ENV).is_some();
        for seq in 1..=n {
            let mut cmd = Command::new(&command.program);
            cmd.args(&command.args)
                .args(["--connect", &addr])
                .env(TOKEN_ENV, &token)
                .stdin(Stdio::null());
            if chaos {
                cmd.env(CHAOS_ID_ENV, format!("w{seq}"));
            }
            // On failure `local` drops here, taking the children already
            // started with it.
            local.children.push(cmd.spawn()?);
        }
        Ok(local)
    }
}

impl Drop for LocalWorkers {
    fn drop(&mut self) {
        // Children the sweep shut down have exited already; one that is
        // still waiting for a job, backing off or wedged must not outlive
        // the sweep.
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// A 128-bit random token for one sweep's private gateway, seeded from
/// the operating system through std's `RandomState`.
fn sweep_token() -> String {
    (0..2)
        .map(|_| format!("{:016x}", RandomState::new().build_hasher().finish()))
        .collect()
}

// ---------------------------------------------------------------------------
// The remote worker side
// ---------------------------------------------------------------------------

/// Tuning for `tcpburst worker --connect`.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Daemon address to dial.
    pub connect: String,
    /// Shared job token presented at registration.
    pub token: String,
    /// Heartbeat interval while a point is computing (must be well below
    /// the daemon's liveness deadline).
    pub heartbeat: Duration,
    /// Reconnect attempts after a lost connection before giving up.
    pub max_reconnects: u32,
    /// First backoff delay; doubles per consecutive failure (with
    /// jitter), capped at [`backoff_cap`](Self::backoff_cap).
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        WorkerOptions {
            connect: String::new(),
            token: DEFAULT_TOKEN.to_string(),
            heartbeat: Duration::from_millis(400),
            max_reconnects: 8,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
        }
    }
}

/// The token both sides use when none is configured. Deployments sharing
/// a network should set their own with `--token`.
pub const DEFAULT_TOKEN: &str = "tcpburst";

/// Cheap decorrelation jitter for reconnect backoff, seeded from the
/// process id and clock so simultaneous orphans don't reconnect in
/// lockstep. Not the simulation RNG — determinism of *results* never
/// depends on it.
fn jitter_frac() -> f64 {
    let seed = std::process::id() as u64 ^ Instant::now().elapsed().as_nanos() as u64
        ^ std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos() as u64)
            .unwrap_or(0);
    let mut x = seed | 1;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    (x % 1000) as f64 / 1000.0
}

fn backoff_delay(opts: &WorkerOptions, failures: u32) -> Duration {
    let exp = opts
        .backoff_base
        .saturating_mul(1u32 << failures.min(16))
        .min(opts.backoff_cap);
    exp.mul_f64(0.5 + jitter_frac() / 2.0)
}

enum SessionEnd {
    /// Clean shutdown: the daemon drained the pool (or closed down).
    Done,
    /// The connection broke; reconnect with backoff and a resume offer.
    Lost,
    /// Registration was rejected; do not retry.
    Rejected(String),
}

/// The body of `tcpburst worker --connect ADDR`: dials the daemon,
/// registers under the shared token, and serves grid points — computing
/// each in a helper thread while heartbeating the connection — until a
/// clean shutdown. A lost connection reconnects with exponential backoff
/// + jitter, offering the held job digest so the daemon can `resume` the
/// session without reshipping the config. Returns the process exit code.
///
/// `parse` rebuilds the scenario base config from a job's argv tail (the
/// CLI passes its own parser, so daemon and worker run the identical
/// flag handling).
pub fn remote_worker_main(
    opts: &WorkerOptions,
    parse: &dyn Fn(&[String]) -> Result<ScenarioConfig, String>,
) -> i32 {
    let mut held: Option<(String, ScenarioConfig)> = None;
    let mut failures = 0u32;
    loop {
        let end = match connect(opts) {
            Ok(transport) => {
                let end = run_session(transport, opts, parse, &mut held);
                if matches!(end, SessionEnd::Lost) {
                    // Only a *connected* session resets the failure count;
                    // a session that dies immediately keeps backing off.
                    failures = failures.saturating_sub(failures.min(1));
                }
                end
            }
            Err(e) => {
                eprintln!("worker: connect {}: {e}", opts.connect);
                SessionEnd::Lost
            }
        };
        match end {
            SessionEnd::Done => return 0,
            SessionEnd::Rejected(reason) => {
                eprintln!("worker: registration rejected: {reason}");
                return 1;
            }
            SessionEnd::Lost => {
                failures += 1;
                if failures > opts.max_reconnects {
                    eprintln!(
                        "worker: giving up after {} reconnect attempts",
                        opts.max_reconnects
                    );
                    return 1;
                }
                std::thread::sleep(backoff_delay(opts, failures - 1));
            }
        }
    }
}

fn connect(opts: &WorkerOptions) -> io::Result<TcpTransport> {
    let addr = opts
        .connect
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::other(format!("{} resolves to no address", opts.connect)))?;
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
    stream.set_nodelay(true)?;
    Ok(TcpTransport::new(stream).with_peer(format!("daemon {}", opts.connect)))
}

fn run_session(
    transport: TcpTransport,
    opts: &WorkerOptions,
    parse: &dyn Fn(&[String]) -> Result<ScenarioConfig, String>,
    held: &mut Option<(String, ScenarioConfig)>,
) -> SessionEnd {
    match ChaosSchedule::from_env() {
        Some(events) => session_loop(&mut ChaosTransport::new(transport, events), opts, parse, held),
        None => {
            let mut transport = transport;
            session_loop(&mut transport, opts, parse, held)
        }
    }
}

fn session_loop<T: FrameTransport + Send>(
    t: &mut T,
    opts: &WorkerOptions,
    parse: &dyn Fn(&[String]) -> Result<ScenarioConfig, String>,
    held: &mut Option<(String, ScenarioConfig)>,
) -> SessionEnd {
    let resume = match held {
        Some((digest, _)) => digest.clone(),
        None => "-".to_string(),
    };
    if t.send_text(&format!(
        "worker {} {ENGINE_SCHEMA_VERSION} {resume}",
        opts.token
    ))
    .is_err()
    {
        return SessionEnd::Lost;
    }
    // Wait as long as it takes for a job to arrive.
    if t.set_read_deadline(None).is_err() {
        return SessionEnd::Lost;
    }
    let greeting = match t.recv_text() {
        Ok(Some(text)) => text,
        Ok(None) => return SessionEnd::Done,
        Err(_) => return SessionEnd::Lost,
    };
    let (digest, cfg) = if let Some(reason) = greeting.strip_prefix("reject ") {
        return SessionEnd::Rejected(reason.to_string());
    } else if let Some(rest) = greeting.strip_prefix("resume ") {
        match held {
            Some((digest, cfg)) if digest == rest => (digest.clone(), *cfg),
            _ => return SessionEnd::Lost,
        }
    } else if let Some(rest) = greeting.strip_prefix("job ") {
        let (digest, argv_text) = match rest.split_once('\n') {
            Some((d, tail)) => (d.to_string(), tail),
            None => (rest.to_string(), ""),
        };
        let argv: Vec<String> = argv_text.lines().map(str::to_string).collect();
        match parse(&argv) {
            Ok(cfg) => {
                *held = Some((digest.clone(), cfg));
                (digest, cfg)
            }
            Err(e) => {
                eprintln!("worker: cannot parse job argv: {e}");
                return SessionEnd::Rejected(format!("argv parse failed: {e}"));
            }
        }
    } else {
        return SessionEnd::Lost;
    };
    if t.send_text(&format!("ready {digest}")).is_err() {
        return SessionEnd::Lost;
    }
    serve_points(t, &cfg, opts)
}

/// Serves point frames until `shutdown`/EOF. The session's own thread
/// computes the points; a helper thread owns the connection meanwhile,
/// handing each point frame over and heartbeating the daemon until the
/// reply is back, so a long simulation never looks like a dead worker.
/// Computing here rather than on a fresh thread keeps the simulation on
/// the allocator arena the process has already warmed: on a fresh thread
/// a zero-length point took two to five times as long.
fn serve_points<T: FrameTransport + Send>(
    t: &mut T,
    cfg: &ScenarioConfig,
    opts: &WorkerOptions,
) -> SessionEnd {
    let crash_at: Option<usize> = std::env::var(CRASH_AT_ENV)
        .ok()
        .and_then(|v| v.parse().ok());
    let (frames_tx, frames) = channel::<String>();
    let (replies, replies_rx) = channel();
    std::thread::scope(|scope| {
        let relay = scope.spawn(move || relay_points(t, opts, &frames_tx, &replies_rx));
        // The relay ends the session by dropping `frames_tx`; a point
        // already computing finishes first.
        for frame in frames {
            if replies.send(handle_point(cfg, &frame, crash_at)).is_err() {
                break;
            }
        }
        relay.join().unwrap_or(SessionEnd::Lost)
    })
}

/// The connection side of [`serve_points`]: passes each point frame to
/// the computing thread and sends its reply back, heartbeating while it
/// waits.
fn relay_points<T: FrameTransport>(
    t: &mut T,
    opts: &WorkerOptions,
    frames: &Sender<String>,
    replies: &Receiver<Option<String>>,
) -> SessionEnd {
    // Between points the daemon should answer promptly; a long silence
    // here means it died. Generous deadline — claim scheduling is fast.
    let idle_deadline = opts.heartbeat.max(Duration::from_millis(100)) * 100;
    loop {
        if t.set_read_deadline(Some(idle_deadline)).is_err() {
            return SessionEnd::Lost;
        }
        let text = match t.recv_text() {
            Ok(Some(text)) => text,
            Ok(None) => return SessionEnd::Done,
            Err(_) => return SessionEnd::Lost,
        };
        if text == "shutdown" {
            return SessionEnd::Done;
        }
        if frames.send(text).is_err() {
            return SessionEnd::Lost;
        }
        loop {
            match replies.recv_timeout(opts.heartbeat) {
                Ok(Some(reply)) => {
                    if t.send_text(&reply).is_err() {
                        // The daemon requeued this point elsewhere (or
                        // died); reconnect and let the resolve-once slot
                        // discard any duplicate.
                        return SessionEnd::Lost;
                    }
                    break;
                }
                Ok(None) => return SessionEnd::Lost,
                Err(RecvTimeoutError::Timeout) => {
                    if t.send(HEARTBEAT_PAYLOAD).is_err() {
                        return SessionEnd::Lost;
                    }
                }
                Err(RecvTimeoutError::Disconnected) => return SessionEnd::Lost,
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The submit client
// ---------------------------------------------------------------------------

/// Submits a sweep job (`argv` is the CLI tail the daemon will run, e.g.
/// `["sweep", "--protocols", "reno", …]`) and streams the daemon's output
/// into `out`/`err`. Returns `Ok(true)` when the daemon reports success,
/// `Ok(false)` when the sweep ran but failed, `Err` on transport trouble.
pub fn submit_job(
    addr: &str,
    token: &str,
    argv: &[String],
    out: &mut dyn io::Write,
    err: &mut dyn io::Write,
) -> Result<bool, String> {
    let sock = addr
        .to_socket_addrs()
        .map_err(|e| format!("resolving {addr}: {e}"))?
        .next()
        .ok_or_else(|| format!("{addr} resolves to no address"))?;
    let stream = TcpStream::connect_timeout(&sock, Duration::from_secs(5))
        .map_err(|e| format!("connecting {addr}: {e}"))?;
    let mut t = TcpTransport::new(stream).with_peer(format!("daemon {addr}"));
    t.send_text(&format!("sweep {token}\n{}", argv.join("\n")))
        .map_err(|e| e.to_string())?;
    loop {
        let text = match t.recv_text() {
            Ok(Some(text)) => text,
            Ok(None) => return Err("daemon closed the connection mid-job".to_string()),
            Err(e) => return Err(e.to_string()),
        };
        if let Some(chunk) = text.strip_prefix("out\n") {
            let _ = out.write_all(chunk.as_bytes());
        } else if let Some(chunk) = text.strip_prefix("err\n") {
            let _ = err.write_all(chunk.as_bytes());
        } else if text == "done ok" {
            return Ok(true);
        } else if let Some(message) = text.strip_prefix("done fail") {
            let _ = err.write_all(message.trim_start().as_bytes());
            return Ok(false);
        } else if let Some(reason) = text.strip_prefix("reject ") {
            return Err(format!("daemon rejected the job: {reason}"));
        } else {
            return Err(format!("unexpected daemon frame: {text:?}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_frames_parse_back() {
        let base = crate::ScenarioBuilder::paper().finish();
        let spec = PointSpec {
            protocol: Protocol::VegasRed,
            clients: 25,
            seed: 0x1CDC_2000,
        };
        let budget = RunBudget {
            max_sim_time: Some(SimDuration::from_secs(3)),
            max_events: None,
            max_wall: Some(Duration::from_millis(250)),
        };
        let frame = point_frame(7, &spec, &budget);
        let (index, parsed, parsed_budget) = parse_point_frame(&frame).expect("parses");
        assert_eq!(index, 7);
        assert_eq!(parsed, spec);
        assert_eq!(parsed_budget.max_events, None);
        assert_eq!(parsed_budget.max_wall, Some(Duration::from_millis(250)));

        // handle_point runs the (tiny) scenario and replies `done 7`.
        let mut cfg = base;
        cfg.duration = SimDuration::from_millis(200);
        let reply = handle_point(&cfg, &frame, None).expect("parses");
        assert!(reply.starts_with("done 7\n") || reply.starts_with("fail 7 "));

        assert!(handle_point(&cfg, "point", None).is_none());
        assert!(handle_point(&cfg, "point 1 nosuch 5 0 - - -", None).is_none());
        assert!(handle_point(&cfg, &format!("{frame} extra"), None).is_none());
    }

    #[test]
    fn unlimited_budget_serializes_as_dashes() {
        let spec = PointSpec {
            protocol: Protocol::Udp,
            clients: 5,
            seed: 1,
        };
        let frame = point_frame(0, &spec, &RunBudget::UNLIMITED);
        assert!(frame.ends_with("- - -"), "{frame}");
    }

    #[test]
    fn replies_parse_back() {
        let (index, reply) = parse_reply("fail 3 budget-exceeded\nran out of budget")
            .expect("fail reply parses");
        assert_eq!(index, 3);
        match reply {
            Reply::Fail { kind, message } => {
                assert_eq!(kind, "budget-exceeded");
                assert_eq!(message, "ran out of budget");
            }
            Reply::Done(_) => panic!("wrong reply variant"),
        }
        assert!(parse_reply("done 3").is_none(), "no body");
        assert!(parse_reply("done x\npayload").is_none(), "bad index");
        assert!(parse_reply("what 3\npayload").is_none(), "bad tag");
        assert!(parse_reply("done 3\nnot a codec payload").is_none());
    }

    #[test]
    fn counters_merge_and_report() {
        let mut a = RobustnessCounters::default();
        assert!(!a.any());
        let b = RobustnessCounters {
            requeued_points: 1,
            worker_restarts: 2,
            heartbeat_misses: 0,
            backoff_retries: 3,
        };
        a.merge(&b);
        a.merge(&b);
        assert!(a.any());
        assert_eq!(a.requeued_points, 2);
        assert_eq!(a.backoff_retries, 6);
        assert_eq!(
            b.to_string(),
            "requeued_points=1 worker_restarts=2 heartbeat_misses=0 backoff_retries=3"
        );
    }

    #[test]
    fn backoff_is_bounded_and_grows() {
        let opts = WorkerOptions::default();
        for failures in 0..20 {
            let d = backoff_delay(&opts, failures);
            assert!(d <= opts.backoff_cap, "failure {failures}: {d:?}");
            assert!(d >= opts.backoff_base / 4, "failure {failures}: {d:?}");
        }
        // The deterministic (pre-jitter) exponential must grow to the cap.
        let early = opts.backoff_base.saturating_mul(1);
        let late = opts
            .backoff_base
            .saturating_mul(1 << 10)
            .min(opts.backoff_cap);
        assert!(late > early);
        assert_eq!(late, opts.backoff_cap);
    }

    #[test]
    fn gateway_rejects_bad_tokens_and_schemas() {
        let gateway = Gateway::bind("127.0.0.1:0", "secret").expect("bind");
        let addr = gateway.local_addr();

        let mut t = TcpTransport::new(TcpStream::connect(addr).expect("connect"));
        t.send_text(&format!("worker wrong {ENGINE_SCHEMA_VERSION} -"))
            .expect("send");
        let reply = t.recv_text().expect("reply").expect("frame");
        assert!(reply.starts_with("reject bad token"), "{reply}");

        let mut t = TcpTransport::new(TcpStream::connect(addr).expect("connect"));
        t.send_text("worker secret 99999 -").expect("send");
        let reply = t.recv_text().expect("reply").expect("frame");
        assert!(reply.contains("schema"), "{reply}");

        let mut t = TcpTransport::new(TcpStream::connect(addr).expect("connect"));
        t.send_text("who goes there").expect("send");
        let reply = t.recv_text().expect("reply").expect("frame");
        assert!(reply.starts_with("reject"), "{reply}");
    }

    #[test]
    fn gateway_routes_jobs_and_workers() {
        let gateway = Arc::new(Gateway::bind("127.0.0.1:0", "tok").expect("bind"));
        let addr = gateway.local_addr();

        let mut submit = TcpTransport::new(TcpStream::connect(addr).expect("connect"));
        submit
            .send_text("sweep tok\nsweep\n--protocols\nreno")
            .expect("send");
        let job = gateway.next_job().expect("job routed");
        assert_eq!(job.argv(), ["sweep", "--protocols", "reno"]);

        let mut worker = TcpTransport::new(TcpStream::connect(addr).expect("connect"));
        worker
            .send_text(&format!("worker tok {ENGINE_SCHEMA_VERSION} abc123"))
            .expect("send");
        let conn = gateway
            .next_worker(Duration::from_secs(5))
            .expect("worker routed");
        assert_eq!(conn.resume.as_deref(), Some("abc123"));
    }
}
