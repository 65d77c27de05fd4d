//! Deterministic fault injection for the sweep control plane.
//!
//! The chaos harness proves the robustness claims of [`crate::daemon`]: a
//! worker process (local `--workers` child or remote) started with
//! `TCPBURST_CHAOS` set wraps its transport in a [`ChaosTransport`] that
//! counts protocol frames and, at scheduled ordinals, kills the process,
//! stalls, corrupts or truncates an outbound frame, or drops the
//! connection — all *deterministically*, so a chaos schedule is
//! reproducible and the byte-identity invariant (finalized journal equals
//! the uninterrupted serial run) can be pinned in tests and CI.
//!
//! ## Schedule grammar (`TCPBURST_CHAOS`)
//!
//! Semicolon- or comma-separated events, each
//! `[worker:]kind@frame[:arg]`:
//!
//! ```text
//! kill@4              abort the process at the 4th frame
//! stall@2:250         sleep 250 ms before the 2nd frame
//! corrupt@3           flip a byte in the 3rd outbound frame
//! trunc@3             send only half of the 3rd outbound frame
//! drop@5              fail the 5th frame as an injected partition
//! w1:kill@4           ... but only in the worker whose
//!                     TCPBURST_CHAOS_ID is "w1"
//! ```
//!
//! Frames are counted 1-based across both directions, **excluding
//! heartbeat (`hb`) frames** — heartbeats are timing-dependent, so counting
//! them would make a schedule fire at wall-clock-dependent points and break
//! reproducibility. `corrupt` and `trunc` can only act on outbound bytes;
//! when their ordinal lands on an inbound frame they arm and fire on the
//! next send.
//!
//! [`ChaosTransport`] is only ever installed in *worker* processes (the
//! driver never sets the env vars on itself), so `kill` aborting the
//! process is exactly the fault being simulated.

use std::time::Duration;

use crate::net_transport::{encode_frame, FrameError, FrameTransport, FRAME_HEADER};

/// Environment variable holding the chaos schedule for spawned workers.
/// Unset (or empty) in normal operation.
pub const CHAOS_ENV: &str = "TCPBURST_CHAOS";

/// Environment variable naming *this* worker in a chaos schedule, so a
/// schedule can target one worker out of many (`w1:kill@4`).
pub const CHAOS_ID_ENV: &str = "TCPBURST_CHAOS_ID";

/// One injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosAction {
    /// Abort the process with no unwinding — a segfault stand-in.
    Kill,
    /// Sleep this long before the frame proceeds — a wedged or slow peer.
    Stall(Duration),
    /// Flip a byte in the outbound frame's payload — wire corruption.
    Corrupt,
    /// Send only the first half of the outbound frame, then fail — a
    /// connection cut mid-frame.
    Truncate,
    /// Fail the frame without transferring anything — a network partition.
    Drop,
}

/// One scheduled fault: which worker (None = every worker), at which
/// 1-based frame ordinal, doing what.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosEvent {
    /// Target worker id (matched against [`CHAOS_ID_ENV`]); `None` applies
    /// to every worker.
    pub worker: Option<String>,
    /// 1-based ordinal of the (non-heartbeat) frame the fault fires at.
    pub frame: u64,
    /// The fault.
    pub action: ChaosAction,
}

/// A parsed chaos schedule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosSchedule {
    /// The scheduled faults, in spec order.
    pub events: Vec<ChaosEvent>,
}

impl ChaosSchedule {
    /// Parses the [`CHAOS_ENV`] grammar; `Err` carries the offending
    /// entry and why it did not parse.
    pub fn parse(spec: &str) -> Result<ChaosSchedule, String> {
        let mut events = Vec::new();
        for entry in spec.split([';', ',']).map(str::trim).filter(|e| !e.is_empty()) {
            let (head, tail) = entry
                .split_once('@')
                .ok_or_else(|| format!("chaos entry {entry:?}: missing '@frame'"))?;
            let (worker, kind) = match head.rsplit_once(':') {
                Some((w, k)) => (Some(w.to_string()), k),
                None => (None, head),
            };
            let (frame_str, arg) = match tail.split_once(':') {
                Some((f, a)) => (f, Some(a)),
                None => (tail, None),
            };
            let frame: u64 = frame_str
                .parse()
                .map_err(|_| format!("chaos entry {entry:?}: bad frame ordinal {frame_str:?}"))?;
            if frame == 0 {
                return Err(format!("chaos entry {entry:?}: frames are 1-based"));
            }
            let action = match (kind, arg) {
                ("kill", None) => ChaosAction::Kill,
                ("stall", arg) => {
                    let ms: u64 = arg
                        .unwrap_or("100")
                        .parse()
                        .map_err(|_| format!("chaos entry {entry:?}: bad stall millis"))?;
                    ChaosAction::Stall(Duration::from_millis(ms))
                }
                ("corrupt", None) => ChaosAction::Corrupt,
                ("trunc", None) => ChaosAction::Truncate,
                ("drop", None) => ChaosAction::Drop,
                _ => return Err(format!("chaos entry {entry:?}: unknown kind {kind:?}")),
            };
            events.push(ChaosEvent {
                worker,
                frame,
                action,
            });
        }
        Ok(ChaosSchedule { events })
    }

    /// The `(frame, action)` pairs that apply to the worker named `id`
    /// (untargeted events apply to everyone).
    pub fn for_worker(&self, id: &str) -> Vec<(u64, ChaosAction)> {
        self.events
            .iter()
            .filter(|e| e.worker.as_deref().is_none_or(|w| w == id))
            .map(|e| (e.frame, e.action))
            .collect()
    }

    /// Reads [`CHAOS_ENV`] / [`CHAOS_ID_ENV`] from the process
    /// environment; `None` when no schedule applies to this process.
    /// A malformed schedule is treated as absent — chaos hooks must never
    /// be able to break a production sweep.
    pub fn from_env() -> Option<Vec<(u64, ChaosAction)>> {
        let spec = std::env::var(CHAOS_ENV).ok()?;
        let schedule = ChaosSchedule::parse(&spec).ok()?;
        let id = std::env::var(CHAOS_ID_ENV).unwrap_or_default();
        let events = schedule.for_worker(&id);
        if events.is_empty() {
            None
        } else {
            Some(events)
        }
    }
}

/// The heartbeat payload, excluded from chaos frame counting (heartbeats
/// fire on wall-clock timers, so counting them would make schedules
/// non-reproducible).
pub const HEARTBEAT_PAYLOAD: &[u8] = b"hb";

fn injected(context: &str, what: &str) -> FrameError {
    FrameError::Io {
        context: context.to_string(),
        message: format!("chaos: injected {what}"),
    }
}

/// A [`FrameTransport`] wrapper that injects the scheduled faults. Counts
/// non-heartbeat frames 1-based across send and recv; `corrupt`/`trunc`
/// arm on inbound ordinals and fire on the next send.
pub struct ChaosTransport<T: FrameTransport> {
    inner: T,
    events: Vec<(u64, ChaosAction)>,
    counter: u64,
    armed: Option<ChaosAction>,
}

impl<T: FrameTransport> ChaosTransport<T> {
    /// Wraps `inner` under the given `(frame, action)` schedule.
    pub fn new(inner: T, events: Vec<(u64, ChaosAction)>) -> ChaosTransport<T> {
        ChaosTransport {
            inner,
            events,
            counter: 0,
            armed: None,
        }
    }

    fn actions_at(&self, frame: u64) -> Vec<ChaosAction> {
        self.events
            .iter()
            .filter(|(f, _)| *f == frame)
            .map(|(_, a)| *a)
            .collect()
    }
}

impl<T: FrameTransport> FrameTransport for ChaosTransport<T> {
    fn send_bytes(&mut self, bytes: &[u8]) -> Result<(), FrameError> {
        self.inner.send_bytes(bytes)
    }

    fn recv(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        let frame = self.inner.recv()?;
        if frame.as_deref() == Some(HEARTBEAT_PAYLOAD) {
            return Ok(frame);
        }
        self.counter += 1;
        for action in self.actions_at(self.counter) {
            match action {
                ChaosAction::Kill => std::process::abort(),
                ChaosAction::Stall(d) => std::thread::sleep(d),
                ChaosAction::Drop => return Err(injected(self.inner.peer(), "partition")),
                // Inbound bytes are already decoded and verified; fire on
                // the next outbound frame instead.
                ChaosAction::Corrupt | ChaosAction::Truncate => self.armed = Some(action),
            }
        }
        Ok(frame)
    }

    fn set_read_deadline(&mut self, deadline: Option<Duration>) -> Result<(), FrameError> {
        self.inner.set_read_deadline(deadline)
    }

    fn peer(&self) -> &str {
        self.inner.peer()
    }

    fn send(&mut self, payload: &[u8]) -> Result<(), FrameError> {
        if payload == HEARTBEAT_PAYLOAD {
            return self.inner.send(payload);
        }
        self.counter += 1;
        let mut actions = self.actions_at(self.counter);
        if let Some(armed) = self.armed.take() {
            actions.push(armed);
        }
        let mut bytes = encode_frame(payload);
        for action in actions {
            match action {
                ChaosAction::Kill => std::process::abort(),
                ChaosAction::Stall(d) => std::thread::sleep(d),
                ChaosAction::Drop => return Err(injected(self.inner.peer(), "partition")),
                ChaosAction::Corrupt => {
                    // Flip a payload byte (or a checksum byte for empty
                    // payloads) so the receiver's checksum rejects it.
                    let i = if bytes.len() > FRAME_HEADER { FRAME_HEADER } else { 4 };
                    bytes[i] ^= 0x5A;
                }
                ChaosAction::Truncate => {
                    let half = bytes.len() / 2;
                    self.inner.send_bytes(&bytes[..half])?;
                    return Err(injected(self.inner.peer(), "truncation"));
                }
            }
        }
        self.inner.send_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net_transport::PipeTransport;
    use std::io::Cursor;
    use std::time::Instant;

    fn pipe_to(buf: &mut Vec<u8>) -> PipeTransport<Cursor<Vec<u8>>, &mut Vec<u8>> {
        PipeTransport::new(Cursor::new(Vec::new()), buf, "chaos-test")
    }

    #[test]
    fn schedule_grammar_parses() {
        let s = ChaosSchedule::parse("kill@4; w1:stall@2:250, corrupt@3;trunc@1;w2:drop@9")
            .expect("parses");
        assert_eq!(s.events.len(), 5);
        assert_eq!(
            s.events[0],
            ChaosEvent {
                worker: None,
                frame: 4,
                action: ChaosAction::Kill
            }
        );
        assert_eq!(
            s.events[1],
            ChaosEvent {
                worker: Some("w1".to_string()),
                frame: 2,
                action: ChaosAction::Stall(Duration::from_millis(250))
            }
        );
        assert_eq!(s.events[3].action, ChaosAction::Truncate);
        assert_eq!(s.events[4].worker.as_deref(), Some("w2"));

        assert!(ChaosSchedule::parse("kill").is_err());
        assert!(ChaosSchedule::parse("kill@0").is_err());
        assert!(ChaosSchedule::parse("explode@3").is_err());
        assert!(ChaosSchedule::parse("stall@2:abc").is_err());
        assert_eq!(ChaosSchedule::parse("").expect("empty ok").events.len(), 0);
    }

    #[test]
    fn worker_filter_matches_tag_or_untagged() {
        let s = ChaosSchedule::parse("kill@4;w1:drop@2;w2:corrupt@3").expect("parses");
        let w1 = s.for_worker("w1");
        assert_eq!(
            w1,
            vec![(4, ChaosAction::Kill), (2, ChaosAction::Drop)]
        );
        let other = s.for_worker("w9");
        assert_eq!(other, vec![(4, ChaosAction::Kill)]);
    }

    #[test]
    fn corrupt_breaks_the_receivers_checksum() {
        let mut wire = Vec::new();
        {
            let t = pipe_to(&mut wire);
            let mut chaos = ChaosTransport::new(t, vec![(2, ChaosAction::Corrupt)]);
            chaos.send_text("frame one").expect("clean");
            chaos.send_text("frame two").expect("corrupted but sent");
            chaos.send_text("frame three").expect("clean again");
        }
        let mut rx = PipeTransport::new(Cursor::new(wire), Vec::new(), "rx");
        assert_eq!(rx.recv_text().expect("ok").as_deref(), Some("frame one"));
        let err = rx.recv().expect_err("corrupt frame");
        assert_eq!(err.kind(), "frame-checksum");
        assert_eq!(rx.recv_text().expect("ok").as_deref(), Some("frame three"));
    }

    #[test]
    fn truncate_sends_half_then_errors() {
        let mut wire = Vec::new();
        {
            let t = pipe_to(&mut wire);
            let mut chaos = ChaosTransport::new(t, vec![(1, ChaosAction::Truncate)]);
            let err = chaos.send_text("truncate me").expect_err("injected");
            assert!(err.to_string().contains("truncation"), "{err}");
        }
        let full = encode_frame(b"truncate me");
        assert_eq!(wire, full[..full.len() / 2].to_vec());
        let mut rx = PipeTransport::new(Cursor::new(wire), Vec::new(), "rx");
        assert_eq!(rx.recv().expect_err("truncated").kind(), "frame-truncated");
    }

    #[test]
    fn heartbeats_are_not_counted() {
        let mut wire = Vec::new();
        {
            let t = pipe_to(&mut wire);
            let mut chaos = ChaosTransport::new(t, vec![(2, ChaosAction::Drop)]);
            chaos.send(HEARTBEAT_PAYLOAD).expect("hb uncounted");
            chaos.send_text("frame one").expect("counted as 1");
            chaos.send(HEARTBEAT_PAYLOAD).expect("hb uncounted");
            let err = chaos.send_text("frame two").expect_err("dropped as 2");
            assert!(err.to_string().contains("partition"), "{err}");
        }
    }

    #[test]
    fn stall_delays_but_delivers() {
        let mut wire = Vec::new();
        {
            let t = pipe_to(&mut wire);
            let mut chaos = ChaosTransport::new(
                t,
                vec![(1, ChaosAction::Stall(Duration::from_millis(60)))],
            );
            let start = Instant::now();
            chaos.send_text("slow frame").expect("delivered");
            assert!(start.elapsed() >= Duration::from_millis(50));
        }
        let mut rx = PipeTransport::new(Cursor::new(wire), Vec::new(), "rx");
        assert_eq!(rx.recv_text().expect("ok").as_deref(), Some("slow frame"));
    }

    #[test]
    fn inbound_corrupt_ordinal_arms_the_next_send() {
        // Frame 1 is inbound; a corrupt event at 1 must fire on the next
        // outbound frame (2), not silently vanish.
        let mut inbound = Vec::new();
        {
            let mut tx = pipe_to(&mut inbound);
            tx.send_text("from peer").expect("ok");
        }
        let mut wire = Vec::new();
        {
            let t = PipeTransport::new(Cursor::new(inbound), &mut wire, "chaos-test");
            let mut chaos = ChaosTransport::new(t, vec![(1, ChaosAction::Corrupt)]);
            assert_eq!(chaos.recv_text().expect("ok").as_deref(), Some("from peer"));
            chaos.send_text("reply").expect("corrupted but sent");
        }
        let mut rx = PipeTransport::new(Cursor::new(wire), Vec::new(), "rx");
        assert_eq!(rx.recv().expect_err("corrupt").kind(), "frame-checksum");
    }
}
