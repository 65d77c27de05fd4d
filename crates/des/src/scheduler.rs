//! The virtual clock and simulation loop driver.

use crate::queue::{EventKey, EventQueue, QueueBackend};
use crate::time::{SimDuration, SimTime};

/// A discrete-event scheduler: a virtual clock plus a future-event list.
///
/// The scheduler owns *when* things happen; *what* happens is up to the
/// caller, which pops events and dispatches them against its own state. This
/// inversion keeps the engine free of borrow-checker gymnastics: simulation
/// state lives in one place (the caller's world struct) and the scheduler is
/// passed down by `&mut` wherever new events need to be spawned.
///
/// # Monotonicity contract
///
/// All three scheduling entry points guarantee the event lands at or after
/// [`Scheduler::now`]:
///
/// * [`schedule_at`](Scheduler::schedule_at) panics on a past `time`;
/// * [`schedule_after`](Scheduler::schedule_after) adds a non-negative delay
///   with saturating arithmetic, so even a delay that overflows the clock
///   lands at [`SimTime::MAX`], never in the past;
/// * [`schedule_now`](Scheduler::schedule_now) targets `now` exactly.
///
/// Together with the queue's ascending `(time, seq)` pop order this makes
/// the clock monotone: no event ever observes a world state newer than its
/// own timestamp.
///
/// # Example
///
/// ```
/// use tcpburst_des::{Scheduler, SimDuration, SimTime};
///
/// let mut sched = Scheduler::new();
/// sched.schedule_after(SimDuration::from_secs(1), "tick");
/// let mut ticks = 0;
/// while let Some((_, ev)) = sched.pop() {
///     assert_eq!(ev, "tick");
///     ticks += 1;
///     if ticks < 3 {
///         sched.schedule_after(SimDuration::from_secs(1), "tick");
///     }
/// }
/// assert_eq!(ticks, 3);
/// assert_eq!(sched.now(), SimTime::from_secs(3));
/// ```
#[derive(Debug)]
pub struct Scheduler<E> {
    queue: EventQueue<E>,
    now: SimTime,
    processed: u64,
    pending_peak: usize,
}

impl<E> Scheduler<E> {
    /// Creates a scheduler with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Scheduler::with_capacity(0)
    }

    /// Creates a scheduler whose future-event list has room for `capacity`
    /// events before reallocating.
    ///
    /// Pre-sizing matters on the simulation hot path: the event queue grows
    /// with the number of concurrently active flows and timers, and letting
    /// it double its way up from empty costs a series of reallocation +
    /// copy cycles at exactly the moment the run is busiest. Callers that
    /// know their scale (e.g. a scenario with `M` clients) should pass a
    /// proportional capacity hint.
    pub fn with_capacity(capacity: usize) -> Self {
        Scheduler::with_capacity_and_backend(capacity, QueueBackend::default())
    }

    /// Creates a scheduler on an explicit [`QueueBackend`].
    ///
    /// Both backends produce identical simulation output (same `(time, seq)`
    /// total order); the choice only affects speed, and exists so benchmarks
    /// can A/B the calendar queue against the binary-heap reference.
    pub fn with_capacity_and_backend(capacity: usize, backend: QueueBackend) -> Self {
        Scheduler {
            queue: EventQueue::with_capacity_and_backend(capacity, backend),
            now: SimTime::ZERO,
            processed: 0,
            pending_peak: 0,
        }
    }

    /// Which backend the future-event list runs on.
    pub fn backend(&self) -> QueueBackend {
        self.queue.backend()
    }

    /// Number of events the future-event list can hold without
    /// reallocating.
    pub fn capacity(&self) -> usize {
        self.queue.capacity()
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    fn note_pushed(&mut self) {
        let len = self.queue.len();
        if len > self.pending_peak {
            self.pending_peak = len;
        }
    }

    /// Schedules `event` at the absolute instant `time`.
    ///
    /// Monotonicity: `time` must be at or after [`Scheduler::now`]; the
    /// simulated world cannot be causally rewritten.
    ///
    /// # Panics
    ///
    /// Panics if `time` is in the past (before [`Scheduler::now`]).
    pub fn schedule_at(&mut self, time: SimTime, event: E) {
        self.schedule_at_keyed(time, event);
    }

    /// Like [`Scheduler::schedule_at`], but returns the [`EventKey`] that
    /// can later [`cancel`](Scheduler::cancel) the event.
    ///
    /// # Panics
    ///
    /// Panics if `time` is in the past (before [`Scheduler::now`]).
    pub fn schedule_at_keyed(&mut self, time: SimTime, event: E) -> EventKey {
        assert!(
            time >= self.now,
            "cannot schedule into the past: now={}, requested={}",
            self.now,
            time
        );
        let key = self.queue.push_keyed(time, event);
        self.note_pushed();
        key
    }

    /// Schedules `event` to fire `delay` after the current time.
    ///
    /// Monotonicity: the target is `now + delay` with saturating addition,
    /// so it is always at or after [`Scheduler::now`] — a delay large enough
    /// to overflow the clock lands at [`SimTime::MAX`] instead of wrapping
    /// into the past.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) {
        let time = self.now + delay;
        debug_assert!(time >= self.now, "saturating add went backwards");
        self.queue.push(time, event);
        self.note_pushed();
    }

    /// Schedules `event` at the current instant (after all events already
    /// queued for this instant).
    ///
    /// Monotonicity: the target is exactly [`Scheduler::now`], so the event
    /// can never land in the past; the FIFO tie-break orders it after
    /// everything already queued for this instant.
    pub fn schedule_now(&mut self, event: E) {
        self.queue.push(self.now, event);
        self.note_pushed();
    }

    /// Deletes a previously scheduled event before it pops, returning it.
    ///
    /// Returns `None` when the event already popped or was already
    /// cancelled — and always on the [`QueueBackend::BinaryHeap`] backend,
    /// which cannot delete interior entries (callers then fall back to lazy
    /// generation-counter invalidation; see [`TimerSlot`](crate::TimerSlot)).
    pub fn cancel(&mut self, key: EventKey) -> Option<E> {
        self.queue.cancel(key)
    }

    /// Removes the earliest event, advancing the clock to its timestamp.
    ///
    /// Returns `None` when no events remain; the clock stays where it was.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (time, event) = self.queue.pop()?;
        debug_assert!(time >= self.now, "event queue went backwards");
        self.now = time;
        self.processed += 1;
        Some((time, event))
    }

    /// Like [`Scheduler::pop`], but refuses to advance past `horizon`.
    ///
    /// An event with `time > horizon` is left in the queue and the clock is
    /// advanced to exactly `horizon`. Use this to end a run at a fixed
    /// duration without draining stragglers.
    pub fn pop_until(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        match self.queue.pop_due(horizon) {
            Some((time, event)) => {
                debug_assert!(time >= self.now, "event queue went backwards");
                self.now = time;
                self.processed += 1;
                Some((time, event))
            }
            None => {
                if self.now < horizon {
                    self.now = horizon;
                }
                None
            }
        }
    }

    /// Pops the events sharing the earliest due timestamp (at most
    /// `horizon`) into `out`, advancing the clock to that timestamp. At
    /// most `limit` events are popped; the rest of a longer same-timestamp
    /// run stays queued in order for the next call, which is how an event
    /// budget stops on an exact count (pass `usize::MAX` for no cap).
    ///
    /// Returns the batch's shared timestamp. When nothing is due the clock
    /// advances to exactly `horizon` (mirroring
    /// [`pop_until`](Scheduler::pop_until)) and `None` is returned with
    /// `out` untouched.
    ///
    /// Dispatching the batch in order is event-for-event equivalent to a
    /// [`pop_until`](Scheduler::pop_until) loop: same-instant events pushed
    /// *during* dispatch sequence after the batch, exactly where single-pop
    /// would place them, and the next `drain_due` call picks them up (the
    /// clock sits at their timestamp, which is still within `horizon`).
    pub fn drain_due(
        &mut self,
        horizon: SimTime,
        limit: usize,
        out: &mut Vec<E>,
    ) -> Option<SimTime> {
        let before = out.len();
        match self.queue.pop_due_run(horizon, limit, out) {
            Some(time) => {
                debug_assert!(time >= self.now, "event queue went backwards");
                self.now = time;
                self.processed += (out.len() - before) as u64;
                Some(time)
            }
            None => {
                if self.now < horizon {
                    self.now = horizon;
                }
                None
            }
        }
    }

    /// Number of events pending in the queue.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Highest number of simultaneously pending events seen so far.
    pub fn pending_peak(&self) -> usize {
        self.pending_peak
    }

    /// Number of events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of scheduled events deleted in place via
    /// [`Scheduler::cancel`] before they could fire.
    pub fn cancelled_in_place(&self) -> u64 {
        self.queue.cancelled_in_place()
    }

    /// The timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Scheduler::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_with_pops() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_millis(10), 1);
        s.schedule_at(SimTime::from_millis(20), 2);
        assert_eq!(s.now(), SimTime::ZERO);
        s.pop();
        assert_eq!(s.now(), SimTime::from_millis(10));
        s.pop();
        assert_eq!(s.now(), SimTime::from_millis(20));
        assert_eq!(s.processed(), 2);
    }

    #[test]
    fn schedule_after_is_relative_to_now() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_millis(5), "first");
        s.pop();
        s.schedule_after(SimDuration::from_millis(3), "second");
        let (t, _) = s.pop().unwrap();
        assert_eq!(t, SimTime::from_millis(8));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_millis(5), ());
        s.pop();
        s.schedule_at(SimTime::from_millis(1), ());
    }

    #[test]
    fn schedule_after_saturates_instead_of_wrapping() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_secs(1), ());
        s.pop();
        // A delay that overflows the clock must land at MAX, not wrap
        // behind `now`.
        s.schedule_after(SimDuration::from_nanos(u64::MAX), ());
        assert_eq!(s.peek_time(), Some(SimTime::MAX));
    }

    #[test]
    fn pop_until_respects_horizon() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_secs(1), "in");
        s.schedule_at(SimTime::from_secs(10), "out");
        let horizon = SimTime::from_secs(5);
        assert_eq!(s.pop_until(horizon).map(|(_, e)| e), Some("in"));
        assert_eq!(s.pop_until(horizon), None);
        // Clock parked exactly at the horizon; the late event stays queued.
        assert_eq!(s.now(), horizon);
        assert_eq!(s.pending(), 1);
    }

    #[test]
    fn schedule_now_runs_after_current_instant_events() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_millis(1), "a");
        s.schedule_at(SimTime::from_millis(1), "b");
        let (_, first) = s.pop().unwrap();
        assert_eq!(first, "a");
        s.schedule_now("c");
        assert_eq!(s.pop().map(|(_, e)| e), Some("b"));
        assert_eq!(s.pop().map(|(_, e)| e), Some("c"));
    }

    #[test]
    fn cancel_skips_the_event_and_counts() {
        let mut s = Scheduler::new();
        let key = s.schedule_at_keyed(SimTime::from_millis(5), "timer");
        s.schedule_at(SimTime::from_millis(7), "data");
        assert_eq!(s.cancel(key), Some("timer"));
        assert_eq!(s.cancelled_in_place(), 1);
        assert_eq!(s.pop().map(|(_, e)| e), Some("data"));
        assert!(s.pop().is_none());
    }

    #[test]
    fn drain_due_pops_whole_run_and_parks_at_horizon() {
        let mut s = Scheduler::new();
        let t = SimTime::from_millis(3);
        s.schedule_at(t, "a");
        s.schedule_at(t, "b");
        s.schedule_at(SimTime::from_secs(10), "late");
        let mut batch = Vec::new();
        assert_eq!(s.drain_due(SimTime::from_secs(5), usize::MAX, &mut batch), Some(t));
        assert_eq!(batch, ["a", "b"]);
        assert_eq!(s.now(), t);
        assert_eq!(s.processed(), 2);
        batch.clear();
        assert_eq!(s.drain_due(SimTime::from_secs(5), usize::MAX, &mut batch), None);
        assert!(batch.is_empty());
        assert_eq!(s.now(), SimTime::from_secs(5));
        assert_eq!(s.pending(), 1);
    }

    #[test]
    fn drain_due_then_same_instant_push_forms_next_batch() {
        // An event scheduled *at* the batch timestamp during dispatch must
        // come out of the following drain_due call, as in single-pop order.
        let mut s = Scheduler::new();
        let t = SimTime::from_millis(1);
        s.schedule_at(t, "first");
        let mut batch = Vec::new();
        assert_eq!(s.drain_due(SimTime::from_secs(1), usize::MAX, &mut batch), Some(t));
        assert_eq!(batch, ["first"]);
        s.schedule_now("second");
        batch.clear();
        assert_eq!(s.drain_due(SimTime::from_secs(1), usize::MAX, &mut batch), Some(t));
        assert_eq!(batch, ["second"]);
    }

    #[test]
    fn drain_due_limit_counts_exactly() {
        let mut s = Scheduler::new();
        let t = SimTime::from_millis(1);
        for i in 0..3 {
            s.schedule_at(t, i);
        }
        let mut batch = Vec::new();
        assert_eq!(s.drain_due(SimTime::from_secs(1), 2, &mut batch), Some(t));
        assert_eq!(batch, [0, 1]);
        assert_eq!(s.processed(), 2);
        assert_eq!(s.pending(), 1);
    }

    #[test]
    fn pending_peak_tracks_high_water_mark() {
        let mut s = Scheduler::new();
        for ms in 1..=5u64 {
            s.schedule_at(SimTime::from_millis(ms), ());
        }
        while s.pop().is_some() {}
        s.schedule_after(SimDuration::from_millis(1), ());
        assert_eq!(s.pending_peak(), 5);
        assert_eq!(s.pending(), 1);
    }
}
