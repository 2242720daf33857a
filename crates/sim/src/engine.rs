//! The discrete-event engine.
//!
//! [`Engine`] owns an ordered queue of future events keyed `(at, seq)`.
//! Events scheduled for the same instant are delivered in the order they
//! were scheduled — `seq` is a monotone counter stamped at schedule time,
//! so the order is total and the pop sequence is a function of the
//! schedule calls alone. That is essential for reproducibility: a queue
//! keyed on time only would break ties arbitrarily.
//!
//! The queue is a `BinaryHeap` beside a few *runs*, FIFO `VecDeque`s each
//! sorted by `(at, seq)`. A schedule is appended to the run whose last
//! entry is the latest one no later than `at`, so a run stays sorted
//! without a search; failing that it starts an empty run, and failing that
//! it goes into the heap. `pop` takes the smallest `(at, seq)` among the
//! run fronts and the heap's top; `seq` is unique, so the pop sequence is
//! exactly one heap's. Schedules that are monotone in time stay out of the
//! heap — open-loop arrivals scheduled in order before the loop, and
//! retransmission timers, each armed a fixed interval after the instant
//! it is armed at — and the heap's depth is then what the network has in
//! flight.
//!
//! There is no cancellation: a timer that may go stale carries a
//! generation or epoch its handler checks, and fires as a no-op. Every
//! container is buffer-backed, so once each has grown to its peak
//! population the schedule/pop loop performs no heap allocation
//! (`tests/alloc_probe.rs`). The measurements behind the design are in
//! DESIGN.md §3i.
//!
//! The engine is generic over the event payload `E` so that each layer of
//! the system (network, nodes, workload) can define one event enum and drive
//! the loop itself:
//!
//! ```
//! use fragdb_sim::{Engine, SimDuration, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping(u32) }
//!
//! let mut engine = Engine::new(42);
//! engine.schedule(SimDuration::from_millis(5), Ev::Ping(1));
//! engine.schedule(SimDuration::from_millis(1), Ev::Ping(0));
//! let mut seen = Vec::new();
//! while let Some((t, ev)) = engine.pop() {
//!     seen.push((t, ev));
//! }
//! assert_eq!(seen[0].1, Ev::Ping(0));
//! assert_eq!(seen[1].0, SimTime::from_millis(5));
//! ```

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::metrics::keys::slot;
use crate::metrics::Metrics;
use crate::rng::SimRng;
use crate::telemetry::{Telemetry, TelemetryEvent};
use crate::time::{SimDuration, SimTime};

/// One queued event. Ordered so that `BinaryHeap` (a max-heap) yields the
/// smallest `(at, seq)` first; the payload takes no part in the order.
struct Entry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> Entry<E> {
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

/// FIFO runs kept beside the heap: four is where the schedules that reach
/// the heap on `wide-mesh` stop falling (counts in DESIGN.md §3i).
const RUNS: usize = 4;

/// Deterministic discrete-event engine.
///
/// Owns the virtual clock, the event queue, a seeded RNG, run metrics, and
/// an optional trace. The caller drives the loop with [`Engine::pop`] (or
/// [`Engine::pop_until`]) so that event handling can borrow both the engine
/// and the caller's world state.
pub struct Engine<E> {
    now: SimTime,
    /// Future events scheduled out of order, smallest `(at, seq)` on top.
    queue: BinaryHeap<Entry<E>>,
    /// Future events scheduled in order: each run sorted by `(at, seq)`,
    /// front first.
    runs: [VecDeque<Entry<E>>; RUNS],
    /// High-water mark of [`Engine::pending`].
    peak_pending: usize,
    /// Schedules that found room in the buffer they entered.
    buffer_reuses: u64,
    next_seq: u64,
    /// Seeded random source shared by all simulation components.
    pub rng: SimRng,
    /// Counters and histograms accumulated during the run.
    pub metrics: Metrics,
    /// Optional structured event telemetry (see [`crate::telemetry`]).
    pub telemetry: Telemetry,
}

impl<E> Engine<E> {
    /// Create an engine whose RNG is seeded with `seed`.
    ///
    /// Two engines with the same seed, fed the same schedule of events,
    /// produce identical executions.
    pub fn new(seed: u64) -> Self {
        Engine {
            now: SimTime::ZERO,
            queue: BinaryHeap::new(),
            runs: Default::default(),
            peak_pending: 0,
            buffer_reuses: 0,
            next_seq: 0,
            rng: SimRng::new(seed),
            metrics: Metrics::new(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Emit a telemetry event at the current virtual time.
    ///
    /// The event is constructed by the closure only when telemetry is
    /// enabled, so a disabled stream costs a single branch on hot paths.
    #[inline]
    pub fn emit(&mut self, build: impl FnOnce() -> TelemetryEvent) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let ev = build();
        self.telemetry.record(self.now, ev, &mut self.metrics);
    }

    /// Publish the telemetry buffer's drop count as a metric
    /// ([`TELEMETRY_DROPPED`](crate::metrics::keys::TELEMETRY_DROPPED)) so
    /// report rendering can warn about a truncated log. Call before reading
    /// or rendering metrics at the end of a run.
    pub fn sync_drop_metrics(&mut self) {
        self.metrics
            .set(slot::TELEMETRY_DROPPED, self.telemetry.dropped());
    }

    /// Schedules that reused a queue buffer instead of growing it.
    pub fn pool_reuse(&self) -> u64 {
        self.buffer_reuses
    }

    /// High-water mark of the pending-event count over the run so far.
    pub fn peak_queue_depth(&self) -> usize {
        self.peak_pending
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events still queued.
    #[inline]
    pub fn pending(&self) -> usize {
        self.queue.len() + self.runs.iter().map(VecDeque::len).sum::<usize>()
    }

    /// Schedule `payload` to fire `delay` after the current time.
    pub fn schedule(&mut self, delay: SimDuration, payload: E) {
        self.schedule_at(self.now + delay, payload);
    }

    /// Schedule `payload` at an absolute instant: onto the run whose last
    /// entry is the latest one no later than `at`, else onto an empty run,
    /// else into the heap.
    ///
    /// # Panics
    /// Panics if `at` is in the past — scheduling backwards in time is
    /// always a logic error in a discrete-event simulation.
    pub fn schedule_at(&mut self, at: SimTime, payload: E) {
        assert!(
            at >= self.now,
            "cannot schedule event in the past: at={:?} now={:?}",
            at,
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = Entry { at, seq, payload };
        if let Some(run) = self.run_for(at) {
            let run = &mut self.runs[run];
            self.buffer_reuses += u64::from(run.len() < run.capacity());
            run.push_back(entry);
        } else {
            self.buffer_reuses += u64::from(self.queue.len() < self.queue.capacity());
            self.queue.push(entry);
        }
        self.peak_pending = self.peak_pending.max(self.pending());
    }

    /// The run an event at `at` is appended to: the one whose last entry
    /// is the latest no later than `at`, else the first empty one.
    fn run_for(&self, at: SimTime) -> Option<usize> {
        let (mut fit, mut empty) = (None::<(SimTime, usize)>, None);
        for (i, run) in self.runs.iter().enumerate() {
            match run.back() {
                None => {
                    empty.get_or_insert(i);
                }
                Some(last) if last.at <= at && fit.is_none_or(|(best, _)| last.at > best) => {
                    fit = Some((last.at, i));
                }
                Some(_) => {}
            }
        }
        fit.map(|(_, i)| i).or(empty)
    }

    /// The run whose front is the next event, or `None` when that is the
    /// heap's top (or nothing is pending).
    fn next_run(&self) -> Option<usize> {
        let mut next = self.queue.peek().map(Entry::key);
        let mut run = None;
        for (i, r) in self.runs.iter().enumerate() {
            let Some(front) = r.front() else { continue };
            if next.is_none_or(|key| front.key() < key) {
                (next, run) = (Some(front.key()), Some(i));
            }
        }
        run
    }

    /// Pop the next event, advancing the clock to its timestamp.
    ///
    /// Returns `None` when the queue is empty (the simulation has quiesced).
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let e = match self.next_run() {
            Some(run) => self.runs[run].pop_front(),
            None => self.queue.pop(),
        }?;
        debug_assert!(e.at >= self.now, "event queue went backwards");
        self.now = e.at;
        self.metrics.incr(slot::SIM_EVENTS);
        Some((e.at, e.payload))
    }

    /// Pop the next event only if it fires at or before `limit`.
    ///
    /// Events after `limit` stay queued and the clock is advanced to
    /// `limit` when the horizon is reached, so a subsequent `pop_until`
    /// with a later limit continues seamlessly.
    pub fn pop_until(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        if self.peek_time().is_some_and(|at| at <= limit) {
            return self.pop();
        }
        self.now = self.now.max(limit);
        None
    }

    /// Timestamp of the next queued event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        let fronts = self.runs.iter().filter_map(VecDeque::front);
        fronts.chain(self.queue.peek()).map(|e| e.at).min()
    }

    /// Enumerate every pending event as `(at, seq, payload)`, sorted by the
    /// canonical `(at, seq)` key — what a model checker needs in order to
    /// explore arbitrary interleavings instead of the canonical pop order.
    pub fn mc_pending(&self) -> Vec<(SimTime, u64, &E)> {
        let mut pending: Vec<_> = self
            .queue
            .iter()
            .chain(self.runs.iter().flatten())
            .map(|e| (e.at, e.seq, &e.payload))
            .collect();
        pending.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
        pending
    }

    /// Remove and return one pending event by its `seq`, regardless of its
    /// position in the queue. The clock advances to `max(now, at)` — taking
    /// an event "early" reinterprets it as firing now, which is exactly the
    /// delay/skew nondeterminism a model checker explores; causality is
    /// preserved because only already-scheduled events are takeable.
    ///
    /// Returns `None` if no pending event carries `seq`. The returned time
    /// is the post-advance clock, safe to feed back into handlers that
    /// schedule follow-up events.
    ///
    /// Every run is folded into the heap, which is rebuilt around the hole
    /// (O(pending)); model-checking instances hold tens of events.
    pub fn mc_take(&mut self, seq: u64) -> Option<(SimTime, E)> {
        let mut entries = std::mem::take(&mut self.queue).into_vec();
        for run in &mut self.runs {
            entries.extend(run.drain(..));
        }
        let found = entries.iter().position(|e| e.seq == seq);
        let taken = found.map(|idx| entries.swap_remove(idx));
        self.queue = BinaryHeap::from(entries);
        let e = taken?;
        self.now = self.now.max(e.at);
        self.metrics.incr(slot::SIM_EVENTS);
        Some((self.now, e.payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::keys;
    use crate::rng::SimRng;

    #[derive(Debug, PartialEq, Clone)]
    enum Ev {
        A(u32),
    }

    fn drain(engine: &mut Engine<Ev>) -> Vec<(SimTime, Ev)> {
        let mut out = Vec::new();
        while let Some(item) = engine.pop() {
            out.push(item);
        }
        out
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut e = Engine::new(1);
        e.schedule(SimDuration(30), Ev::A(3));
        e.schedule(SimDuration(10), Ev::A(1));
        e.schedule(SimDuration(20), Ev::A(2));
        let seen = drain(&mut e);
        assert_eq!(
            seen,
            vec![
                (SimTime(10), Ev::A(1)),
                (SimTime(20), Ev::A(2)),
                (SimTime(30), Ev::A(3)),
            ]
        );
    }

    #[test]
    fn same_time_events_are_fifo() {
        let mut e = Engine::new(1);
        for i in 0..100 {
            e.schedule(SimDuration(5), Ev::A(i));
        }
        let seen = drain(&mut e);
        let order: Vec<u32> = seen.iter().map(|(_, Ev::A(i))| *i).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_to_event_time() {
        let mut e = Engine::new(1);
        e.schedule(SimDuration(7), Ev::A(0));
        assert_eq!(e.now(), SimTime::ZERO);
        e.pop();
        assert_eq!(e.now(), SimTime(7));
    }

    #[test]
    fn pop_until_respects_horizon() {
        let mut e = Engine::new(1);
        e.schedule(SimDuration(10), Ev::A(1));
        e.schedule(SimDuration(100), Ev::A(2));
        assert!(e.pop_until(SimTime(50)).is_some());
        assert!(e.pop_until(SimTime(50)).is_none());
        // Clock advanced to the horizon even though no event fired.
        assert_eq!(e.now(), SimTime(50));
        // Later horizon releases the remaining event.
        assert_eq!(e.pop_until(SimTime(200)), Some((SimTime(100), Ev::A(2))));
    }

    #[test]
    fn schedule_during_drain_interleaves() {
        let mut e = Engine::new(1);
        e.schedule(SimDuration(10), Ev::A(1));
        let mut seen = Vec::new();
        while let Some((t, ev)) = e.pop() {
            if seen.is_empty() {
                e.schedule(SimDuration(5), Ev::A(2)); // fires at t=15
            }
            seen.push((t, ev));
        }
        assert_eq!(seen, vec![(SimTime(10), Ev::A(1)), (SimTime(15), Ev::A(2))]);
    }

    #[test]
    #[should_panic(expected = "cannot schedule event in the past")]
    fn scheduling_in_the_past_panics() {
        let mut e = Engine::new(1);
        e.schedule(SimDuration(10), Ev::A(1));
        e.pop();
        e.schedule_at(SimTime(5), Ev::A(2));
    }

    #[test]
    fn pending_counts_queued_events() {
        let mut e = Engine::new(1);
        e.schedule(SimDuration(1), Ev::A(1));
        e.schedule(SimDuration(2), Ev::A(2));
        assert_eq!(e.pending(), 2);
        drain(&mut e);
        assert_eq!(e.pending(), 0);
        assert!(e.pop().is_none());
    }

    #[test]
    fn peek_time_sees_earliest() {
        let mut e = Engine::new(1);
        assert_eq!(e.peek_time(), None);
        e.schedule(SimDuration(9), Ev::A(1));
        e.schedule(SimDuration(3), Ev::A(2));
        assert_eq!(e.peek_time(), Some(SimTime(3)));
    }

    #[test]
    fn event_counter_metric_increments() {
        let mut e = Engine::new(1);
        e.schedule(SimDuration(1), Ev::A(1));
        e.schedule(SimDuration(2), Ev::A(2));
        drain(&mut e);
        assert_eq!(e.metrics.counter("sim.events"), 2);
    }

    #[test]
    fn disabled_telemetry_does_not_evaluate_closure() {
        let mut e = Engine::<Ev>::new(1);
        let mut evaluated = false;
        e.emit(|| {
            evaluated = true;
            crate::telemetry::TelemetryEvent::Crash { node: 0 }
        });
        assert!(!evaluated);
        assert!(e.telemetry.is_empty());
    }

    #[test]
    fn emit_records_at_current_time() {
        let mut e = Engine::<Ev>::new(1);
        e.telemetry = crate::telemetry::Telemetry::bounded(8);
        e.schedule(SimDuration(9), Ev::A(0));
        e.pop();
        e.emit(|| crate::telemetry::TelemetryEvent::Crash { node: 3 });
        let rec = e.telemetry.events().next().expect("one event");
        assert_eq!(rec.at, SimTime(9));
    }

    #[test]
    fn sync_drop_metrics_publishes_totals() {
        let mut e = Engine::<Ev>::new(1);
        e.telemetry = crate::telemetry::Telemetry::bounded(1);
        e.emit(|| crate::telemetry::TelemetryEvent::Crash { node: 1 });
        e.emit(|| crate::telemetry::TelemetryEvent::Crash { node: 2 });
        e.sync_drop_metrics();
        assert_eq!(e.metrics.counter(keys::TELEMETRY_DROPPED), 1);
    }

    /// Microseconds to ~83 simulated hours in one queue.
    const LONG_HORIZON_DELAYS: [u64; 6] = [
        100,
        50_000,
        3_000_000,         // ~3 s
        150_000_000,       // ~2.5 min
        10_000_000_000,    // ~2.8 h
        3_000_000_000_000, // ~83 h
    ];

    #[test]
    fn long_horizon_events_fire_in_order_at_exact_instants() {
        let mut e = Engine::new(1);
        for (i, &d) in LONG_HORIZON_DELAYS.iter().enumerate() {
            e.schedule(SimDuration(d), Ev::A(i as u32));
        }
        let seen = drain(&mut e);
        let order: Vec<u32> = seen.iter().map(|(_, Ev::A(i))| *i).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5]);
        let ats: Vec<u64> = seen.iter().map(|(t, _)| t.0).collect();
        assert_eq!(
            ats, LONG_HORIZON_DELAYS,
            "events fire at their exact instants"
        );
    }

    #[test]
    fn long_horizon_events_scheduled_farthest_first_fire_nearest_first() {
        let mut e = Engine::new(1);
        for (i, &d) in LONG_HORIZON_DELAYS.iter().enumerate().rev() {
            e.schedule(SimDuration(d), Ev::A(i as u32));
        }
        let seen = drain(&mut e);
        let ats: Vec<u64> = seen.iter().map(|(t, _)| t.0).collect();
        assert_eq!(ats, LONG_HORIZON_DELAYS);
    }

    #[test]
    fn peak_queue_depth_tracks_high_water_mark() {
        let mut e = Engine::new(1);
        for i in 0..10 {
            e.schedule(SimDuration(1 + i), Ev::A(i as u32));
        }
        drain(&mut e);
        e.schedule(SimDuration(1), Ev::A(99));
        drain(&mut e);
        assert_eq!(e.peak_queue_depth(), 10);
    }

    #[test]
    fn mc_pending_lists_events_in_canonical_order() {
        let mut e = Engine::new(1);
        e.schedule(SimDuration(30), Ev::A(2));
        e.schedule(SimDuration(10), Ev::A(0));
        e.schedule(SimDuration(20), Ev::A(1));
        let listed: Vec<u32> = e.mc_pending().iter().map(|&(_, _, Ev::A(i))| *i).collect();
        assert_eq!(listed, vec![0, 1, 2]);
    }

    #[test]
    fn mc_take_out_of_order_advances_clock_monotonically() {
        let mut e = Engine::new(1);
        e.schedule(SimDuration(10), Ev::A(0));
        e.schedule(SimDuration(50), Ev::A(1));
        e.schedule(SimDuration(20), Ev::A(2));
        let pend = e.mc_pending();
        // Take the latest event first: clock jumps to 50.
        let seq_late = pend
            .iter()
            .find(|&&(at, _, _)| at == SimTime(50))
            .unwrap()
            .1;
        assert_eq!(e.mc_take(seq_late), Some((SimTime(50), Ev::A(1))));
        assert_eq!(e.now(), SimTime(50));
        // Earlier events are reinterpreted as firing "now": clock holds.
        let keys: Vec<u64> = e.mc_pending().iter().map(|&(_, s, _)| s).collect();
        assert_eq!(keys.len(), 2);
        assert_eq!(e.mc_take(keys[0]), Some((SimTime(50), Ev::A(0))));
        assert_eq!(e.mc_take(keys[0]), None, "already taken");
        assert_eq!(e.pending(), 1);
    }

    /// The reference the heap and the runs are checked against: every
    /// pending `(at, seq, payload)` in schedule order, the next found by
    /// sorting.
    #[derive(Default)]
    struct Reference {
        pending: Vec<(SimTime, u64, u32)>,
    }

    impl Reference {
        fn schedule(&mut self, e: &mut Engine<Ev>, at: SimTime) {
            let seq = e.next_seq;
            self.pending.push((at, seq, seq as u32));
            e.schedule_at(at, Ev::A(seq as u32));
        }

        fn sorted(&self) -> Vec<(SimTime, u64, u32)> {
            let mut all = self.pending.clone();
            all.sort_unstable();
            all
        }

        /// Remove `seq` and return what `pop`/`mc_take` should answer.
        fn take(&mut self, seq: u64, now: SimTime) -> (SimTime, Ev) {
            let i = self.pending.iter().position(|p| p.1 == seq).unwrap();
            let (at, _, payload) = self.pending.remove(i);
            (at.max(now), Ev::A(payload))
        }

        fn check_listing(&self, e: &Engine<Ev>, seed: u64) {
            let listed: Vec<_> = e
                .mc_pending()
                .into_iter()
                .map(|(at, seq, &Ev::A(p))| (at, seq, p))
                .collect();
            assert_eq!(listed, self.sorted(), "seed {seed}: mc_pending");
        }
    }

    /// Differential: seeded schedules that mix in-order bursts (which land
    /// in a run), descending bursts (which spread over the empty runs and
    /// then the heap), out-of-order inserts near the clock, same-instant
    /// ties and interleaved pops, with `mc_take` of events held in every
    /// run and in the heap. Every pop must equal the reference sorted by
    /// `(at, seq)`, and `mc_pending` must list the same events. Every run
    /// and the heap must serve both takes and pops.
    #[test]
    fn heap_plus_runs_pop_in_reference_order() {
        // Per container, the runs first and the heap last.
        let (mut takes, mut pops) = ([0u32; RUNS + 1], [0u32; RUNS + 1]);
        for seed in 0..40u64 {
            let mut rng = SimRng::new(0x0072_756e ^ seed);
            let mut e = Engine::new(seed);
            let mut r = Reference::default();
            for _ in 0..600 {
                let now = e.now();
                match rng.gen_range(0..100u32) {
                    // In-order burst past everything pending, ties included.
                    0..=16 => {
                        let far = r.pending.iter().map(|p| p.0).max().unwrap_or(now);
                        let mut at = far.max(now);
                        for _ in 0..rng.gen_range(1..20u32) {
                            at += SimDuration(rng.gen_range(0..3u64));
                            r.schedule(&mut e, at);
                        }
                    }
                    // Out-of-order inserts near the clock.
                    17..=34 => r.schedule(&mut e, now + SimDuration(rng.gen_range(0..500u64))),
                    // Same-instant ties.
                    35..=39 => {
                        let at = now + SimDuration(rng.gen_range(0..500u64));
                        for _ in 0..rng.gen_range(2..8u32) {
                            r.schedule(&mut e, at);
                        }
                    }
                    // Descending burst: each event earlier than the last.
                    40..=44 => {
                        let mut at = now + SimDuration(rng.gen_range(0..2_000u64));
                        for _ in 0..rng.gen_range(2..8u32) {
                            r.schedule(&mut e, at);
                            at = SimTime(at.0.saturating_sub(rng.gen_range(1..50u64))).max(now);
                        }
                    }
                    45..=47 => r.check_listing(&e, seed),
                    // Take one event held in a run, or in the heap, then
                    // the events the clock has passed, in reference order.
                    48..=51 => {
                        let from = rng.gen_range(0..=RUNS);
                        let held: Vec<u64> = match e.runs.get(from) {
                            Some(run) => run.iter().map(|x| x.seq).collect(),
                            None => e.queue.iter().map(|x| x.seq).collect(),
                        };
                        if held.is_empty() {
                            continue;
                        }
                        let seq = *rng.pick(&held);
                        takes[from] += 1;
                        let want = r.take(seq, now);
                        assert_eq!(e.mc_take(seq), Some(want), "seed {seed}: take {seq}");
                        assert_eq!(e.mc_take(seq), None, "seed {seed}: taken twice");
                        r.check_listing(&e, seed);
                        for (at, seq, _) in r.sorted() {
                            if at >= e.now() {
                                break;
                            }
                            let want = r.take(seq, e.now());
                            assert_eq!(e.mc_take(seq), Some(want), "seed {seed}");
                        }
                    }
                    _ => {
                        if e.pending() > 0 {
                            pops[e.next_run().unwrap_or(RUNS)] += 1;
                        }
                        let want = r.sorted().first().map(|&(_, seq, _)| seq);
                        let want = want.map(|seq| r.take(seq, now));
                        assert_eq!(e.peek_time(), want.as_ref().map(|w| w.0));
                        assert_eq!(e.pop(), want, "seed {seed}: pop");
                    }
                }
                assert_eq!(e.pending(), r.pending.len(), "seed {seed}");
            }
            r.check_listing(&e, seed);
            let drained = r.sorted().into_iter().map(|(at, _, p)| (at, Ev::A(p)));
            assert_eq!(drain(&mut e), drained.collect::<Vec<_>>(), "seed {seed}");
        }
        assert!(
            takes.iter().all(|&n| n > 0),
            "takes per container {takes:?}"
        );
        assert!(pops.iter().all(|&n| n > 0), "pops per container {pops:?}");
    }

    #[test]
    fn identical_seeds_identical_rng_streams() {
        let mut a = Engine::<Ev>::new(777);
        let mut b = Engine::<Ev>::new(777);
        let xs: Vec<u64> = (0..32).map(|_| a.rng.next_u64()).collect();
        let ys: Vec<u64> = (0..32).map(|_| b.rng.next_u64()).collect();
        assert_eq!(xs, ys);
    }
}
