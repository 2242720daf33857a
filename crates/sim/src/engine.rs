//! The discrete-event engine.
//!
//! [`Engine`] owns an ordered queue of future events. Events scheduled for
//! the same instant are delivered in the order they were scheduled (a stable
//! FIFO tie-break via a monotone sequence number), which is essential for
//! reproducibility: a `BinaryHeap` alone would break ties arbitrarily.
//!
//! Since the PR 8 kernel pass the queue is not a heap at all: every event —
//! plain or cancellable — parks in the hierarchical timing wheel (near
//! horizon) or its bucketed far-event calendar (see [`crate::wheel`]), and
//! due events surface into an allocation-reusing ordered ready buffer. The
//! observable pop order is exactly what the old `BinaryHeap` gave (`(at,
//! seq)` with FIFO ties), pinned by the interleaving tests below and the
//! seed-42 golden traces, but insert/pop are O(1) amortized and the steady
//! state loop performs no heap allocation.
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

use crate::metrics::{keys, Metrics};
use crate::rng::SimRng;
use crate::telemetry::{Telemetry, TelemetryEvent};
use crate::time::{SimDuration, SimTime};
use crate::wheel::{tick_of, Ready, ReadyEntry, TimerWheel, WheelEntry};

/// Handle to a timer scheduled with [`Engine::schedule_timer_at`]; pass it
/// to [`Engine::cancel_timer`] to cancel in O(1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimerToken {
    idx: u32,
    gen: u32,
}

/// Slab slot backing a [`TimerToken`]: generation guards against reuse.
#[derive(Clone, Copy, Debug)]
struct TimerSlot {
    gen: u32,
    alive: bool,
}

/// Deterministic discrete-event engine.
///
/// Owns the virtual clock, the event queue, a seeded RNG, run metrics, and
/// an optional trace. The caller drives the loop with [`Engine::pop`] (or
/// [`Engine::pop_until`]) so that event handling can borrow both the engine
/// and the caller's world state.
pub struct Engine<E> {
    now: SimTime,
    /// Every future event, bucketed by expiry tick (O(1) insert); far
    /// events live in the wheel's calendar overflow. Due entries migrate
    /// into `ready` with their exact `(at, seq)` keys.
    wheel: TimerWheel<E>,
    /// Due (or near-due) events in exact pop order. Cancelled timers
    /// tombstone in place (dead token) and are reaped when they surface.
    ready: Ready<E>,
    /// Token slab; `timer_free` lists reusable indices.
    timer_slots: Vec<TimerSlot>,
    timer_free: Vec<u32>,
    /// Timers scheduled and neither fired nor cancelled.
    live_timers: usize,
    /// Plain (non-timer) events scheduled and not yet fired.
    live_events: usize,
    /// High-water mark of `live_timers + live_events`.
    peak_pending: usize,
    /// Timer-slab free-list hits (slot reuse instead of growth).
    slab_reuses: u64,
    next_seq: u64,
    /// Model-checking mode: events bypass the wheel so every pending event
    /// is enumerable and individually takeable (see [`Engine::enable_mc`]).
    mc: bool,
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
            wheel: TimerWheel::new(),
            ready: Ready::new(),
            timer_slots: Vec::new(),
            timer_free: Vec::new(),
            live_timers: 0,
            live_events: 0,
            peak_pending: 0,
            slab_reuses: 0,
            next_seq: 0,
            mc: false,
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
    /// ([`keys::TELEMETRY_DROPPED`]) so report rendering can warn about a
    /// truncated log. Call before reading or rendering metrics at the end
    /// of a run.
    pub fn sync_drop_metrics(&mut self) {
        self.metrics
            .set(keys::TELEMETRY_DROPPED, self.telemetry.dropped());
    }

    /// Times a pooled resource was reused instead of freshly allocated:
    /// timer-slab free-list hits plus warm ready-buffer batch appends.
    pub fn pool_reuse(&self) -> u64 {
        self.slab_reuses + self.ready.reuses()
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

    /// Number of events still queued (plain events plus live timers).
    #[inline]
    pub fn pending(&self) -> usize {
        self.live_events + self.live_timers
    }

    #[inline]
    fn note_depth(&mut self) {
        let depth = self.live_events + self.live_timers;
        if depth > self.peak_pending {
            self.peak_pending = depth;
        }
    }

    /// Schedule `payload` to fire `delay` after the current time.
    pub fn schedule(&mut self, delay: SimDuration, payload: E) {
        self.schedule_at(self.now + delay, payload);
    }

    /// Schedule `payload` at an absolute instant.
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
        self.live_events += 1;
        self.note_depth();
        if self.mc || tick_of(at) < self.wheel.current_tick() {
            // The wheel's cursor already swept this tick; keep exact order
            // by parking the event in the ready buffer directly.
            self.ready.insert(ReadyEntry {
                at,
                seq,
                token: None,
                payload,
            });
        } else {
            self.wheel.insert(WheelEntry {
                at,
                seq,
                token: None,
                payload,
            });
        }
    }

    /// Schedule a cancellable timer to fire `delay` after the current time.
    pub fn schedule_timer(&mut self, delay: SimDuration, payload: E) -> TimerToken {
        self.schedule_timer_at(self.now + delay, payload)
    }

    /// Schedule a cancellable timer at an absolute instant.
    ///
    /// Timers go through the timing wheel — O(1) insert regardless of how
    /// many are outstanding — but fire interleaved with plain events in the
    /// exact same `(time, seq)` order [`Engine::schedule_at`] would give.
    ///
    /// # Panics
    /// Panics if `at` is in the past, like [`Engine::schedule_at`].
    pub fn schedule_timer_at(&mut self, at: SimTime, payload: E) -> TimerToken {
        assert!(
            at >= self.now,
            "cannot schedule event in the past: at={:?} now={:?}",
            at,
            self.now
        );
        self.metrics.incr(keys::NET_TIMER_WHEEL_OPS);
        let seq = self.next_seq;
        self.next_seq += 1;
        let token = match self.timer_free.pop() {
            Some(idx) => {
                self.slab_reuses += 1;
                self.timer_slots[idx as usize].alive = true;
                TimerToken {
                    idx,
                    gen: self.timer_slots[idx as usize].gen,
                }
            }
            None => {
                let idx = self.timer_slots.len() as u32;
                self.timer_slots.push(TimerSlot {
                    gen: 0,
                    alive: true,
                });
                TimerToken { idx, gen: 0 }
            }
        };
        self.live_timers += 1;
        self.note_depth();
        if self.mc || tick_of(at) < self.wheel.current_tick() {
            self.ready.insert(ReadyEntry {
                at,
                seq,
                token: Some(token),
                payload,
            });
        } else {
            self.wheel.insert(WheelEntry {
                at,
                seq,
                token: Some(token),
                payload,
            });
        }
        token
    }

    /// Cancel a scheduled timer in O(1). Returns `false` if it already
    /// fired, was already cancelled, or the token is stale. The entry is
    /// reaped lazily (a tombstone until it surfaces), so
    /// [`Engine::peek_time`] may briefly still report a cancelled timer's
    /// instant (never its payload).
    pub fn cancel_timer(&mut self, token: TimerToken) -> bool {
        match self.timer_slots.get_mut(token.idx as usize) {
            Some(slot) if slot.gen == token.gen && slot.alive => {
                slot.alive = false;
                self.live_timers -= 1;
                self.metrics.incr(keys::NET_TIMER_WHEEL_OPS);
                true
            }
            _ => false,
        }
    }

    /// Retire a token whose entry has surfaced (fired or reaped dead).
    fn free_token(&mut self, token: TimerToken) {
        let slot = &mut self.timer_slots[token.idx as usize];
        slot.gen = slot.gen.wrapping_add(1);
        slot.alive = false;
        self.timer_free.push(token.idx);
    }

    fn token_alive(&self, token: TimerToken) -> bool {
        self.timer_slots
            .get(token.idx as usize)
            .is_some_and(|s| s.gen == token.gen && s.alive)
    }

    /// Reap cancelled tombstones off the ready head and refill from the
    /// wheel when the buffer runs dry, so after return either the ready
    /// head is the next live event or the whole queue is empty.
    fn settle(&mut self) {
        loop {
            match self.ready.peek().map(|e| e.token) {
                Some(None) => return,
                Some(Some(token)) => {
                    if self.token_alive(token) {
                        return;
                    }
                    self.ready.pop();
                    self.free_token(token);
                }
                None => {
                    if self.wheel.len() == 0 {
                        return;
                    }
                    self.wheel.collect_next(&mut self.ready);
                }
            }
        }
    }

    /// Pop the next event, advancing the clock to its timestamp.
    ///
    /// Returns `None` when the queue is empty (the simulation has quiesced).
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.settle();
        let e = self.ready.pop()?;
        if let Some(token) = e.token {
            self.free_token(token);
            self.live_timers -= 1;
            self.metrics.incr(keys::NET_TIMER_WHEEL_OPS);
        } else {
            self.live_events -= 1;
        }
        debug_assert!(e.at >= self.now, "event queue went backwards");
        self.now = e.at;
        self.metrics.incr(keys::SIM_EVENTS);
        Some((e.at, e.payload))
    }

    /// Pop the next event only if it fires at or before `limit`.
    ///
    /// Events after `limit` stay queued and the clock is advanced to
    /// `limit` when the horizon is reached, so a subsequent `pop_until`
    /// with a later limit continues seamlessly.
    pub fn pop_until(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        self.settle();
        match self.ready.peek() {
            Some(e) if e.at <= limit => self.pop(),
            _ => {
                if self.now < limit {
                    self.now = limit;
                }
                None
            }
        }
    }

    /// Timestamp of the next queued event, if any. A timer cancelled but
    /// not yet reaped may still be reported (see [`Engine::cancel_timer`]).
    pub fn peek_time(&self) -> Option<SimTime> {
        let mut best = self.ready.peek().map(|e| (e.at, e.seq));
        if let Some(key) = self.wheel.min_key() {
            best = Some(best.map_or(key, |b| b.min(key)));
        }
        best.map(|(at, _)| at)
    }

    /// Switch the engine into model-checking mode.
    ///
    /// From this point on, events skip the timing wheel and park directly in
    /// the exact-order ready buffer, and any events already in the wheel are
    /// migrated there. This makes the complete pending set enumerable via
    /// [`Engine::mc_pending`] and individually consumable via
    /// [`Engine::mc_take`], which a model checker needs in order to explore
    /// arbitrary event interleavings instead of the canonical `(time, seq)`
    /// order. Normal [`Engine::pop`] execution is unaffected by the flag
    /// itself (the ready buffer already participates in exact pop order).
    pub fn enable_mc(&mut self) {
        self.mc = true;
        while self.wheel.len() > 0 {
            self.wheel.collect_next(&mut self.ready);
        }
    }

    /// Whether [`Engine::enable_mc`] has been called.
    pub fn is_mc(&self) -> bool {
        self.mc
    }

    /// Enumerate every pending event as `(at, seq, payload)`, sorted by the
    /// canonical `(at, seq)` key. Cancelled-but-unreaped timers are skipped.
    ///
    /// Only meaningful after [`Engine::enable_mc`] (otherwise events parked
    /// in the wheel are invisible and the listing is incomplete).
    pub fn mc_pending(&self) -> Vec<(SimTime, u64, &E)> {
        debug_assert!(self.mc, "mc_pending requires enable_mc");
        self.ready
            .iter()
            .filter(|e| match e.token {
                Some(token) => self.token_alive(token),
                None => true,
            })
            .map(|e| (e.at, e.seq, &e.payload))
            .collect()
    }

    /// Remove and return one pending event by its `seq`, regardless of its
    /// position in the queue. The clock advances to `max(now, at)` — taking
    /// an event "early" reinterprets it as firing now, which is exactly the
    /// delay/skew nondeterminism a model checker explores; causality is
    /// preserved because only already-scheduled events are takeable.
    ///
    /// Returns `None` if no live pending event carries `seq`. The returned
    /// time is the post-advance clock, safe to feed back into handlers that
    /// schedule follow-up events.
    ///
    /// Cancelled timers are lazy-deleted tombstones: they are invisible
    /// here (dead token) and reaped when they surface at the buffer head,
    /// so taking an arbitrary event is a single ordered remove instead of
    /// the heap rebuild the pre-PR 8 engine performed.
    pub fn mc_take(&mut self, seq: u64) -> Option<(SimTime, E)> {
        debug_assert!(self.mc, "mc_take requires enable_mc");
        let found = self
            .ready
            .iter()
            .enumerate()
            .find(|(_, e)| e.seq == seq)
            .map(|(idx, e)| (idx, e.token));
        let (idx, token) = found?;
        if let Some(token) = token {
            if !self.token_alive(token) {
                return None;
            }
        }
        let e = self.ready.remove_asc(idx);
        if let Some(token) = e.token {
            self.free_token(token);
            self.live_timers -= 1;
            self.metrics.incr(keys::NET_TIMER_WHEEL_OPS);
        } else {
            self.live_events -= 1;
        }
        self.now = self.now.max(e.at);
        self.metrics.incr(keys::SIM_EVENTS);
        Some((self.now, e.payload))
    }

    /// Discard every queued event (used when tearing down a scenario early).
    pub fn clear(&mut self) {
        self.wheel.clear();
        self.ready.clear();
        for slot in &mut self.timer_slots {
            slot.alive = false;
        }
        self.live_timers = 0;
        self.live_events = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn pending_and_clear() {
        let mut e = Engine::new(1);
        e.schedule(SimDuration(1), Ev::A(1));
        e.schedule(SimDuration(2), Ev::A(2));
        assert_eq!(e.pending(), 2);
        e.clear();
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

    #[test]
    fn timers_interleave_with_heap_events_in_exact_order() {
        // Same schedule issued twice: once all plain events, once with
        // every other event as a cancellable timer. Pop sequences must be
        // identical.
        let times = [30u64, 10, 10, 500, 70_000, 10, 200_000, 65, 64 * 1024];
        let mut heap_only = Engine::new(1);
        for (i, &t) in times.iter().enumerate() {
            heap_only.schedule(SimDuration(t), Ev::A(i as u32));
        }
        let expected = drain(&mut heap_only);

        let mut mixed = Engine::new(1);
        for (i, &t) in times.iter().enumerate() {
            if i % 2 == 0 {
                mixed.schedule_timer(SimDuration(t), Ev::A(i as u32));
            } else {
                mixed.schedule(SimDuration(t), Ev::A(i as u32));
            }
        }
        assert_eq!(drain(&mut mixed), expected);
    }

    #[test]
    fn same_instant_fifo_holds_across_heap_and_wheel() {
        let mut e = Engine::new(1);
        for i in 0..100 {
            if i % 3 == 0 {
                e.schedule_timer(SimDuration(5), Ev::A(i));
            } else {
                e.schedule(SimDuration(5), Ev::A(i));
            }
        }
        let order: Vec<u32> = drain(&mut e).iter().map(|(_, Ev::A(i))| *i).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancelled_timer_never_fires() {
        let mut e = Engine::new(1);
        let keep = e.schedule_timer(SimDuration(10), Ev::A(1));
        let kill = e.schedule_timer(SimDuration(5), Ev::A(2));
        assert_eq!(e.pending(), 2);
        assert!(e.cancel_timer(kill));
        assert!(!e.cancel_timer(kill), "double cancel must fail");
        assert_eq!(e.pending(), 1);
        let seen = drain(&mut e);
        assert_eq!(seen, vec![(SimTime(10), Ev::A(1))]);
        assert!(!e.cancel_timer(keep), "fired timer's token is stale");
    }

    #[test]
    fn long_horizon_timers_cascade_correctly() {
        let mut e = Engine::new(1);
        // Spread across wheel levels: sub-tick, level 0..3, and overflow
        // (beyond 64^4 ticks ≈ 4.77 simulated hours).
        let delays = [
            100u64,            // below one tick
            50_000,            // level 0
            3_000_000,         // level 1 (~3 s)
            150_000_000,       // level 2 (~2.5 min)
            10_000_000_000,    // level 3 (~2.8 h)
            3_000_000_000_000, // overflow (~83 h)
        ];
        for (i, &d) in delays.iter().enumerate() {
            e.schedule_timer(SimDuration(d), Ev::A(i as u32));
        }
        let seen = drain(&mut e);
        let order: Vec<u32> = seen.iter().map(|(_, Ev::A(i))| *i).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5]);
        let ats: Vec<u64> = seen.iter().map(|(t, _)| t.0).collect();
        assert_eq!(ats, delays.to_vec(), "timers fire at their exact instants");
    }

    #[test]
    fn plain_events_cascade_and_jump_like_timers() {
        // Plain events ride the wheel too now: exercise every level and
        // the far-event calendar without any token involved.
        let mut e = Engine::new(1);
        let delays = [
            100u64,
            50_000,
            3_000_000,
            150_000_000,
            10_000_000_000,
            3_000_000_000_000,
        ];
        for (i, &d) in delays.iter().enumerate() {
            e.schedule(SimDuration(d), Ev::A(i as u32));
        }
        let seen = drain(&mut e);
        let ats: Vec<u64> = seen.iter().map(|(t, _)| t.0).collect();
        assert_eq!(ats, delays.to_vec());
    }

    #[test]
    fn pop_until_covers_wheel_timers() {
        let mut e = Engine::new(1);
        e.schedule_timer(SimDuration(10), Ev::A(1));
        e.schedule(SimDuration(100), Ev::A(2));
        e.schedule_timer(SimDuration(200), Ev::A(3));
        assert_eq!(e.pop_until(SimTime(50)), Some((SimTime(10), Ev::A(1))));
        assert!(e.pop_until(SimTime(50)).is_none());
        assert_eq!(e.now(), SimTime(50));
        assert_eq!(e.pop_until(SimTime(150)), Some((SimTime(100), Ev::A(2))));
        assert_eq!(e.pop_until(SimTime(300)), Some((SimTime(200), Ev::A(3))));
        assert!(e.pop_until(SimTime(300)).is_none());
    }

    #[test]
    fn peek_time_sees_wheel_timers() {
        let mut e = Engine::new(1);
        e.schedule(SimDuration(9), Ev::A(1));
        e.schedule_timer(SimDuration(3), Ev::A(2));
        assert_eq!(e.peek_time(), Some(SimTime(3)));
        e.pop();
        assert_eq!(e.peek_time(), Some(SimTime(9)));
        drain(&mut e);
        assert_eq!(e.peek_time(), None);
        e.schedule_timer(SimDuration(30_000_000), Ev::A(3));
        assert_eq!(e.peek_time(), Some(SimTime(9) + SimDuration(30_000_000)));
    }

    #[test]
    fn wheel_ops_metric_counts_insert_cancel_fire() {
        let mut e = Engine::new(1);
        let t1 = e.schedule_timer(SimDuration(5), Ev::A(1));
        e.schedule_timer(SimDuration(6), Ev::A(2));
        e.cancel_timer(t1);
        drain(&mut e);
        // 2 inserts + 1 cancel + 1 fire.
        assert_eq!(e.metrics.counter(keys::NET_TIMER_WHEEL_OPS), 4);
    }

    #[test]
    fn clear_discards_wheel_timers_too() {
        let mut e = Engine::new(1);
        let t = e.schedule_timer(SimDuration(5), Ev::A(1));
        e.schedule(SimDuration(6), Ev::A(2));
        assert_eq!(e.pending(), 2);
        e.clear();
        assert_eq!(e.pending(), 0);
        assert!(e.pop().is_none());
        assert!(!e.cancel_timer(t), "cleared timer token is dead");
    }

    #[test]
    fn token_slab_reuse_keeps_tokens_distinct() {
        let mut e = Engine::new(1);
        let t1 = e.schedule_timer(SimDuration(1), Ev::A(1));
        drain(&mut e);
        let t2 = e.schedule_timer(SimDuration(1), Ev::A(2));
        assert_ne!(t1, t2, "generation must differ on slab reuse");
        assert!(!e.cancel_timer(t1));
        assert!(e.cancel_timer(t2));
    }

    #[test]
    fn pool_reuse_counts_slab_hits() {
        let mut e = Engine::new(1);
        e.schedule_timer(SimDuration(1), Ev::A(1));
        drain(&mut e);
        assert_eq!(e.pool_reuse(), 0, "first slot is a fresh allocation");
        e.schedule_timer(SimDuration(1), Ev::A(2));
        drain(&mut e);
        assert!(e.pool_reuse() >= 1, "second timer reuses the freed slot");
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
    fn mc_pending_lists_heap_and_timer_events_in_order() {
        let mut e = Engine::new(1);
        e.schedule(SimDuration(30), Ev::A(2));
        e.schedule_timer(SimDuration(10), Ev::A(0));
        e.enable_mc();
        e.schedule_timer(SimDuration(20), Ev::A(1));
        let listed: Vec<u32> = e.mc_pending().iter().map(|&(_, _, Ev::A(i))| *i).collect();
        assert_eq!(listed, vec![0, 1, 2]);
    }

    #[test]
    fn mc_take_out_of_order_advances_clock_monotonically() {
        let mut e = Engine::new(1);
        e.enable_mc();
        e.schedule(SimDuration(10), Ev::A(0));
        e.schedule_timer(SimDuration(50), Ev::A(1));
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

    #[test]
    fn mc_take_skips_cancelled_timers_and_frees_tokens() {
        let mut e = Engine::new(1);
        e.enable_mc();
        let kill = e.schedule_timer(SimDuration(5), Ev::A(0));
        e.schedule_timer(SimDuration(6), Ev::A(1));
        assert!(e.cancel_timer(kill));
        let pend = e.mc_pending();
        assert_eq!(pend.len(), 1, "cancelled timer invisible");
        assert_eq!(e.mc_take(pend[0].1), Some((SimTime(6), Ev::A(1))));
        assert_eq!(e.pending(), 0);
    }

    #[test]
    fn enable_mc_migrates_wheel_timers() {
        let mut e = Engine::new(1);
        e.schedule_timer(SimDuration(50_000), Ev::A(0));
        e.schedule_timer(SimDuration(3_000_000), Ev::A(1));
        e.enable_mc();
        assert_eq!(e.mc_pending().len(), 2);
        // Canonical pop order is still intact after migration.
        let seen = drain(&mut e);
        let order: Vec<u32> = seen.iter().map(|(_, Ev::A(i))| *i).collect();
        assert_eq!(order, vec![0, 1]);
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
