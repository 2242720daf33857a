//! No-alloc regression guard for the engine's steady-state loop.
//!
//! The engine's queue is a `Vec`-backed `BinaryHeap` beside a few
//! `VecDeque` runs of in-order schedules: once each buffer has grown to its
//! peak population, the schedule/pop cycle reuses it instead of allocating
//! per event. This test installs the vendored `alloc-probe` counting
//! allocator and asserts the warm loop performs zero heap allocations, at a
//! small population and at the pending depth the 1024-node benchmark
//! shapes actually hold, and with far-future events parked in every run
//! while the loop runs on the heap. It also asserts that recording probe events and
//! fixed-key histograms into `Metrics`, once warm, allocates nothing:
//! histograms are addressed by typed keys, so no write builds a name.

use alloc_probe::CountingAllocator;
use fragdb_sim::metrics::keys::slot;
use fragdb_sim::{CausalId, Engine, Metrics, SimDuration, SimTime, Telemetry, TelemetryEvent};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Pop one event and reschedule it, alternating two delays — the shape of a
/// steady simulation loop.
fn spin(engine: &mut Engine<u32>, iterations: usize) {
    for i in 0..iterations {
        let (_, ev) = engine.pop().expect("population is constant");
        let delay = if i % 2 == 0 { 2048 } else { 3 * 1024 };
        engine.schedule(SimDuration(delay), ev);
    }
}

/// Warm `engine` up with `warmup` spins, then assert that 1 000 more
/// allocate nothing and leave `pending` events queued.
fn assert_warm_loop_is_allocation_free(engine: &mut Engine<u32>, warmup: usize, pending: usize) {
    spin(engine, warmup);
    let (allocs, _) = alloc_probe::count_allocs(|| spin(engine, 1000));
    assert_eq!(
        allocs, 0,
        "steady-state schedule/pop loop must not allocate at {pending} pending \
         (got {allocs} allocations)"
    );
    assert_eq!(engine.pending(), pending);
    assert!(
        engine.pool_reuse() > 0,
        "the queue's buffers should have been reused at {pending} pending"
    );
}

#[test]
fn steady_state_sim_loop_is_allocation_free() {
    assert!(
        std::hint::black_box(Box::new(1u8)).as_ref() == &1u8,
        "touch the heap so the probe registers as installed"
    );
    assert!(alloc_probe::is_installed());

    for population in [64usize, 20_000] {
        let mut engine: Engine<u32> = Engine::new(7);
        for i in 0..population {
            engine.schedule(SimDuration(1024 + i as u64), i as u32);
        }
        // The population was scheduled in order, so it starts in the run
        // and moves to the heap as the spins reschedule it out of order.
        // Warm-up is one full turnover plus 2 000 spins: the heap reaches
        // its steady capacity only once every original event has been
        // popped, and the metric counters settle.
        assert_warm_loop_is_allocation_free(&mut engine, population + 2000, population);
    }
    far_future_events_parked_in_every_run_cost_the_heap_loop_nothing();
    warm_metric_writes_allocate_nothing();
}

/// A second case in the same test: the probe's counter is process-wide,
/// so a concurrently running test would count into it.
fn far_future_events_parked_in_every_run_cost_the_heap_loop_nothing() {
    let (rounds, width, population) = (125usize, 8usize, 64usize);
    let parked = rounds * width;
    let mut engine: Engine<u32> = Engine::new(7);
    // Far beyond anything the loop reaches, in rounds of `width` instants
    // scheduled latest first: the first round starts every run (more runs
    // than the engine keeps, so the rest of it goes to the heap), and each
    // later round, later than the whole previous one, extends every run by
    // one. Every later schedule is earlier than each run's last entry, so
    // the loop's population lives in the heap and each pop compares it
    // with every run's parked front.
    let far = SimTime::from_secs(1_000_000);
    for round in 0..rounds {
        for i in (0..width).rev() {
            let at = far + SimDuration((round * width + i) as u64);
            engine.schedule_at(at, (round * width + i) as u32);
        }
    }
    for i in 0..population {
        engine.schedule(SimDuration(1024 + i as u64), i as u32);
    }
    assert_warm_loop_is_allocation_free(&mut engine, 2000, parked + population);
    assert!(
        engine.now() < far,
        "the loop never reached the parked events"
    );
    assert_eq!(engine.peek_time().map(|at| at < far), Some(true));
}

/// Record `n` probe events (a read and a hold-back at each of four nodes,
/// in turn) and as many fixed-key observations. The values are constant,
/// so no sketch grows past its warm-up size.
fn probe_and_observe(telemetry: &mut Telemetry, metrics: &mut Metrics, n: u64) {
    let cause = CausalId {
        fragment: 1,
        epoch: 0,
        frag_seq: 0,
    };
    for i in 0..n {
        let node = (i % 4) as u32;
        let event = if i % 2 == 0 {
            TelemetryEvent::ReadObserved {
                node,
                fragment: 1,
                seen_seq: 3,
                agent_seq: 5,
            }
        } else {
            TelemetryEvent::HeldBack {
                cause,
                node,
                depth: 2,
            }
        };
        telemetry.record(SimTime(i), event, metrics);
        metrics.observe(slot::LATENCY_COMMIT, 700);
    }
}

/// A third case in the same test: the warm probe and histogram write path.
fn warm_metric_writes_allocate_nothing() {
    let mut telemetry = Telemetry::bounded(64);
    let mut metrics = Metrics::new();
    // Fills the ring and creates every histogram the loop writes.
    probe_and_observe(&mut telemetry, &mut metrics, 200);
    let (allocs, _) =
        alloc_probe::count_allocs(|| probe_and_observe(&mut telemetry, &mut metrics, 1000));
    assert_eq!(allocs, 0, "warm metric writes allocated {allocs} times");
    let count = |name: &str| metrics.histogram(name).map(|h| h.count());
    assert_eq!(count("node.3.holdback"), Some(300));
    assert_eq!(count("node.2.staleness"), Some(300));
    assert_eq!(count("latency.commit"), Some(1200));
}
