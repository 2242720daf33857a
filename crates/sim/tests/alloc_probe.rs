//! No-alloc regression guard for the engine's steady-state loop.
//!
//! The engine's queue is one `Vec`-backed `BinaryHeap`: once its buffer has
//! grown to the run's peak population, the schedule/pop cycle reuses it
//! instead of allocating per event. This test installs the vendored
//! `alloc-probe` counting allocator and asserts the warm loop performs zero
//! heap allocations, at a small population and at the pending depth the
//! 1024-node benchmark shapes actually hold.

use alloc_probe::CountingAllocator;
use fragdb_sim::{Engine, SimDuration};

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

#[test]
fn steady_state_sim_loop_is_allocation_free() {
    assert!(
        std::hint::black_box(Box::new(1u8)).as_ref() == &1u8,
        "touch the heap so the probe registers as installed"
    );
    assert!(alloc_probe::is_installed());

    for population in [64u64, 20_000] {
        let mut engine: Engine<u32> = Engine::new(7);
        for i in 0..population {
            engine.schedule(SimDuration(1024 + i), i as u32);
        }
        // Warm-up: the queue's buffer is at capacity for the population
        // after the loop above; this also settles the metric counters.
        spin(&mut engine, 2000);

        let (allocs, _) = alloc_probe::count_allocs(|| spin(&mut engine, 1000));
        assert_eq!(
            allocs, 0,
            "steady-state schedule/pop loop must not allocate at {population} pending \
             (got {allocs} allocations)"
        );
        assert_eq!(engine.pending() as u64, population);
        assert!(
            engine.pool_reuse() > 0,
            "the queue's buffer should have been reused at {population} pending"
        );
    }
}
