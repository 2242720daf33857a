//! No-alloc regression guard for the engine's steady-state loop.
//!
//! The PR 8 kernel pass made the schedule/pop cycle reuse pooled storage
//! (wheel slot buffers, the ready buffer, the timer-token slab) instead of
//! allocating per event. This test installs the vendored `alloc-probe`
//! counting allocator and asserts the warm loop performs zero heap
//! allocations.

use alloc_probe::CountingAllocator;
use fragdb_sim::{Engine, SimDuration};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Pop one event and reschedule it a fixed delay out, alternating plain
/// events and cancellable timers — the shape of a steady simulation loop.
fn spin(engine: &mut Engine<u32>, iterations: usize) {
    for i in 0..iterations {
        let (_, ev) = engine.pop().expect("population is constant");
        if i % 2 == 0 {
            engine.schedule(SimDuration(2048), ev);
        } else {
            engine.schedule_timer(SimDuration(3 * 1024), ev);
        }
    }
}

#[test]
fn steady_state_sim_loop_is_allocation_free() {
    assert!(
        std::hint::black_box(Box::new(1u8)).as_ref() == &1u8,
        "touch the heap so the probe registers as installed"
    );
    assert!(alloc_probe::is_installed());

    let mut engine: Engine<u32> = Engine::new(7);
    for i in 0..64u64 {
        engine.schedule(SimDuration(1024 + i), i as u32);
    }
    // Warm-up: rotate through every level-0 slot a few times (a full
    // rotation is 64 ticks; 2000 pops at ~2-3 ticks per reschedule cover
    // dozens of rotations) so slot vectors, the ready buffer, the token
    // slab, and the metric counters all reach steady capacity.
    spin(&mut engine, 2000);

    let (allocs, _) = alloc_probe::count_allocs(|| spin(&mut engine, 1000));
    assert_eq!(
        allocs, 0,
        "steady-state schedule/pop loop must not allocate (got {allocs} allocations)"
    );
    assert!(
        engine.pool_reuse() > 0,
        "pooled storage should have been reused during the run"
    );
}
