//! Allocation guard for the install path at width.
//!
//! Under §3.2 every commit becomes a quasi-transaction that installs at
//! every other replica, so a run's allocations are dominated by what one
//! delivered `Quasi` costs. This test installs the vendored `alloc-probe`
//! counting allocator, runs a 64-node full mesh fault-free under §4.3's
//! unrestricted strategy and, once the system is warm, counts the
//! allocations of every `step_until` call. A step that delivers a `Quasi`
//! may allocate once — the notification `Vec` it returns — and a step that
//! returns nothing (an ack arriving at the home, a stale retransmission
//! timer) may not allocate at all.

use alloc_probe::CountingAllocator;
use fragdb_core::{Notification, Submission, System, SystemConfig};
use fragdb_model::{AgentId, FragmentCatalog, NodeId};
use fragdb_net::Topology;
use fragdb_sim::{SimDuration, SimTime};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

const NODES: u32 = 64;
const HOME: NodeId = NodeId(0);

/// When commit `i` is submitted: far enough apart that each commit's
/// installs and acks are done before the next.
fn submitted_at(i: u64) -> SimTime {
    SimTime::from_secs(1) + SimDuration::from_millis(30 * i)
}

#[test]
fn a_delivered_quasi_allocates_at_most_once_when_warm() {
    assert!(
        std::hint::black_box(Box::new(1u8)).as_ref() == &1u8,
        "touch the heap so the probe registers as installed"
    );
    assert!(alloc_probe::is_installed());

    let mut b = FragmentCatalog::builder();
    let (f, objects) = b.add_fragment("F0", 8);
    let mut sys = System::build(
        Topology::full_mesh(NODES, SimDuration::from_millis(10)),
        b.build(),
        vec![(f, AgentId::Node(HOME), HOME)],
        SystemConfig::unrestricted(42),
    )
    .expect("builds");
    // Each commit appends one entry to every WAL and 64 operations to the
    // history. Warm-up is commits 0..=32, the measured window 33..=62: the
    // WALs stay between 33 and 63 entries and the history between 2 112
    // and 4 032 operations, so no log doubles its buffer inside the window.
    let (warm, last) = (33u64, 62u64);
    for i in 0..=last {
        let object = objects[(i % 8) as usize];
        let program = Box::new(move |ctx: &mut fragdb_core::TxnCtx<'_>| {
            ctx.write(object, i as i64)?;
            Ok(())
        });
        sys.submit_at(submitted_at(i), Submission::update(f, program));
    }
    sys.run_until(SimTime(submitted_at(warm).0 - 1));

    let limit = submitted_at(last) + SimDuration::from_millis(29);
    let (mut quasi_steps, mut silent_steps) = (0u64, 0u64);
    loop {
        let (allocs, step) = alloc_probe::count_allocs(|| sys.step_until(limit));
        let Some((at, notes)) = step else { break };
        let remote_installs = notes
            .iter()
            .filter(|n| matches!(n, Notification::Installed { node, .. } if *node != HOME))
            .count();
        if remote_installs > 0 {
            assert_eq!(remote_installs, 1, "one install per delivery at {at:?}");
            assert!(
                allocs <= 1,
                "a Quasi delivery at {at:?} allocated {allocs} times"
            );
            quasi_steps += 1;
        } else if notes.is_empty() {
            assert_eq!(
                allocs, 0,
                "a silent step at {at:?} allocated {allocs} times"
            );
            silent_steps += 1;
        }
    }
    let commits = last - warm + 1;
    assert_eq!(quasi_steps, commits * u64::from(NODES - 1));
    assert!(silent_steps >= quasi_steps, "every delivery is acked");
}
