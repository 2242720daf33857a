//! Allocation guard for the commit and install paths.
//!
//! Under §3.2 every commit becomes a quasi-transaction that installs at
//! every other replica, so a run's allocations are dominated by what one
//! submission and one delivered quasi cost. This test installs the
//! vendored `alloc-probe` counting allocator and, once a system is warm,
//! counts the allocations of every `step_until` call:
//!
//! * on a 64-node full mesh under §4.3's unrestricted strategy, a step
//!   that commits a submitted update allocates at most twice (the payload
//!   and the notification `Vec` the step returns), a read-only step and a
//!   step that delivers a `Quasi` at most once (the returned `Vec`), and a
//!   step that returns nothing (an ack arriving at the home, a stale
//!   retransmission timer) not at all;
//! * on a 3-replica fragment with group commit in windows of 4, a step
//!   that flushes a batch on its linger timer allocates at most once (the
//!   batch all recipients share), and a step that delivers a `Batch`
//!   at most once (the returned `Vec`) whatever its length.
//!
//! Both scenarios run in one test: the probe's counter is process-wide.

use alloc_probe::CountingAllocator;
use fragdb_core::{BatchConfig, Notification, Submission, System, SystemConfig, TxnCtx};
use fragdb_model::{AgentId, FragmentCatalog, FragmentId, NodeId, ObjectId};
use fragdb_net::Topology;
use fragdb_sim::{SimDuration, SimTime};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

const HOME: NodeId = NodeId(0);
const F0: FragmentId = FragmentId(0);

/// A fully replicated fragment of 8 objects homed at node 0 of an
/// `n`-node full mesh.
fn system(n: u32, config: SystemConfig) -> (System, Vec<ObjectId>) {
    let mut b = FragmentCatalog::builder();
    let (_, objects) = b.add_fragment("F0", 8);
    let sys = System::build(
        Topology::full_mesh(n, SimDuration::from_millis(10)),
        b.build(),
        vec![(F0, AgentId::Node(HOME), HOME)],
        config,
    )
    .expect("builds");
    (sys, objects)
}

/// An update that reads one object and writes another.
fn update(objects: &[ObjectId], i: u64) -> Submission {
    let (read, write) = (objects[(i as usize + 1) % 8], objects[i as usize % 8]);
    let program = Box::new(move |ctx: &mut TxnCtx<'_>| {
        let v = ctx.read_int(read, 0);
        ctx.write(write, v + i as i64)?;
        Ok(())
    });
    Submission::update(F0, program)
}

#[test]
fn warm_steps_allocate_within_their_bounds() {
    assert!(
        std::hint::black_box(Box::new(1u8)).as_ref() == &1u8,
        "touch the heap so the probe registers as installed"
    );
    assert!(alloc_probe::is_installed());
    full_mesh_commits_and_reads();
    batched_commits_on_three_replicas();
}

/// When commit `i` is submitted: far enough apart that each commit's
/// installs and acks are done before the next.
fn submitted_at(i: u64) -> SimTime {
    SimTime::from_secs(1) + SimDuration::from_millis(30 * i)
}

fn full_mesh_commits_and_reads() {
    const NODES: u32 = 64;
    let (mut sys, objects) = system(NODES, SystemConfig::unrestricted(42));
    // Each commit appends one entry to every WAL and 65 operations to the
    // history (a read and a write at the home, 63 installs; about 530
    // packed bytes), and each read-only transaction one read. Warm-up is
    // commits 0..=138, the measured window 139..=247: the WALs stay
    // between 139 and 248 entries (a segment of 128 holds them) and the
    // history between 9 176 and 16 370 operations, 65.8 kB to 123.9 kB,
    // so no log doubles its buffer inside the window (the history's bytes
    // pass 64 KiB in commit 138's installs), and the engine's event runs
    // have grown to the length they keep.
    let (warm, last) = (139u64, 247u64);
    for i in 0..=last {
        sys.submit_at(submitted_at(i), update(&objects, i));
        let peek = objects[i as usize % 8];
        let read = Submission::read_only(
            F0,
            Box::new(move |ctx| {
                ctx.read(peek);
                Ok(())
            }),
        );
        let reader = NodeId(1 + (i % u64::from(NODES - 1)) as u32);
        sys.submit_at(
            submitted_at(i) + SimDuration::from_millis(20),
            read.at(reader),
        );
    }
    sys.run_until(SimTime(submitted_at(warm).0 - 1));

    let limit = submitted_at(last) + SimDuration::from_millis(29);
    let (mut commits, mut reads, mut quasis, mut silent) = (0u64, 0u64, 0u64, 0u64);
    loop {
        let (allocs, step) = alloc_probe::count_allocs(|| sys.step_until(limit));
        let Some((at, notes)) = step else { break };
        let remote_installs = (notes.iter())
            .filter(|n| matches!(n, Notification::Installed { node, .. } if *node != HOME))
            .count();
        match notes.first() {
            Some(Notification::Committed { .. }) => {
                assert_eq!(notes.len(), 1, "one commit per submission at {at:?}");
                assert!(
                    allocs <= 2,
                    "a submission at {at:?} allocated {allocs} times"
                );
                commits += 1;
            }
            Some(Notification::ReadFinished { .. }) => {
                assert!(allocs <= 1, "a read at {at:?} allocated {allocs} times");
                reads += 1;
            }
            Some(_) => {
                assert_eq!(remote_installs, 1, "one install per delivery at {at:?}");
                assert!(
                    allocs <= 1,
                    "a Quasi delivery at {at:?} allocated {allocs} times"
                );
                quasis += 1;
            }
            None => {
                assert_eq!(
                    allocs, 0,
                    "a silent step at {at:?} allocated {allocs} times"
                );
                silent += 1;
            }
        }
    }
    let window = last - warm + 1;
    assert_eq!((commits, reads), (window, window));
    assert_eq!(quasis, window * u64::from(NODES - 1));
    assert!(silent >= quasis, "every delivery is acked");
}

fn batched_commits_on_three_replicas() {
    let config = SystemConfig::unrestricted(42).with_batching(BatchConfig::window(4));
    let (mut sys, objects) = system(3, config);
    // Rounds of 1, 2, 3, 4 and 5 simultaneous commits: a linger timer
    // flushes the 1, the 2, the 3 and the 5's tail, a full window the 4
    // and the 5's head. A singleton travels as a plain `Quasi`. Each
    // commit appends one entry to every WAL and 4 operations to the
    // history (about 30 packed bytes). Warm-up is rounds 0..=24 (75
    // commits), the measured window rounds 25..=34 (30 more): the WALs
    // stay between 64 and 128 entries and the history between 2 KiB and
    // 4 KiB, so no log doubles its buffer inside it.
    let (warm, last) = (25u64, 34u64);
    let mut i = 0;
    for round in 0..=last {
        for _ in 0..round % 5 + 1 {
            sys.submit_at(submitted_at(round), update(&objects, i));
            i += 1;
        }
    }
    sys.run_until(SimTime(submitted_at(warm).0 - 1));

    let flushes = |sys: &System| {
        let sizes = sys.engine.metrics.histogram("net.batch.size");
        sizes.map_or(0, |h| h.count())
    };
    let (mut timer_flushes, mut batches) = (0u64, 0u64);
    loop {
        let before = flushes(&sys);
        let (allocs, step) = alloc_probe::count_allocs(|| sys.step_until(SimTime::MAX));
        let Some((at, notes)) = step else { break };
        let flushed = flushes(&sys) > before;
        let remote_installs = (notes.iter())
            .filter(|n| matches!(n, Notification::Installed { node, .. } if *node != HOME))
            .count();
        if notes.is_empty() && flushed {
            assert!(
                allocs <= 1,
                "a timer flush at {at:?} allocated {allocs} times"
            );
            timer_flushes += 1;
        } else if notes.is_empty() {
            assert_eq!(
                allocs, 0,
                "a silent step at {at:?} allocated {allocs} times"
            );
        } else if remote_installs > 1 {
            assert_eq!(remote_installs, notes.len());
            assert!(
                allocs <= 1,
                "a Batch delivery at {at:?} allocated {allocs} times"
            );
            batches += 1;
        }
    }
    // Ten rounds: the linger timer flushes every round but the 4's, and
    // each batch of two or more reaches both other replicas.
    assert_eq!(timer_flushes, 8);
    assert_eq!(batches, 2 * 8);
}
