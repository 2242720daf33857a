//! Allocation regression guards for the storage hot paths.
//!
//! `Store::digest_all` must not allocate: an earlier implementation
//! materialized a `Vec<ObjectId>` of every key on each call; the dense
//! layout walks its index directly. The retained [`BTreeStore`] oracle
//! still allocates, which doubles as a self-test of the probe.
//!
//! `Wal::append` must cost amortized O(1) allocations: the log is a list
//! of segments of 64, 64, 128, 256, … entries with no index beside it, so
//! an append allocates only when a segment fills. The 4 096 appends below
//! make 9 allocations (seven segments and two growths of the segment
//! list) against a bound of 64; a per-entry index node would cost at
//! least one allocation each.
//!
//! The probe's counter is process-global, so the tests take `SERIAL`
//! rather than count each other's allocations.

use std::sync::Mutex;

use alloc_probe::CountingAllocator;
use fragdb_model::{FragmentId, NodeId, ObjectId, TxnId, Value};
use fragdb_sim::SimTime;
use fragdb_storage::{BTreeStore, Store, Wal, WalEntry};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

static SERIAL: Mutex<()> = Mutex::new(());

fn probe_installed() -> bool {
    std::hint::black_box(Box::new(1u8)).as_ref() == &1u8 && alloc_probe::is_installed()
}

#[test]
fn digest_all_performs_no_heap_allocation() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    assert!(probe_installed(), "the probe must serve this binary's heap");

    let mut dense = Store::new();
    let mut oracle = BTreeStore::new();
    let writer = TxnId::new(NodeId(0), 0);
    for i in 0..512u64 {
        dense.put(ObjectId(i), Value::Int(i as i64 * 3), writer, SimTime(i));
        oracle.put(ObjectId(i), Value::Int(i as i64 * 3), writer, SimTime(i));
    }

    let (dense_allocs, dense_digest) = alloc_probe::count_allocs(|| dense.digest_all());
    assert_eq!(
        dense_allocs, 0,
        "digest_all must not allocate (got {dense_allocs} allocations)"
    );

    let (oracle_allocs, oracle_digest) = alloc_probe::count_allocs(|| oracle.digest_all());
    assert!(
        oracle_allocs >= 1,
        "the oracle's key-list allocation should be visible to the probe"
    );
    assert_eq!(dense_digest, oracle_digest, "layouts must agree on digests");
}

#[test]
fn wal_appends_allocate_amortized_constant() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    assert!(probe_installed(), "the probe must serve this binary's heap");

    // Built outside the counted scope: only the appends are measured.
    let entries: Vec<WalEntry> = (0..4096u64)
        .map(|i| WalEntry {
            txn: TxnId::new(NodeId(0), i),
            fragment: FragmentId((i % 4) as u32),
            frag_seq: i / 4,
            epoch: 0,
            updates: vec![(ObjectId(i % 64), Value::Int(i as i64))].into(),
            installed_at: SimTime(i),
        })
        .collect();
    let mut wal = Wal::new();
    let (allocs, ()) = alloc_probe::count_allocs(|| {
        for e in entries {
            wal.append(e);
        }
    });
    assert_eq!(wal.len(), 4096);
    assert!(
        allocs <= 64,
        "4096 appends over 4 fragments made {allocs} allocations (at most 64)"
    );
}
