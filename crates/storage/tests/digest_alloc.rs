//! No-alloc regression guard for `Store::digest_all`.
//!
//! The pre-PR 8 implementation materialized a `Vec<ObjectId>` of every key
//! on each call; the dense layout walks its index directly. The retained
//! [`BTreeStore`] oracle still allocates, which doubles as a self-test of
//! the probe.

use alloc_probe::CountingAllocator;
use fragdb_model::{NodeId, ObjectId, TxnId, Value};
use fragdb_sim::SimTime;
use fragdb_storage::{BTreeStore, Store};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

#[test]
fn digest_all_performs_no_heap_allocation() {
    assert!(
        std::hint::black_box(Box::new(1u8)).as_ref() == &1u8,
        "touch the heap so the probe registers as installed"
    );
    assert!(alloc_probe::is_installed());

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
