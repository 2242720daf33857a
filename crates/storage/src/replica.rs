//! The per-node replica facade: store + WAL, with the operations the
//! fragments-and-agents engine performs.

use fragdb_model::{FragmentId, NodeId, ObjectId, QuasiTransaction, TxnId, Updates, Value};
use fragdb_sim::SimTime;

use crate::store::Store;
use crate::wal::{Wal, WalEntry};

/// One node's complete database copy plus its installation log.
#[derive(Clone, Debug)]
pub struct Replica {
    /// The node this replica lives at.
    pub node: NodeId,
    store: Store,
    wal: Wal,
}

impl Replica {
    /// Fresh, empty replica for `node`.
    pub fn new(node: NodeId) -> Self {
        Replica {
            node,
            store: Store::new(),
            wal: Wal::new(),
        }
    }

    /// Read an object's current local value.
    pub fn read(&self, object: ObjectId) -> &Value {
        self.store.get(object)
    }

    /// Direct store access (read-only) for checkers and reports.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Installation log (read-only).
    pub fn wal(&self) -> &Wal {
        &self.wal
    }

    /// Install a committed local transaction's writes: values hit the store
    /// and the WAL records the installation. This is the home-node half of
    /// §3.2; the same updates then travel to other replicas as a
    /// quasi-transaction.
    pub fn commit_local(
        &mut self,
        txn: TxnId,
        fragment: FragmentId,
        frag_seq: u64,
        epoch: u64,
        updates: Updates,
        at: SimTime,
    ) {
        for (o, v) in &updates {
            self.store.put(*o, v.clone(), txn, at);
        }
        self.wal.append(WalEntry {
            txn,
            fragment,
            frag_seq,
            epoch,
            updates,
            installed_at: at,
        });
    }

    /// Install a remote quasi-transaction: "a series of unconditional
    /// updates … reflecting the desired effects" (§3.2). Within the
    /// discrete-event simulation one install call is atomic, which realizes
    /// the paper's requirement that no reader ever sees a partial
    /// quasi-transaction (Property 2 of §4.3). The store and the WAL record
    /// it exactly as its home's [`Replica::commit_local`] did; a
    /// group-commit batch is installed one element at a time, in order.
    pub fn install_quasi(&mut self, q: &QuasiTransaction, at: SimTime) {
        self.commit_local(
            q.txn,
            q.fragment,
            q.frag_seq,
            q.epoch,
            q.updates.clone(),
            at,
        );
    }

    /// Highest fragment sequence number installed here for `fragment`.
    pub fn last_frag_seq(&self, fragment: FragmentId) -> Option<u64> {
        self.wal.last_frag_seq(fragment)
    }

    /// Snapshot the given objects (a fragment copy for §4.4.2A's
    /// move-with-data).
    pub fn snapshot(&self, objects: &[ObjectId]) -> Vec<(ObjectId, Value)> {
        self.store.snapshot(objects)
    }

    /// Overwrite the given objects from a transported snapshot
    /// (§4.4.2A: "store it in place of the copy of the fragment at site Y").
    pub fn restore(&mut self, snapshot: &[(ObjectId, Value)], writer: TxnId, at: SimTime) {
        self.store.restore(snapshot, writer, at);
    }

    /// Content digest over `objects` — used for mutual-consistency checks.
    pub fn digest(&self, objects: &[ObjectId]) -> u64 {
        self.store.digest(objects)
    }

    /// The node crashed: the in-memory store (volatile) is wiped; the WAL
    /// (durable) survives. [`Replica::recover`] rebuilds the store from it.
    pub fn crash(&mut self) {
        self.store = Store::new();
    }

    /// Crash recovery: replay the durable WAL in log order to rebuild the
    /// store. Entries are re-applied, not re-appended; `installed_at`
    /// provenance reflects the (local) recovery time. The log is borrowed
    /// in place (disjoint fields), never copied.
    pub fn recover(&mut self, at: SimTime) {
        for e in self.wal.entries() {
            for (o, v) in &e.updates {
                self.store.put(*o, v.clone(), e.txn, at);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u32, s: u64) -> TxnId {
        TxnId::new(NodeId(n), s)
    }

    fn o(i: u64) -> ObjectId {
        ObjectId(i)
    }

    fn quasi(txn: TxnId, frag_seq: u64, updates: Vec<(ObjectId, Value)>) -> QuasiTransaction {
        QuasiTransaction {
            txn,
            fragment: FragmentId(0),
            frag_seq,
            epoch: 0,
            updates: updates.into(),
        }
    }

    #[test]
    fn commit_local_writes_store_and_wal() {
        let mut r = Replica::new(NodeId(0));
        r.commit_local(
            t(0, 0),
            FragmentId(0),
            0,
            0,
            vec![(o(1), Value::Int(100))].into(),
            SimTime(5),
        );
        assert_eq!(r.read(o(1)), &Value::Int(100));
        assert_eq!(r.wal().len(), 1);
        assert_eq!(r.last_frag_seq(FragmentId(0)), Some(0));
    }

    #[test]
    fn install_quasi_mirrors_origin() {
        let mut origin = Replica::new(NodeId(0));
        let mut remote = Replica::new(NodeId(1));
        let updates = vec![(o(0), Value::Int(1)), (o(1), Value::Int(2))];
        origin.commit_local(
            t(0, 0),
            FragmentId(0),
            0,
            0,
            updates.clone().into(),
            SimTime(1),
        );
        remote.install_quasi(&quasi(t(0, 0), 0, updates), SimTime(9));
        let objs = [o(0), o(1)];
        assert_eq!(origin.digest(&objs), remote.digest(&objs));
        assert_eq!(remote.wal().len(), 1);
        assert_eq!(
            remote.store().version(o(0)).unwrap().installed_at,
            SimTime(9),
            "install time is local to the node"
        );
    }

    #[test]
    fn commit_local_records_repackaged_subsets_too() {
        // §4.4.3 step A.2 repackaging commits the surviving subset through
        // commit_local, under a fresh epoch and sequence number.
        let mut r = Replica::new(NodeId(1));
        r.commit_local(
            t(1, 3),
            FragmentId(0),
            3,
            1,
            vec![(o(5), Value::Int(50))].into(),
            SimTime(2),
        );
        assert_eq!(r.read(o(5)), &Value::Int(50));
        let entry = r.wal().entries().next().unwrap();
        assert_eq!(entry.updates.len(), 1);
        assert_eq!(entry.epoch, 1);
    }

    #[test]
    fn snapshot_restore_transfers_fragment_state() {
        let mut x = Replica::new(NodeId(0));
        let mut y = Replica::new(NodeId(1));
        x.commit_local(
            t(0, 0),
            FragmentId(0),
            0,
            0,
            vec![(o(0), Value::Int(10)), (o(1), Value::Int(20))].into(),
            SimTime(1),
        );
        // Y has stale state for o(0).
        y.install_quasi(&quasi(t(0, 9), 9, vec![(o(0), Value::Int(-1))]), SimTime(1));
        let objs = [o(0), o(1)];
        let snap = x.snapshot(&objs);
        y.restore(&snap, t(0, 0), SimTime(2));
        assert_eq!(x.digest(&objs), y.digest(&objs));
    }

    #[test]
    fn crash_wipes_store_and_recover_replays_wal() {
        let mut r = Replica::new(NodeId(0));
        r.commit_local(
            t(0, 0),
            FragmentId(0),
            0,
            0,
            vec![(o(1), Value::Int(7))].into(),
            SimTime(1),
        );
        r.install_quasi(&quasi(t(1, 0), 1, vec![(o(1), Value::Int(8))]), SimTime(2));
        let before = r.digest(&[o(1)]);
        r.crash();
        assert!(r.read(o(1)).is_null(), "volatile store must be gone");
        assert_eq!(r.wal().len(), 2, "WAL is durable");
        r.recover(SimTime(10));
        assert_eq!(r.digest(&[o(1)]), before, "replay must rebuild the store");
        assert_eq!(r.wal().len(), 2, "replay must not re-append");
        assert_eq!(
            r.store().version(o(1)).unwrap().installed_at,
            SimTime(10),
            "provenance reflects recovery time"
        );
    }

    #[test]
    fn unwritten_reads_are_null() {
        let r = Replica::new(NodeId(2));
        assert!(r.read(o(42)).is_null());
        assert_eq!(r.last_frag_seq(FragmentId(0)), None);
    }
}
