//! Transaction programs.
//!
//! A transaction is domain logic: it reads objects, decides, and writes
//! objects of its initiator's fragment. Programs are closures over a
//! [`TxnCtx`], which
//!
//! * serves reads from the executing node's replica (or, under §4.1 read
//!   locks, from the *granted snapshot* fetched from the lock site, which
//!   is what makes that strategy truly serializable),
//! * buffers a record of every read — flushed into the run history only if
//!   the transaction commits, so aborted attempts leave no trace in the
//!   serialization graphs (reads are recorded *at the node the value came
//!   from*),
//! * buffers writes and enforces the **initiation requirement** (§3.2) —
//!   a write outside the initiator's fragment aborts the transaction, and
//! * supports read-your-own-writes within the transaction.
//!
//! The buffers are a [`TxnEffects`] the system lends to the context and
//! takes back, cleared, however the transaction ends, so running a
//! transaction allocates nothing of its own once the buffers have grown.

use std::collections::BTreeMap;
use std::fmt;

use fragdb_model::{FragmentCatalog, FragmentId, NodeId, ObjectId, TxnId, Value};
use fragdb_sim::SimTime;
use fragdb_storage::Replica;

/// Why a program aborted itself or was aborted by the context.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProgramError {
    /// Domain logic decided to abort (e.g. "insufficient funds" under a
    /// strict policy).
    Logic(String),
    /// The program wrote outside its fragment (initiation requirement).
    InitiationViolation(ObjectId),
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::Logic(m) => write!(f, "aborted by program: {m}"),
            ProgramError::InitiationViolation(o) => {
                write!(f, "initiation requirement violated on {o}")
            }
        }
    }
}

impl std::error::Error for ProgramError {}

/// An update (or read-only) transaction body.
pub type UpdateFn = Box<dyn FnOnce(&mut TxnCtx<'_>) -> Result<(), ProgramError>>;

/// The effects a program produced, to be applied by the system. They are
/// also the buffers the program runs in: the system lends one set to each
/// transaction and takes it back, cleared, however the transaction ends.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TxnEffects {
    /// `(site, object)` for every read performed, in program order. The
    /// site is the node the value came from (the local node, or the §4.1
    /// lock site).
    pub reads: Vec<(NodeId, ObjectId)>,
    /// Buffered writes, deduplicated last-write-wins, in first-write order.
    pub writes: Vec<(ObjectId, Value)>,
    /// The values read so far (see [`TxnCtx::reads`]).
    pub(crate) seen: Vec<(ObjectId, Value)>,
    /// §4.4.1: each node holding the staged quasi, the home first, once.
    pub(crate) acks: Vec<NodeId>,
}

impl TxnEffects {
    /// Empty every buffer, keeping its capacity.
    pub(crate) fn clear(&mut self) {
        self.reads.clear();
        self.writes.clear();
        self.seen.clear();
        self.acks.clear();
    }
}

/// Execution context handed to a transaction program.
pub struct TxnCtx<'a> {
    node: NodeId,
    txn: TxnId,
    fragment: FragmentId,
    now: SimTime,
    replica: &'a Replica,
    catalog: &'a FragmentCatalog,
    /// §4.1: values fetched with remote read locks, keyed by object, with
    /// the node they came from. Reads of these objects use the snapshot.
    granted: &'a BTreeMap<ObjectId, (NodeId, Value)>,
    effects: TxnEffects,
    read_only: bool,
}

impl<'a> TxnCtx<'a> {
    /// Create a context over `effects`, which must be empty (called by the
    /// system, not by applications).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        node: NodeId,
        txn: TxnId,
        fragment: FragmentId,
        now: SimTime,
        replica: &'a Replica,
        catalog: &'a FragmentCatalog,
        granted: &'a BTreeMap<ObjectId, (NodeId, Value)>,
        read_only: bool,
        effects: TxnEffects,
    ) -> Self {
        debug_assert_eq!(effects, TxnEffects::default());
        TxnCtx {
            node,
            txn,
            fragment,
            now,
            replica,
            catalog,
            granted,
            effects,
            read_only,
        }
    }

    /// This transaction's id.
    pub fn txn(&self) -> TxnId {
        self.txn
    }

    /// The node executing the transaction.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The initiating agent's fragment.
    pub fn fragment(&self) -> FragmentId {
        self.fragment
    }

    /// Read an object. Own buffered writes win; then §4.1 granted
    /// snapshots; then the local replica.
    pub fn read(&mut self, object: ObjectId) -> Value {
        let writes = &self.effects.writes;
        if let Some((_, v)) = writes.iter().find(|(o, _)| *o == object) {
            return v.clone();
        }
        let (site, value) = match self.granted.get(&object) {
            Some((site, v)) => (*site, v.clone()),
            None => (self.node, self.replica.read(object).clone()),
        };
        self.effects.reads.push((site, object));
        self.effects.seen.push((object, value.clone()));
        value
    }

    /// Read and interpret as integer with `default` for `Null`.
    pub fn read_int(&mut self, object: ObjectId, default: i64) -> i64 {
        self.read(object)
            .as_int_or(default)
            .expect("read_int on non-integer object")
    }

    /// Buffer a write. A second write of an object replaces the first in
    /// place, so the buffer holds each object once, in first-write order.
    /// Fails (aborting the transaction) if the object lies outside the
    /// initiator's fragment or the transaction is read-only.
    pub fn write(&mut self, object: ObjectId, value: impl Into<Value>) -> Result<(), ProgramError> {
        if self.read_only {
            return Err(ProgramError::Logic("write in read-only transaction".into()));
        }
        match self.catalog.fragment_of(object) {
            Ok(f) if f == self.fragment => {
                let writes = &mut self.effects.writes;
                match writes.iter_mut().find(|(o, _)| *o == object) {
                    Some((_, v)) => *v = value.into(),
                    None => writes.push((object, value.into())),
                }
                Ok(())
            }
            _ => Err(ProgramError::InitiationViolation(object)),
        }
    }

    /// Abort with a domain reason.
    pub fn abort(&self, reason: impl Into<String>) -> ProgramError {
        ProgramError::Logic(reason.into())
    }

    /// Values read so far (for drivers that inspect mid-program).
    pub fn reads(&self) -> &[(ObjectId, Value)] {
        &self.effects.seen
    }

    /// Finish: hand the effects back to the system.
    pub(crate) fn finish(self) -> TxnEffects {
        self.effects
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fragdb_model::Fragment;

    fn setup() -> (FragmentCatalog, Replica) {
        let catalog = FragmentCatalog::new(vec![
            Fragment::new(FragmentId(0), "A", vec![ObjectId(0), ObjectId(1)]),
            Fragment::new(FragmentId(1), "B", vec![ObjectId(2)]),
        ])
        .unwrap();
        let mut replica = Replica::new(NodeId(0));
        replica.commit_local(
            TxnId::new(NodeId(0), 999),
            FragmentId(0),
            0,
            0,
            vec![(ObjectId(0), Value::Int(100))].into(),
            SimTime(0),
        );
        (catalog, replica)
    }

    fn ctx<'a>(
        catalog: &'a FragmentCatalog,
        replica: &'a Replica,
        granted: &'a BTreeMap<ObjectId, (NodeId, Value)>,
        read_only: bool,
    ) -> TxnCtx<'a> {
        TxnCtx::new(
            NodeId(0),
            TxnId::new(NodeId(0), 1),
            FragmentId(0),
            SimTime(5),
            replica,
            catalog,
            granted,
            read_only,
            TxnEffects::default(),
        )
    }

    #[test]
    fn reads_come_from_replica_and_are_buffered() {
        let (catalog, replica) = setup();
        let granted = BTreeMap::new();
        let mut c = ctx(&catalog, &replica, &granted, false);
        assert_eq!(c.read(ObjectId(0)), Value::Int(100));
        assert_eq!(
            c.read_int(ObjectId(1), -7),
            -7,
            "unwritten reads as default"
        );
        let eff = c.finish();
        assert_eq!(
            eff.reads,
            vec![(NodeId(0), ObjectId(0)), (NodeId(0), ObjectId(1))]
        );
        assert!(eff.writes.is_empty());
    }

    #[test]
    fn read_your_own_writes_not_recorded_as_reads() {
        let (catalog, replica) = setup();
        let granted = BTreeMap::new();
        let mut c = ctx(&catalog, &replica, &granted, false);
        c.write(ObjectId(0), 555i64).unwrap();
        assert_eq!(c.read(ObjectId(0)), Value::Int(555));
        let eff = c.finish();
        assert!(eff.reads.is_empty(), "own-buffer reads touch no replica");
        assert_eq!(eff.writes, vec![(ObjectId(0), Value::Int(555))]);
    }

    #[test]
    fn granted_snapshot_wins_and_records_lock_site() {
        let (catalog, replica) = setup();
        let mut granted = BTreeMap::new();
        granted.insert(ObjectId(2), (NodeId(3), Value::Int(42)));
        let mut c = ctx(&catalog, &replica, &granted, false);
        assert_eq!(c.read(ObjectId(2)), Value::Int(42));
        let eff = c.finish();
        assert_eq!(eff.reads, vec![(NodeId(3), ObjectId(2))]);
    }

    #[test]
    fn initiation_requirement_enforced_at_write() {
        let (catalog, replica) = setup();
        let granted = BTreeMap::new();
        let mut c = ctx(&catalog, &replica, &granted, false);
        assert_eq!(
            c.write(ObjectId(2), 1i64),
            Err(ProgramError::InitiationViolation(ObjectId(2)))
        );
        assert!(c.write(ObjectId(99), 1i64).is_err(), "unknown object");
        assert!(c.write(ObjectId(1), 1i64).is_ok(), "own fragment");
    }

    #[test]
    fn read_only_context_rejects_writes() {
        let (catalog, replica) = setup();
        let granted = BTreeMap::new();
        let mut c = ctx(&catalog, &replica, &granted, true);
        assert!(matches!(
            c.write(ObjectId(0), 1i64),
            Err(ProgramError::Logic(_))
        ));
    }

    #[test]
    fn finish_dedupes_writes_last_wins() {
        let (catalog, replica) = setup();
        let granted = BTreeMap::new();
        let mut c = ctx(&catalog, &replica, &granted, false);
        c.write(ObjectId(0), 1i64).unwrap();
        c.write(ObjectId(1), 2i64).unwrap();
        c.write(ObjectId(0), 3i64).unwrap();
        let eff = c.finish();
        assert_eq!(
            eff.writes,
            vec![(ObjectId(0), Value::Int(3)), (ObjectId(1), Value::Int(2))]
        );
    }

    /// A rewrite replaces the earlier write where it stands: three writes
    /// of one object leave one entry, holding the last value, in the first
    /// write's position, and reading the object back sees the last value.
    #[test]
    fn a_rewrite_overwrites_in_place() {
        let (catalog, replica) = setup();
        let granted = BTreeMap::new();
        let mut c = ctx(&catalog, &replica, &granted, false);
        c.write(ObjectId(1), 10i64).unwrap();
        c.write(ObjectId(0), 1i64).unwrap();
        c.write(ObjectId(1), 20i64).unwrap();
        c.write(ObjectId(1), 30i64).unwrap();
        assert_eq!(c.read(ObjectId(1)), Value::Int(30));
        let eff = c.finish();
        assert_eq!(
            eff.writes,
            vec![(ObjectId(1), Value::Int(30)), (ObjectId(0), Value::Int(1))]
        );
        assert!(eff.reads.is_empty(), "own-buffer reads touch no replica");
    }

    #[test]
    fn abort_helper_builds_logic_error() {
        let (catalog, replica) = setup();
        let granted = BTreeMap::new();
        let c = ctx(&catalog, &replica, &granted, false);
        let err = c.abort("no funds");
        assert_eq!(err, ProgramError::Logic("no funds".into()));
        assert!(err.to_string().contains("no funds"));
    }

    #[test]
    fn reads_seen_exposes_values() {
        let (catalog, replica) = setup();
        let granted = BTreeMap::new();
        let mut c = ctx(&catalog, &replica, &granted, false);
        c.read(ObjectId(0));
        assert_eq!(c.reads(), &[(ObjectId(0), Value::Int(100))]);
    }
}
