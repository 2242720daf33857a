//! Executed histories.
//!
//! The Appendix's graph constructions (global and local serialization
//! graphs, Definitions 8.2/8.3) are defined over *what actually happened*:
//! which transaction read or wrote which object, at which node, and — for
//! propagated updates — when each update was *installed* in each remote
//! copy. [`History`] is that record.
//!
//! Every op's sequence number is its position in the history: the `i`-th
//! op recorded has `seq` `i`. Within one node the sequence order is the
//! node's local-schedule order; across nodes it is the (deterministic)
//! simulation event order. The graph builders only ever compare sequence
//! numbers of ops *at the same node on the same object*, which is exactly
//! the order the paper's definitions need.
//!
//! The history is one byte log. Each op is written as a tag byte (bit 0 a
//! write, bit 1 an install, bit 2 a read-only owner), the zigzag LEB128
//! delta of its instant from the op before it, then `node`, `txn.origin`,
//! `txn.seq`, the owner's fragment and `object`, each as LEB128 (the
//! [`fragdb_sim::varint`] codec). The sequence number is not stored.
//! That is about nine bytes an op on the benchmark's workloads, against
//! 56 for a [`HistoryOp`]. [`History::ops`] unpacks the log in order and
//! hands out ops by value.

use std::collections::BTreeMap;
use std::fmt;

use fragdb_sim::{varint, SimTime};

use crate::ids::{FragmentId, NodeId, ObjectId, TxnId};
use crate::txn::OpKind;

/// Type of a transaction in the sense of Definition 8.1: the fragment whose
/// agent initiated it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TxnType {
    /// An update transaction on the given fragment.
    Update(FragmentId),
    /// A read-only transaction initiated by the given fragment's agent.
    ReadOnly(FragmentId),
}

impl TxnType {
    /// The initiating agent's fragment (`tp(T)` in Definition 8.1).
    pub fn fragment(self) -> FragmentId {
        match self {
            TxnType::Update(f) | TxnType::ReadOnly(f) => f,
        }
    }

    /// True for update transactions.
    pub fn is_update(self) -> bool {
        matches!(self, TxnType::Update(_))
    }
}

/// One recorded atomic action.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistoryOp {
    /// Node at which the action physically took place.
    pub node: NodeId,
    /// The transaction the action belongs to. For an installed update this
    /// is the *originating* transaction's id, even though the install runs
    /// at a remote node as part of a quasi-transaction.
    pub txn: TxnId,
    /// Type of the owning transaction (Definition 8.1).
    pub ttype: TxnType,
    /// Read or write.
    pub kind: OpKind,
    /// The object acted on.
    pub object: ObjectId,
    /// Virtual time of the action.
    pub at: SimTime,
    /// Globally monotone recording sequence (total order, ties impossible).
    pub seq: u64,
    /// `true` when this write is the installation of a propagated update at
    /// a node other than the transaction's home.
    pub is_install: bool,
}

/// Tag bits of a packed op: a write (else a read), an install, and a
/// read-only owner (else an update).
const WRITE: u8 = 1;
const INSTALL: u8 = 2;
const READ_ONLY: u8 = 4;

/// The executed history of one simulation run, packed as the module doc
/// describes: about nine bytes an op.
#[derive(Clone, Default)]
pub struct History {
    bytes: Vec<u8>,
    len: usize,
    /// The newest op's instant, which the next one is a delta from.
    last_at: u64,
}

impl History {
    /// Empty history.
    pub fn new() -> Self {
        History::default()
    }

    /// Record an action performed by a transaction at its home node.
    pub fn record_local(
        &mut self,
        node: NodeId,
        txn: TxnId,
        ttype: TxnType,
        kind: OpKind,
        object: ObjectId,
        at: SimTime,
    ) -> u64 {
        let write = if kind == OpKind::Write { WRITE } else { 0 };
        self.push(write, node, txn, ttype, object, at)
    }

    /// Record the installation of a propagated update at a remote node.
    pub fn record_install(
        &mut self,
        node: NodeId,
        txn: TxnId,
        ttype: TxnType,
        object: ObjectId,
        at: SimTime,
    ) -> u64 {
        self.push(WRITE | INSTALL, node, txn, ttype, object, at)
    }

    /// Append one op; its sequence number is its position.
    fn push(
        &mut self,
        tag: u8,
        node: NodeId,
        txn: TxnId,
        ttype: TxnType,
        object: ObjectId,
        at: SimTime,
    ) -> u64 {
        let (read_only, fragment) = match ttype {
            TxnType::Update(f) => (0, f),
            TxnType::ReadOnly(f) => (READ_ONLY, f),
        };
        let out = &mut self.bytes;
        out.push(tag | read_only);
        varint::pack_delta(out, self.last_at, at.0);
        varint::pack(out, u64::from(node.0));
        varint::pack(out, u64::from(txn.origin.0));
        varint::pack(out, txn.seq);
        varint::pack(out, u64::from(fragment.0));
        varint::pack(out, object.0);
        self.last_at = at.0;
        self.len += 1;
        self.len as u64 - 1
    }

    /// All ops in recording order, unpacked as they are read: the `i`-th
    /// has `seq` `i`.
    pub fn ops(&self) -> impl ExactSizeIterator<Item = HistoryOp> + '_ {
        Ops {
            packed: &self.bytes,
            at: 0,
            seq: 0,
            left: self.len,
        }
    }

    /// Number of recorded ops.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Distinct transactions appearing in the history, with their types.
    ///
    /// A transaction appears with one consistent type; if a bug recorded two
    /// types the first wins and downstream checkers will surface the
    /// inconsistency.
    pub fn transactions(&self) -> BTreeMap<TxnId, TxnType> {
        let mut out = BTreeMap::new();
        for op in self.ops() {
            out.entry(op.txn).or_insert(op.ttype);
        }
        out
    }

    /// Ops that happened at `node`, in sequence order (recording order is
    /// already per-node chronological).
    pub fn ops_at(&self, node: NodeId) -> impl Iterator<Item = HistoryOp> + '_ {
        self.ops().filter(move |op| op.node == node)
    }

    /// Restrict to ops of transactions satisfying `pred` (used for the
    /// `U(F_i)` projections of §4.3's Property 1). The kept ops are
    /// recorded afresh, so each one's `seq` is its position in the
    /// projection; their order, and so their order at every node and
    /// object, is the original's.
    pub fn filter_txns(&self, mut pred: impl FnMut(TxnId, TxnType) -> bool) -> History {
        let mut out = History::new();
        for op in self.ops().filter(|op| pred(op.txn, op.ttype)) {
            if op.is_install {
                out.record_install(op.node, op.txn, op.ttype, op.object, op.at);
            } else {
                out.record_local(op.node, op.txn, op.ttype, op.kind, op.object, op.at);
            }
        }
        out
    }
}

/// Lists the ops, as a `Vec<HistoryOp>` would.
impl fmt::Debug for History {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.ops()).finish()
    }
}

/// The ops of a [`History`], unpacked in order.
struct Ops<'a> {
    packed: &'a [u8],
    /// The previous op's instant.
    at: u64,
    seq: u64,
    left: usize,
}

impl Iterator for Ops<'_> {
    type Item = HistoryOp;

    #[inline]
    fn next(&mut self) -> Option<HistoryOp> {
        self.left = self.left.checked_sub(1)?;
        let packed = &mut self.packed;
        let tag = varint::unpack_byte(packed);
        self.at = varint::unpack_delta(self.at, packed);
        // Each id was packed from its own width, so it fits.
        let node = NodeId(varint::unpack(packed) as u32);
        let origin = NodeId(varint::unpack(packed) as u32);
        let txn = TxnId::new(origin, varint::unpack(packed));
        let fragment = FragmentId(varint::unpack(packed) as u32);
        let op = HistoryOp {
            node,
            txn,
            ttype: if tag & READ_ONLY == 0 {
                TxnType::Update(fragment)
            } else {
                TxnType::ReadOnly(fragment)
            },
            kind: if tag & WRITE == 0 {
                OpKind::Read
            } else {
                OpKind::Write
            },
            object: ObjectId(varint::unpack(packed)),
            at: SimTime(self.at),
            seq: self.seq,
            is_install: tag & INSTALL != 0,
        };
        self.seq += 1;
        Some(op)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Ops<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u64) -> TxnId {
        TxnId::new(NodeId(0), i)
    }

    #[test]
    fn sequence_numbers_are_monotone() {
        let mut h = History::new();
        let s1 = h.record_local(
            NodeId(0),
            t(0),
            TxnType::Update(FragmentId(0)),
            OpKind::Read,
            ObjectId(1),
            SimTime(5),
        );
        let s2 = h.record_install(
            NodeId(1),
            t(0),
            TxnType::Update(FragmentId(0)),
            ObjectId(1),
            SimTime(9),
        );
        assert!(s2 > s1);
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn installs_are_writes() {
        let mut h = History::new();
        h.record_install(
            NodeId(1),
            t(0),
            TxnType::Update(FragmentId(0)),
            ObjectId(0),
            SimTime(1),
        );
        let op = h.ops().next().expect("one op");
        assert_eq!(op.kind, OpKind::Write);
        assert!(op.is_install);
    }

    #[test]
    fn transactions_collects_types() {
        let mut h = History::new();
        h.record_local(
            NodeId(0),
            t(0),
            TxnType::Update(FragmentId(0)),
            OpKind::Write,
            ObjectId(0),
            SimTime(1),
        );
        h.record_local(
            NodeId(0),
            t(1),
            TxnType::ReadOnly(FragmentId(1)),
            OpKind::Read,
            ObjectId(0),
            SimTime(2),
        );
        let txns = h.transactions();
        assert_eq!(txns.len(), 2);
        assert_eq!(txns[&t(0)], TxnType::Update(FragmentId(0)));
        assert_eq!(txns[&t(1)], TxnType::ReadOnly(FragmentId(1)));
    }

    #[test]
    fn per_node_filtering() {
        let mut h = History::new();
        for (node, obj) in [(0u32, 0u64), (0, 1), (1, 0), (0, 0)] {
            h.record_local(
                NodeId(node),
                t(obj),
                TxnType::Update(FragmentId(0)),
                OpKind::Write,
                ObjectId(obj),
                SimTime(1),
            );
        }
        let seqs: Vec<u64> = h.ops_at(NodeId(0)).map(|op| op.seq).collect();
        assert_eq!(seqs, [0, 1, 3]);
    }

    #[test]
    fn filter_txns_projects() {
        let mut h = History::new();
        h.record_local(
            NodeId(0),
            t(0),
            TxnType::Update(FragmentId(0)),
            OpKind::Write,
            ObjectId(0),
            SimTime(1),
        );
        h.record_local(
            NodeId(0),
            t(1),
            TxnType::Update(FragmentId(1)),
            OpKind::Write,
            ObjectId(1),
            SimTime(2),
        );
        let only_f1 = h.filter_txns(|_, ty| ty.fragment() == FragmentId(1));
        assert_eq!(only_f1.len(), 1);
        let op = only_f1.ops().next().expect("one op");
        assert_eq!((op.txn, op.seq, op.at), (t(1), 0, SimTime(2)));
    }

    /// A synthetic `dense-few` run: 4 nodes, 8 fragments of 32 objects,
    /// 80 000 arrivals 50 µs apart on average, every fifth a read-only
    /// transaction at a random node, the rest updates that read and write
    /// at their fragment's home and install at the three other nodes one
    /// link delay later, all recorded in time order.
    #[test]
    fn a_dense_few_mix_packs_in_at_most_twelve_bytes_an_op() {
        let mut rng = fragdb_sim::SimRng::new(42);
        let mut ops: Vec<(u64, u32, TxnId, TxnType, bool, OpKind, u64)> = Vec::new();
        let mut next_seq = [0u64; 4];
        let mut at = 1_000_000;
        for i in 0..80_000u64 {
            at += rng.exp_micros(50.0);
            let fragment = FragmentId(rng.gen_range(0..8u32));
            let object = u64::from(fragment.0) * 32 + rng.gen_range(0..32u64);
            if i % 5 == 4 {
                let node = rng.gen_range(0..4u32);
                let txn = TxnId::new(NodeId(node), next_seq[node as usize]);
                next_seq[node as usize] += 1;
                let ro = TxnType::ReadOnly(fragment);
                ops.push((at, node, txn, ro, false, OpKind::Read, object));
                continue;
            }
            let home = fragment.0 % 4;
            let txn = TxnId::new(NodeId(home), next_seq[home as usize]);
            next_seq[home as usize] += 1;
            let upd = TxnType::Update(fragment);
            let read = u64::from(fragment.0) * 32 + rng.gen_range(0..32u64);
            ops.push((at, home, txn, upd, false, OpKind::Read, read));
            ops.push((at, home, txn, upd, false, OpKind::Write, object));
            for node in (0..4).filter(|&n| n != home) {
                let arrives = at + 1_000 + rng.gen_range(0..200u64);
                ops.push((arrives, node, txn, upd, true, OpKind::Write, object));
            }
        }
        ops.sort_by_key(|op| op.0);
        let mut h = History::new();
        for &(at, node, txn, ttype, install, kind, object) in &ops {
            let (node, object, at) = (NodeId(node), ObjectId(object), SimTime(at));
            if install {
                h.record_install(node, txn, ttype, object, at);
            } else {
                h.record_local(node, txn, ttype, kind, object, at);
            }
        }
        let per_op = h.bytes.len() as f64 / h.len() as f64;
        assert!(per_op <= 12.0, "{per_op:.2} bytes an op");
        assert_eq!(h.len(), ops.len());
    }

    #[test]
    fn txn_type_accessors() {
        assert_eq!(TxnType::Update(FragmentId(3)).fragment(), FragmentId(3));
        assert_eq!(TxnType::ReadOnly(FragmentId(2)).fragment(), FragmentId(2));
        assert!(TxnType::Update(FragmentId(0)).is_update());
        assert!(!TxnType::ReadOnly(FragmentId(0)).is_update());
    }
}
