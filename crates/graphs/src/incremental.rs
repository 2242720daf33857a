//! Incremental serialization-graph checking.
//!
//! [`IncrementalAnalyzer`] is the online analogue of
//! [`crate::verdict::analyze`]: it consumes the [`History`] one op at a
//! time (`record_local`/`record_install` order) and keeps the graphs and
//! the Property 2 state a verdict needs. The global serialization graph
//! and each fragment's Property 1 install-order chain are [`DiGraph`]s,
//! searched for a cycle when [`IncrementalAnalyzer::verdict`] is read.
//!
//! # Verdict equivalence, not edge equivalence
//!
//! The incremental GSG does not reproduce the batch edge set exactly; it
//! produces a graph with the **same transitive closure**, hence the same
//! acyclicity verdict. The one rule that cannot be evaluated online is
//! Definition 8.2's "writers never installed at the reader's node read
//! *after*": "never" quantifies over the whole history. Instead:
//!
//! * at read time, an edge `reader → w` is added for every *currently
//!   known* home-writer `w` of the object absent from the reader's node;
//! * when a transaction's first home-write of an object appears, edges
//!   `reader → w` are added retroactively for every earlier reader at
//!   nodes where `w` is not present.
//!
//! If `w`'s install later reaches that node, the batch graph has no
//! direct `reader → w` edge but does have the path `reader → (next write
//! at the node) → … → w` through the w–w chain — the early edge is
//! inside the batch closure. If the install never arrives, batch has the
//! direct edge too. Conversely every batch edge is either produced
//! directly or subsumed the same way, so *cyclic(incremental) ⟺
//! cyclic(batch)*. Property 1 uses identical edges.
//!
//! # Property 2: state only where a read can be torn
//!
//! A reader sees part of an update only through two reads at one node:
//! one of an object the updater wrote, taken before the updater's first
//! write of it at that node, and one taken after. So the analyzer keeps
//! each reader's reads per `(reader, node)`, and once a pair has a second
//! read it is indexed under every object it read. One routine classifies
//! a pair's reads against one updater; a mix of both kinds is a
//! violation. It runs on each read from a pair's second on, against the
//! updaters of the object read, and when an updater writes an object for
//! the first time, against the indexed pairs that read it.
//!
//! That is enough because a read's classification never changes: an
//! updater's first write at a node either precedes the read already or
//! comes later with a larger sequence number, which still classifies the
//! read as "before". Only a new read or a grown write set can change a
//! verdict, and those are the two cases. The differential tests in
//! `tests/incremental_differential.rs` compare verdicts with the batch
//! oracle on every prefix of small seeded histories, and at every
//! hundredth op of 2 000-op ones whose updaters write several objects and
//! whose readers read several times at one node.
//!
//! [`History`]: fragdb_model::History

use std::collections::{BTreeMap, BTreeSet};

use fragdb_model::{FragmentId, History, HistoryOp, NodeId, ObjectId, OpKind, TxnId, TxnType};
use fragdb_sim::IdMap;

use crate::digraph::DiGraph;

/// The online verdict: the projections of [`crate::Verdict`] that are
/// order-independent (violation *sets*, not witness orderings).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IncrementalVerdict {
    /// Global serialization graph acyclic?
    pub globally_serializable: bool,
    /// Fragments whose `U(F)` projection is not serializable (Property 1).
    pub property1_violations: BTreeSet<FragmentId>,
    /// `(reader, updater, node)` triples that observed a partial
    /// quasi-transaction (Property 2).
    pub property2_violations: BTreeSet<(TxnId, TxnId, NodeId)>,
    /// Number of transactions observed.
    pub txn_count: usize,
}

impl IncrementalVerdict {
    /// Fragmentwise serializable (Properties 1 and 2 both hold)?
    pub fn fragmentwise_serializable(&self) -> bool {
        self.property1_violations.is_empty() && self.property2_violations.is_empty()
    }

    /// Does this verdict agree with a batch [`crate::Verdict`] over the
    /// same history? Compares the order-independent projections.
    pub fn agrees_with(&self, batch: &crate::Verdict) -> bool {
        let batch_p1: BTreeSet<FragmentId> = batch
            .fragmentwise
            .property1_violations
            .iter()
            .map(|(f, _)| *f)
            .collect();
        let batch_p2: BTreeSet<(TxnId, TxnId, NodeId)> = batch
            .fragmentwise
            .property2_violations
            .iter()
            .map(|&(r, u, n, _, _)| (r, u, n))
            .collect();
        self.globally_serializable == batch.globally_serializable
            && self.property1_violations == batch_p1
            && self.property2_violations == batch_p2
            && self.txn_count == batch.txn_count
    }
}

/// Online analogue of [`crate::verdict::analyze`]: consumes
/// [`HistoryOp`]s one at a time and keeps what a verdict needs.
#[derive(Clone, Debug, Default)]
pub struct IncrementalAnalyzer {
    ops_seen: usize,
    /// First-recorded type per transaction (matches
    /// `History::transactions`, where the first recording wins).
    types: BTreeMap<TxnId, TxnType>,

    // Global serialization graph.
    gsg: DiGraph<TxnId>,
    /// Most recent writer at each (node, object).
    last_write: BTreeMap<(NodeId, ObjectId), TxnId>,
    /// Readers at (node, object) since its most recent write.
    readers_since_write: BTreeMap<(NodeId, ObjectId), BTreeSet<TxnId>>,
    /// Every reader ever at (node, object) — consulted when a new
    /// home-writer of the object appears.
    readers: BTreeMap<(NodeId, ObjectId), BTreeSet<TxnId>>,
    /// Nodes at which each object has been read.
    reader_nodes: BTreeMap<ObjectId, BTreeSet<NodeId>>,
    /// Transactions that home-wrote each object.
    home_writers: BTreeMap<ObjectId, BTreeSet<TxnId>>,
    /// Writers whose update (local or installed) reached (node, object).
    present: BTreeMap<(NodeId, ObjectId), BTreeSet<TxnId>>,

    // Property 1: per-fragment, per-node first-write install chains.
    p1_seen: BTreeSet<(FragmentId, NodeId, TxnId)>,
    p1_last: BTreeMap<(FragmentId, NodeId), TxnId>,
    p1_topo: BTreeMap<FragmentId, DiGraph<TxnId>>,

    // Property 2: torn-read classification (see module docs).
    /// Update transactions that wrote each object (any node's view).
    updaters_of: BTreeMap<ObjectId, BTreeSet<TxnId>>,
    /// First write position of (node, object, updater).
    first_write_pos: BTreeMap<(NodeId, ObjectId, TxnId), u64>,
    /// Each reader's reads at each node: `(object, seq)` in read order.
    reads_at: IdMap<(TxnId, NodeId), Vec<(ObjectId, u64)>>,
    /// The `(reader, node)` pairs with two or more reads, under each
    /// object they read.
    p2_index: IdMap<ObjectId, Vec<(TxnId, NodeId)>>,
    p2_violations: BTreeSet<(TxnId, TxnId, NodeId)>,
}

/// Did `reads` (one reader's, at `node`) see part of `updater`'s writes:
/// some of the objects it wrote before its first write there, some after?
fn torn(
    reads: &[(ObjectId, u64)],
    updaters_of: &BTreeMap<ObjectId, BTreeSet<TxnId>>,
    first_write_pos: &BTreeMap<(NodeId, ObjectId, TxnId), u64>,
    node: NodeId,
    updater: TxnId,
) -> bool {
    let wrote = |o: &ObjectId| updaters_of.get(o).is_some_and(|us| us.contains(&updater));
    let (mut old, mut new) = (false, false);
    for &(object, seq) in reads.iter().filter(|(o, _)| wrote(o)) {
        let saw_new = first_write_pos
            .get(&(node, object, updater))
            .is_some_and(|&w| w < seq);
        new |= saw_new;
        old |= !saw_new;
    }
    old && new
}

impl IncrementalAnalyzer {
    /// Empty analyzer.
    pub fn new() -> Self {
        IncrementalAnalyzer::default()
    }

    /// Build by replaying a full history (useful for tests and for the
    /// bench runner's from-scratch arm).
    pub fn from_history(history: &History) -> Self {
        let mut a = IncrementalAnalyzer::new();
        a.ingest(history);
        a
    }

    /// Consume every op recorded since the last `ingest`/`observe` and
    /// return how many were new. The history must be the same one (or an
    /// extension of it) each time: ops are consumed strictly by position,
    /// and the packed history is unpacked from its start to reach them.
    pub fn ingest(&mut self, history: &History) -> usize {
        let new = history.ops().skip(self.ops_seen);
        let count = new.len();
        for op in new {
            self.observe(&op);
        }
        count
    }

    /// Number of ops observed so far.
    pub fn ops_seen(&self) -> usize {
        self.ops_seen
    }

    /// Total distinct edges across the GSG and every Property-1 graph —
    /// the checker-work metric reported by the bench runner.
    pub fn edge_insertions(&self) -> u64 {
        let p1: usize = self.p1_topo.values().map(DiGraph::edge_count).sum();
        (self.gsg.edge_count() + p1) as u64
    }

    /// The verdict over the ops observed so far; searches each graph for
    /// a cycle.
    pub fn verdict(&self) -> IncrementalVerdict {
        IncrementalVerdict {
            globally_serializable: self.gsg.is_acyclic(),
            property1_violations: self
                .p1_topo
                .iter()
                .filter(|(_, g)| !g.is_acyclic())
                .map(|(&f, _)| f)
                .collect(),
            property2_violations: self.p2_violations.clone(),
            txn_count: self.types.len(),
        }
    }

    /// Feed one recorded op. Ops must arrive in recording (sequence)
    /// order — exactly the order `record_local`/`record_install` produce.
    pub fn observe(&mut self, op: &HistoryOp) {
        self.ops_seen += 1;
        let ttype = *self.types.entry(op.txn).or_insert(op.ttype);
        self.gsg.add_node(op.txn);
        match op.kind {
            OpKind::Write => self.observe_write(op, ttype),
            OpKind::Read => self.observe_read(op),
        }
    }

    fn observe_write(&mut self, op: &HistoryOp, ttype: TxnType) {
        let key = (op.node, op.object);
        // GSG w–w chain: consecutive distinct writers at this node.
        if let Some(prev) = self.last_write.insert(key, op.txn) {
            if prev != op.txn {
                self.gsg.add_edge(prev, op.txn);
            }
        }
        // GSG: this write is the nearest following write for every read
        // since the previous one.
        if let Some(rs) = self.readers_since_write.remove(&key) {
            for r in rs {
                if r != op.txn {
                    self.gsg.add_edge(r, op.txn);
                }
            }
        }
        self.present.entry(key).or_default().insert(op.txn);
        // GSG: first home-write of this object by this transaction —
        // earlier readers at nodes it has not reached read "before the
        // install", i.e. reader → writer (see module docs).
        if !op.is_install
            && self
                .home_writers
                .entry(op.object)
                .or_default()
                .insert(op.txn)
        {
            let mut retro: Vec<TxnId> = Vec::new();
            for &n in self.reader_nodes.get(&op.object).into_iter().flatten() {
                if self
                    .present
                    .get(&(n, op.object))
                    .is_some_and(|p| p.contains(&op.txn))
                {
                    continue;
                }
                retro.extend(
                    self.readers
                        .get(&(n, op.object))
                        .into_iter()
                        .flatten()
                        .copied()
                        .filter(|&r| r != op.txn),
                );
            }
            for r in retro {
                self.gsg.add_edge(r, op.txn);
            }
        }

        if !ttype.is_update() {
            return;
        }
        // Property 1: chain first writes per (fragment, node).
        let frag = ttype.fragment();
        if self.p1_seen.insert((frag, op.node, op.txn)) {
            let chain = self.p1_topo.entry(frag).or_default();
            chain.add_node(op.txn);
            if let Some(prev) = self.p1_last.insert((frag, op.node), op.txn) {
                if prev != op.txn {
                    chain.add_edge(prev, op.txn);
                }
            }
        }
        self.first_write_pos
            .entry((op.node, op.object, op.txn))
            .or_insert(op.seq);
        // Property 2: the updater's write set grew, so the indexed pairs
        // that read this object may now hold a torn read.
        if self
            .updaters_of
            .entry(op.object)
            .or_default()
            .insert(op.txn)
        {
            let (ups, pos) = (&self.updaters_of, &self.first_write_pos);
            for &(reader, node) in self.p2_index.get(&op.object).into_iter().flatten() {
                let reads = &self.reads_at[&(reader, node)];
                if reader != op.txn && torn(reads, ups, pos, node, op.txn) {
                    self.p2_violations.insert((reader, op.txn, node));
                }
            }
        }
    }

    fn observe_read(&mut self, op: &HistoryOp) {
        let key = (op.node, op.object);
        // GSG: nearest preceding write at this node.
        if let Some(&w) = self.last_write.get(&key) {
            if w != op.txn {
                self.gsg.add_edge(w, op.txn);
            }
        }
        self.readers_since_write
            .entry(key)
            .or_default()
            .insert(op.txn);
        self.readers.entry(key).or_default().insert(op.txn);
        self.reader_nodes
            .entry(op.object)
            .or_default()
            .insert(op.node);
        // GSG: known home-writers absent from this node (so far) read
        // "after" — reader → writer.
        let absent: Vec<TxnId> = self
            .home_writers
            .get(&op.object)
            .into_iter()
            .flatten()
            .copied()
            .filter(|&w| w != op.txn)
            .filter(|&w| !self.present.get(&key).is_some_and(|p| p.contains(&w)))
            .collect();
        for w in absent {
            self.gsg.add_edge(op.txn, w);
        }
        // Property 2: from its second read at a node on, index the pair
        // under each object it read and classify its reads against the
        // updaters of this one.
        let pair = (op.txn, op.node);
        let reads = self.reads_at.entry(pair).or_default();
        reads.push((op.object, op.seq));
        let earlier = &reads[..reads.len() - 1];
        if earlier.is_empty() {
            return;
        }
        if earlier.len() == 1 {
            self.p2_index.entry(earlier[0].0).or_default().push(pair);
        }
        if earlier.iter().all(|&(o, _)| o != op.object) {
            self.p2_index.entry(op.object).or_default().push(pair);
        }
        let (ups, pos) = (&self.updaters_of, &self.first_write_pos);
        for &u in ups.get(&op.object).into_iter().flatten() {
            if u != op.txn && torn(reads, ups, pos, op.node, u) {
                self.p2_violations.insert((op.txn, u, op.node));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fragdb_sim::SimTime;

    /// Readers that read once per node can never see part of an update,
    /// so they leave no Property 2 index behind, however many updaters
    /// wrote what they read.
    #[test]
    fn single_reads_per_node_leave_the_property2_index_empty() {
        let mut h = History::new();
        let upd = TxnType::Update(FragmentId(0));
        let ro = TxnType::ReadOnly(FragmentId(1));
        for i in 0..4u64 {
            let u = TxnId::new(NodeId(0), i);
            for o in 0..3 {
                h.record_local(NodeId(0), u, upd, OpKind::Write, ObjectId(o), SimTime(i));
                h.record_install(NodeId(1), u, upd, ObjectId(o), SimTime(i));
            }
            let r = TxnId::new(NodeId(2), i);
            h.record_local(NodeId(0), r, ro, OpKind::Read, ObjectId(i % 3), SimTime(i));
            h.record_local(NodeId(1), r, ro, OpKind::Read, ObjectId(0), SimTime(i));
        }
        let a = IncrementalAnalyzer::from_history(&h);
        assert!(a.p2_index.is_empty());
        assert_eq!(a.reads_at.len(), 8);
        assert!(a.verdict().agrees_with(&crate::analyze(&h)));
    }
}
