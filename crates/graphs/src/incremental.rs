//! Incremental serialization-graph checking.
//!
//! The batch checkers ([`crate::gsg`], [`crate::fragmentwise`]) rebuild
//! their graphs from the full [`History`] on every query — O(history) per
//! check, which the Monte-Carlo sweeps (E8/E9) and any
//! check-after-every-commit monitor pay over and over. This module keeps
//! the same verdicts *online*: feed it each op as it is recorded
//! (`record_local`/`record_install` order) and the current verdict is
//! available in O(1).
//!
//! * [`IncrementalTopo`] — Pearce–Kelly incremental topological order
//!   maintenance: edge insertion into a DAG costs only a bounded
//!   double-DFS over the "affected region" between the endpoints'
//!   positions, and a cycle is detected the moment the closing edge
//!   arrives. Once cyclic, the verdict latches (edges are only ever
//!   added).
//! * [`IncrementalAnalyzer`] — the online analogue of
//!   [`crate::verdict::analyze`]: global serialization graph, Property 1
//!   per-fragment install-order chains, Property 2 torn-read
//!   classification.
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
//! cyclic(batch)*. Property 1 uses identical edges, and Property 2's
//! read classification ("did this read see the install?") is final at
//! read time — a writer's first write at a node can only have a larger
//! sequence number than any earlier read. The differential tests in
//! `tests/incremental_differential.rs` compare verdicts on every prefix
//! of seeded random histories.
//!
//! [`History`]: fragdb_model::History

use std::collections::{BTreeMap, BTreeSet};

use fragdb_model::{FragmentId, History, HistoryOp, NodeId, ObjectId, OpKind, TxnId, TxnType};
use fragdb_sim::IdMap;

/// Pearce–Kelly incremental topological order with cycle detection.
///
/// Maintains a total order `ord` such that every edge `u → v` has
/// `ord[u] < ord[v]` while the graph is acyclic. Inserting an edge that
/// violates the order triggers a forward DFS bounded by the affected
/// region: reaching the source proves a cycle; otherwise the two
/// reachable sets are reordered in place. Amortized cost is proportional
/// to the affected region, not the graph.
#[derive(Clone, Debug)]
pub struct IncrementalTopo<N: Ord + Copy> {
    ord: BTreeMap<N, u64>,
    next_pos: u64,
    fwd: BTreeMap<N, BTreeSet<N>>,
    bwd: BTreeMap<N, BTreeSet<N>>,
    cyclic: bool,
    edge_insertions: u64,
}

impl<N: Ord + Copy> Default for IncrementalTopo<N> {
    fn default() -> Self {
        IncrementalTopo::new()
    }
}

impl<N: Ord + Copy> IncrementalTopo<N> {
    /// Empty order.
    pub fn new() -> Self {
        IncrementalTopo {
            ord: BTreeMap::new(),
            next_pos: 0,
            fwd: BTreeMap::new(),
            bwd: BTreeMap::new(),
            cyclic: false,
            edge_insertions: 0,
        }
    }

    /// Insert a node (idempotent); new nodes go to the end of the order.
    pub fn add_node(&mut self, n: N) {
        if let std::collections::btree_map::Entry::Vacant(e) = self.ord.entry(n) {
            e.insert(self.next_pos);
            self.next_pos += 1;
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.ord.len()
    }

    /// Number of distinct edges inserted so far (the checker-work metric
    /// the bench runner reports).
    pub fn edge_insertions(&self) -> u64 {
        self.edge_insertions
    }

    /// Does the edge exist?
    pub fn has_edge(&self, from: N, to: N) -> bool {
        self.fwd.get(&from).is_some_and(|s| s.contains(&to))
    }

    /// `false` once any inserted edge has closed a directed cycle. Since
    /// edges are only added, a cyclic graph never becomes acyclic again.
    pub fn is_acyclic(&self) -> bool {
        !self.cyclic
    }

    /// Nodes in the maintained topological order (meaningful only while
    /// acyclic).
    pub fn order(&self) -> Vec<N> {
        let mut nodes: Vec<(u64, N)> = self.ord.iter().map(|(&n, &p)| (p, n)).collect();
        nodes.sort_unstable_by_key(|&(p, _)| p);
        nodes.into_iter().map(|(_, n)| n).collect()
    }

    /// Insert a directed edge. Self-loops and duplicate edges are
    /// tolerated (a self-loop is a cycle; duplicates are no-ops).
    pub fn add_edge(&mut self, from: N, to: N) {
        self.add_node(from);
        self.add_node(to);
        if from == to {
            self.edge_insertions += 1;
            self.cyclic = true;
            return;
        }
        if !self.fwd.entry(from).or_default().insert(to) {
            return;
        }
        self.bwd.entry(to).or_default().insert(from);
        self.edge_insertions += 1;
        if self.cyclic {
            return;
        }
        let lb = self.ord[&to];
        let ub = self.ord[&from];
        if ub < lb {
            return; // order already consistent
        }
        // Forward DFS from `to`, restricted to ord ≤ ub. Before this
        // insertion the order was valid, so any path to → … → from has
        // strictly increasing positions and stays inside the bound:
        // the bounded search is exhaustive for cycle detection.
        let mut delta_f: BTreeSet<N> = BTreeSet::new();
        let mut stack = vec![to];
        while let Some(n) = stack.pop() {
            if !delta_f.insert(n) {
                continue;
            }
            if n == from {
                self.cyclic = true;
                return;
            }
            for &m in self.fwd.get(&n).into_iter().flatten() {
                if self.ord[&m] <= ub && !delta_f.contains(&m) {
                    stack.push(m);
                }
            }
        }
        // No cycle: nodes reaching `from` from within the region must all
        // move below the nodes reachable from `to` (the two sets are
        // disjoint — an overlap would be a to → … → from path).
        let mut delta_b: BTreeSet<N> = BTreeSet::new();
        let mut stack = vec![from];
        while let Some(n) = stack.pop() {
            if !delta_b.insert(n) {
                continue;
            }
            for &m in self.bwd.get(&n).into_iter().flatten() {
                if self.ord[&m] >= lb && !delta_b.contains(&m) {
                    stack.push(m);
                }
            }
        }
        let mut slots: Vec<u64> = delta_b
            .iter()
            .chain(delta_f.iter())
            .map(|n| self.ord[n])
            .collect();
        slots.sort_unstable();
        let mut movers: Vec<N> = delta_b.iter().copied().collect();
        movers.sort_unstable_by_key(|n| self.ord[n]);
        let mut f_movers: Vec<N> = delta_f.iter().copied().collect();
        f_movers.sort_unstable_by_key(|n| self.ord[n]);
        movers.extend(f_movers);
        for (slot, n) in slots.into_iter().zip(movers) {
            self.ord.insert(n, slot);
        }
    }
}

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
/// [`HistoryOp`]s one at a time and keeps the verdict current.
#[derive(Clone, Debug, Default)]
pub struct IncrementalAnalyzer {
    ops_seen: usize,
    /// First-recorded type per transaction (matches
    /// `History::transactions`, where the first recording wins).
    types: BTreeMap<TxnId, TxnType>,

    // Global serialization graph.
    gsg: IncrementalTopo<TxnId>,
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
    p1_topo: BTreeMap<FragmentId, IncrementalTopo<TxnId>>,
    p1_violated: BTreeSet<FragmentId>,

    // Property 2: torn-read classification.
    /// Objects each update transaction has written (any node's view).
    write_sets: BTreeMap<TxnId, BTreeSet<ObjectId>>,
    /// Update transactions that wrote each object.
    updaters_of: BTreeMap<ObjectId, BTreeSet<TxnId>>,
    /// First write position of (node, object, updater).
    first_write_pos: BTreeMap<(NodeId, ObjectId, TxnId), u64>,
    /// Reads of each (object, node): `(reader, seq)` in read order.
    reads_of: BTreeMap<(ObjectId, NodeId), Vec<(TxnId, u64)>>,
    /// Per (reader, updater, node): (saw an old value, saw a new value).
    /// Only ever looked up by key, so hashed.
    pair_state: IdMap<(TxnId, TxnId, NodeId), (bool, bool)>,
    p2_violations: BTreeSet<(TxnId, TxnId, NodeId)>,
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
    /// extension of it) each time: ops are consumed strictly by position.
    pub fn ingest(&mut self, history: &History) -> usize {
        let new = &history.ops()[self.ops_seen..];
        let count = new.len();
        for op in new {
            self.observe(op);
        }
        count
    }

    /// Number of ops observed so far.
    pub fn ops_seen(&self) -> usize {
        self.ops_seen
    }

    /// Total distinct edge insertions across the GSG and every Property-1
    /// graph — the checker-work metric reported by the bench runner.
    pub fn edge_insertions(&self) -> u64 {
        self.gsg.edge_insertions()
            + self
                .p1_topo
                .values()
                .map(IncrementalTopo::edge_insertions)
                .sum::<u64>()
    }

    /// Is the execution observed so far globally serializable? O(1).
    pub fn is_globally_serializable(&self) -> bool {
        self.gsg.is_acyclic()
    }

    /// Is the execution observed so far fragmentwise serializable? O(1).
    pub fn is_fragmentwise_serializable(&self) -> bool {
        self.p1_violated.is_empty() && self.p2_violations.is_empty()
    }

    /// The current verdict.
    pub fn verdict(&self) -> IncrementalVerdict {
        IncrementalVerdict {
            globally_serializable: self.gsg.is_acyclic(),
            property1_violations: self.p1_violated.clone(),
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
            let topo = self.p1_topo.entry(frag).or_default();
            topo.add_node(op.txn);
            if let Some(prev) = self.p1_last.insert((frag, op.node), op.txn) {
                if prev != op.txn {
                    topo.add_edge(prev, op.txn);
                    if !topo.is_acyclic() {
                        self.p1_violated.insert(frag);
                    }
                }
            }
        }
        // Property 2: a new (updater, object) pair classifies every
        // earlier read of the object as "saw the old value" for this
        // pair — any future write position exceeds those reads' seqs.
        if self.write_sets.entry(op.txn).or_default().insert(op.object) {
            self.updaters_of
                .entry(op.object)
                .or_default()
                .insert(op.txn);
            let mut marks: Vec<(TxnId, NodeId)> = Vec::new();
            let span = (op.object, NodeId(0))..=(op.object, NodeId(u32::MAX));
            for ((_, n), rlist) in self.reads_of.range(span) {
                marks.extend(
                    rlist
                        .iter()
                        .map(|&(r, _)| (r, *n))
                        .filter(|&(r, _)| r != op.txn),
                );
            }
            for (reader, node) in marks {
                self.p2_mark(reader, op.txn, node, false);
            }
        }
        self.first_write_pos
            .entry((op.node, op.object, op.txn))
            .or_insert(op.seq);
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
        // Property 2: classify this read against every known updater of
        // the object. The classification is final: an updater's first
        // write at this node either already exists (fixed position) or
        // will carry a larger sequence number than this read.
        self.reads_of
            .entry((op.object, op.node))
            .or_default()
            .push((op.txn, op.seq));
        let updaters: Vec<TxnId> = self
            .updaters_of
            .get(&op.object)
            .into_iter()
            .flatten()
            .copied()
            .filter(|&u| u != op.txn)
            .collect();
        for u in updaters {
            let saw_new = self
                .first_write_pos
                .get(&(op.node, op.object, u))
                .is_some_and(|&w| w < op.seq);
            self.p2_mark(op.txn, u, op.node, saw_new);
        }
    }

    fn p2_mark(&mut self, reader: TxnId, updater: TxnId, node: NodeId, saw_new: bool) {
        let state = self
            .pair_state
            .entry((reader, updater, node))
            .or_insert((false, false));
        if saw_new {
            state.1 = true;
        } else {
            state.0 = true;
        }
        if state.0 && state.1 {
            self.p2_violations.insert((reader, updater, node));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digraph::DiGraph;

    // ----------------------------------------------------------------
    // IncrementalTopo
    // ----------------------------------------------------------------

    #[test]
    fn topo_accepts_dag_and_orders_it() {
        let mut t = IncrementalTopo::new();
        t.add_edge(1u32, 2);
        t.add_edge(2, 4);
        t.add_edge(1, 3);
        t.add_edge(3, 4);
        assert!(t.is_acyclic());
        let order = t.order();
        let pos = |x: u32| order.iter().position(|&n| n == x).unwrap();
        assert!(pos(1) < pos(2) && pos(2) < pos(4) && pos(3) < pos(4));
    }

    #[test]
    fn topo_detects_cycle_on_closing_edge() {
        let mut t = IncrementalTopo::new();
        t.add_edge(1u32, 2);
        t.add_edge(2, 3);
        assert!(t.is_acyclic());
        t.add_edge(3, 1);
        assert!(!t.is_acyclic());
        // Latched: more edges never resurrect acyclicity.
        t.add_edge(7, 8);
        assert!(!t.is_acyclic());
    }

    #[test]
    fn topo_self_loop_is_a_cycle() {
        let mut t = IncrementalTopo::new();
        t.add_edge(5u32, 5);
        assert!(!t.is_acyclic());
    }

    #[test]
    fn topo_reorders_back_edges_without_false_cycles() {
        // Insert edges in reverse topological order: every insertion
        // violates the maintained order and forces a reorder.
        let mut t = IncrementalTopo::new();
        for i in (0..50u32).rev() {
            t.add_edge(i, i + 1);
            assert!(t.is_acyclic(), "chain prefix is acyclic at {i}");
        }
        let order = t.order();
        assert_eq!(order, (0..=50u32).collect::<Vec<_>>());
    }

    #[test]
    fn topo_duplicate_edges_count_once() {
        let mut t = IncrementalTopo::new();
        t.add_edge(1u32, 2);
        t.add_edge(1, 2);
        assert_eq!(t.edge_insertions(), 1);
        assert!(t.has_edge(1, 2));
        assert!(!t.has_edge(2, 1));
    }

    /// Seeded random edge streams: after every insertion the incremental
    /// verdict must match a batch rebuild.
    #[test]
    fn topo_agrees_with_batch_cycle_detection() {
        let mut state = 0xD1B5_4A32_D192_ED03u64;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
            state
        };
        for _trial in 0..20 {
            let n = 4 + next() % 12;
            let mut inc = IncrementalTopo::new();
            let mut batch: DiGraph<u64> = DiGraph::new();
            for _ in 0..40 {
                let (a, b) = (next() % n, next() % n);
                inc.add_edge(a, b);
                batch.add_edge(a, b);
                assert_eq!(
                    inc.is_acyclic(),
                    batch.is_acyclic(),
                    "divergence after inserting {a}->{b}"
                );
            }
        }
    }
}
