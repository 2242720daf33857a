//! The log-transformation baseline (§1, "free-for-all" end of the
//! spectrum).
//!
//! Every node applies operations **locally and immediately** — perfect
//! availability — and logs them with a timestamp. Each entry is sent to
//! every other node over the reliable layer, which is the log exchange:
//! an entry sent during a partition fails its transmission attempts and is
//! retransmitted until one gets through after the heal, and every entry
//! is released to each receiver exactly once.
//! Each node deterministically **replays its merged log** in
//! `(timestamp, origin, seq)` order, so all replicas converge to the same
//! state once all logs are everywhere.
//!
//! What this buys and what it costs, measurably:
//!
//! * availability: no submission is ever refused;
//! * overhead: every merge triggers a replay of the whole log (the paper's
//!   "computation and communication overhead … bound to degrade the
//!   overall performance") — counted in the `replay.ops` metric;
//! * correctness: *nothing* beyond eventual convergence. Constraint
//!   violations (overdrafts) surface only after the fact, and corrective
//!   actions run per node on possibly different views — the driver decides
//!   where to run them, and the paper's "different fines at different
//!   nodes" chaos falls out naturally (see experiment E2).
//!
//! Operations are domain-level (`Deposit $100`), not value writes: log
//! transformation re-executes semantics, which is what distinguishes it
//! from simple last-writer-wins.

use fragdb_model::NodeId;
use fragdb_net::{
    NetAction, NetworkChange, PktDelivery, ReliableNet, ReliableStats, RetransmitTimer, Topology,
};
use fragdb_sim::metrics::keys::slot;
use fragdb_sim::{Engine, SimTime};

/// A domain operation that can be replayed against a state.
pub trait LoggedOp: Clone {
    /// The replicated state the operations fold into.
    type State: Default + Clone + PartialEq + std::fmt::Debug;
    /// Apply this operation to the state.
    fn apply(&self, state: &mut Self::State);
}

/// A timestamped log entry. The total order `(ts, origin, seq)` is what
/// every node replays in.
#[derive(Clone, Debug)]
pub struct Entry<O> {
    /// Submission timestamp (the transform key).
    pub ts: SimTime,
    /// Node where the operation was submitted.
    pub origin: NodeId,
    /// Per-origin sequence number.
    pub seq: u64,
    /// The operation.
    pub op: O,
}

/// Events driving the baseline.
pub enum LtEv<O> {
    /// A user submits `op` at `node`.
    Submit {
        /// Where.
        node: NodeId,
        /// What.
        op: O,
    },
    /// A packet arrives.
    Pkt(PktDelivery<Entry<O>>),
    /// A link's retransmission timer fires.
    Rto(RetransmitTimer),
    /// Network change.
    Net(NetworkChange),
}

/// Driver notification: a remote entry merged at `node` (corrective-action
/// hooks inspect the node's state here).
#[derive(Clone, Debug)]
pub struct Merged<O> {
    /// Node that merged the entry.
    pub node: NodeId,
    /// The merged entry.
    pub entry: Entry<O>,
}

/// Configuration.
#[derive(Clone, Debug)]
pub struct LogTransformConfig {
    /// RNG seed.
    pub seed: u64,
}

struct LtNode<O: LoggedOp> {
    log: Vec<Entry<O>>,
    state: O::State,
    next_seq: u64,
}

/// The log-transformation ("free-for-all") system.
pub struct LogTransformSystem<O: LoggedOp> {
    /// The event engine.
    pub engine: Engine<LtEv<O>>,
    net: ReliableNet<Entry<O>>,
    nodes: Vec<LtNode<O>>,
}

impl<O: LoggedOp> LogTransformSystem<O> {
    /// Build over a topology.
    pub fn build(topology: Topology, config: LogTransformConfig) -> Self {
        let n = topology.node_count();
        LogTransformSystem {
            engine: Engine::new(config.seed),
            net: ReliableNet::new(topology),
            nodes: (0..n)
                .map(|_| LtNode {
                    log: Vec::new(),
                    state: O::State::default(),
                    next_seq: 0,
                })
                .collect(),
        }
    }

    /// Schedule a submission.
    pub fn submit_at(&mut self, at: SimTime, node: NodeId, op: O) {
        self.engine.schedule_at(at, LtEv::Submit { node, op });
    }

    /// Schedule a network change.
    pub fn net_change_at(&mut self, at: SimTime, change: NetworkChange) {
        self.engine.schedule_at(at, LtEv::Net(change));
    }

    /// Pump events up to `limit`, returning merge notifications.
    pub fn run_until(&mut self, limit: SimTime) -> Vec<Merged<O>> {
        let mut out = Vec::new();
        while let Some((at, ev)) = self.engine.pop_until(limit) {
            out.extend(self.handle(at, ev));
        }
        out
    }

    /// Handle exactly one event (for drivers interleaving reactions).
    pub fn step_until(&mut self, limit: SimTime) -> Option<(SimTime, Vec<Merged<O>>)> {
        let (at, ev) = self.engine.pop_until(limit)?;
        let merges = self.handle(at, ev);
        Some((at, merges))
    }

    /// A node's current replayed state.
    pub fn state(&self, node: NodeId) -> &O::State {
        &self.nodes[node.0 as usize].state
    }

    /// Reliable-network activity counters.
    pub fn net_stats(&self) -> ReliableStats {
        self.net.stats()
    }

    /// A node's current log length.
    pub fn log_len(&self, node: NodeId) -> usize {
        self.nodes[node.0 as usize].log.len()
    }

    /// Have all replicas converged to the same state?
    pub fn converged(&self) -> bool {
        let first = &self.nodes[0].state;
        self.nodes.iter().all(|n| &n.state == first)
    }

    fn handle(&mut self, at: SimTime, ev: LtEv<O>) -> Vec<Merged<O>> {
        match ev {
            LtEv::Submit { node, op } => {
                self.engine.metrics.incr(slot::TXN_SUBMITTED);
                self.engine.metrics.incr(slot::TXN_COMMITTED); // always available
                let seq = {
                    let slot = &mut self.nodes[node.0 as usize];
                    let s = slot.next_seq;
                    slot.next_seq += 1;
                    s
                };
                let entry = Entry {
                    ts: at,
                    origin: node,
                    seq,
                    op,
                };
                self.merge(node, entry.clone());
                // Exchange with everyone (retransmitted across partitions).
                let n = self.nodes.len() as u32;
                for i in 0..n {
                    let to = NodeId(i);
                    if to == node {
                        continue;
                    }
                    let actions = self
                        .net
                        .send(at, node, to, entry.clone(), &mut self.engine.rng);
                    self.schedule_net(actions);
                }
                Vec::new()
            }
            LtEv::Pkt(pd) => {
                let (released, actions) = self.net.on_packet(at, pd, &mut self.engine.rng);
                self.schedule_net(actions);
                released
                    .into_iter()
                    .map(|d| {
                        self.merge(d.to, d.msg.clone());
                        Merged {
                            node: d.to,
                            entry: d.msg,
                        }
                    })
                    .collect()
            }
            LtEv::Rto(timer) => {
                let actions = self.net.on_timer(at, timer, &mut self.engine.rng);
                self.schedule_net(actions);
                Vec::new()
            }
            LtEv::Net(change) => {
                self.net.apply_change(&change);
                Vec::new()
            }
        }
    }

    fn schedule_net(&mut self, actions: Vec<NetAction<Entry<O>>>) {
        crate::schedule_net(&mut self.engine, actions, LtEv::Pkt, LtEv::Rto);
    }

    /// Insert an entry into a node's log (sorted) and replay.
    fn merge(&mut self, node: NodeId, entry: Entry<O>) {
        let ns = &mut self.nodes[node.0 as usize];
        let pos = ns
            .log
            .partition_point(|e| (e.ts, e.origin, e.seq) <= (entry.ts, entry.origin, entry.seq));
        ns.log.insert(pos, entry);
        // The log transformation: deterministic full replay. This is the
        // measured reconciliation overhead.
        let mut state = O::State::default();
        for e in &ns.log {
            e.op.apply(&mut state);
        }
        self.engine
            .metrics
            .add(slot::REPLAY_OPS, ns.log.len() as u64);
        ns.state = state;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fragdb_sim::SimDuration;

    fn ms(x: u64) -> SimDuration {
        SimDuration::from_millis(x)
    }

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// Toy banking op for the tests.
    #[derive(Clone, Debug, PartialEq)]
    enum BankOp {
        Deposit(i64),
        Withdraw(i64),
    }

    impl LoggedOp for BankOp {
        type State = i64; // the balance
        fn apply(&self, state: &mut i64) {
            match self {
                BankOp::Deposit(x) => *state += x,
                BankOp::Withdraw(x) => *state -= x,
            }
        }
    }

    fn build(n: u32, seed: u64) -> LogTransformSystem<BankOp> {
        LogTransformSystem::build(Topology::full_mesh(n, ms(10)), LogTransformConfig { seed })
    }

    #[test]
    fn local_application_is_immediate() {
        let mut sys = build(2, 1);
        sys.submit_at(secs(1), NodeId(0), BankOp::Deposit(300));
        sys.run_until(secs(1));
        assert_eq!(*sys.state(NodeId(0)), 300);
        assert_eq!(*sys.state(NodeId(1)), 0, "not propagated yet");
    }

    #[test]
    fn connected_nodes_converge() {
        let mut sys = build(3, 2);
        sys.submit_at(secs(1), NodeId(0), BankOp::Deposit(300));
        sys.submit_at(secs(2), NodeId(1), BankOp::Withdraw(100));
        sys.run_until(secs(10));
        assert!(sys.converged());
        assert_eq!(*sys.state(NodeId(2)), 200);
    }

    #[test]
    fn partitioned_operation_stays_available_and_converges_on_heal() {
        let mut sys = build(2, 3);
        sys.submit_at(secs(1), NodeId(0), BankOp::Deposit(300));
        sys.run_until(secs(5));
        sys.net_change_at(secs(6), NetworkChange::LinkDown(NodeId(0), NodeId(1)));
        // Both sides withdraw $200 during the partition — the paper's
        // scenario 2: locally fine, globally overdrawn.
        sys.submit_at(secs(10), NodeId(0), BankOp::Withdraw(200));
        sys.submit_at(secs(10), NodeId(1), BankOp::Withdraw(200));
        sys.run_until(secs(20));
        assert_eq!(*sys.state(NodeId(0)), 100);
        assert_eq!(*sys.state(NodeId(1)), 100);
        assert!(!sys.converged() || *sys.state(NodeId(0)) == *sys.state(NodeId(1)));
        sys.net_change_at(secs(30), NetworkChange::HealAll);
        let merges = sys.run_until(secs(60));
        assert_eq!(merges.len(), 2, "each side merges the other's entry");
        assert!(sys.converged());
        assert_eq!(*sys.state(NodeId(0)), -100, "the overdraft is discovered");
    }

    #[test]
    fn replay_order_is_timestamp_deterministic() {
        // Same timestamp at two origins: (ts, origin, seq) breaks the tie
        // identically everywhere.
        let mut sys = build(2, 4);
        sys.submit_at(secs(1), NodeId(0), BankOp::Deposit(10));
        sys.submit_at(secs(1), NodeId(1), BankOp::Deposit(5));
        sys.run_until(secs(10));
        assert!(sys.converged());
        assert_eq!(*sys.state(NodeId(0)), 15);
        assert_eq!(sys.log_len(NodeId(0)), 2);
        assert_eq!(sys.log_len(NodeId(1)), 2);
    }

    #[test]
    fn duplicates_are_ignored() {
        let mut sys = build(2, 5);
        sys.submit_at(secs(1), NodeId(0), BankOp::Deposit(10));
        sys.run_until(secs(10));
        assert_eq!(sys.log_len(NodeId(1)), 1);
        // No way to inject a duplicate from outside: `ReliableNet` releases
        // each entry exactly once, so a repeated heal merges nothing twice.
        sys.net_change_at(secs(11), NetworkChange::HealAll);
        sys.run_until(secs(20));
        assert_eq!(sys.log_len(NodeId(1)), 1);
    }

    #[test]
    fn replay_overhead_is_measured() {
        let mut sys = build(2, 6);
        for i in 0..10u64 {
            sys.submit_at(secs(i + 1), NodeId(0), BankOp::Deposit(1));
        }
        sys.run_until(secs(60));
        // Each merge replays the whole log: overhead grows superlinearly.
        assert!(sys.engine.metrics.counter("replay.ops") > 20);
        assert_eq!(sys.engine.metrics.counter("txn.committed"), 10);
    }
}
