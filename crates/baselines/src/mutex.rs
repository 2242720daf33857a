//! The mutual-exclusion baseline (§1, conservative end of the spectrum).
//!
//! One node is the **primary**; every transaction — update or read — must
//! execute there. A node can serve a user only while it can reach the
//! primary; during a partition, the group without the primary is dead.
//! All access is serial at the primary, so executions are trivially
//! globally serializable. This is the technique that, in the paper's §1
//! banking example, sends the node-B customer home empty-handed.
//!
//! Committed updates propagate to the other replicas FIFO-from-primary,
//! exactly like fragdb's quasi-transactions, so replicas converge.

use std::collections::BTreeMap;
use std::rc::Rc;

use fragdb_model::{FragmentId, History, NodeId, ObjectId, OpKind, TxnId, TxnType, Value};
use fragdb_net::{
    Delivery, NetAction, NetworkChange, PktDelivery, ReliableNet, ReliableStats, RetransmitTimer,
    Topology,
};
use fragdb_sim::metrics::keys::slot;
use fragdb_sim::{Engine, SimTime};
use fragdb_storage::Replica;

/// The whole database is one logical fragment under mutual exclusion.
const WHOLE_DB: FragmentId = FragmentId(0);

/// A transaction body: reads and buffered writes against the primary copy.
/// Shared, because the reliable layer keeps a copy of every forwarded
/// message until it is acknowledged.
pub type MxProgram = Rc<dyn Fn(&mut MxCtx<'_>) -> Result<(), String>>;

/// Execution context at the primary.
pub struct MxCtx<'a> {
    replica: &'a Replica,
    writes: Vec<(ObjectId, Value)>,
    reads: Vec<ObjectId>,
}

impl<'a> MxCtx<'a> {
    /// Read an object's current (primary) value, honoring own writes.
    pub fn read(&mut self, object: ObjectId) -> Value {
        if let Some((_, v)) = self.writes.iter().rev().find(|(o, _)| *o == object) {
            return v.clone();
        }
        self.reads.push(object);
        self.replica.read(object).clone()
    }

    /// Read as integer with a default for `Null`.
    pub fn read_int(&mut self, object: ObjectId, default: i64) -> i64 {
        self.read(object)
            .as_int_or(default)
            .expect("read_int on non-integer object")
    }

    /// Buffer a write.
    pub fn write(&mut self, object: ObjectId, value: impl Into<Value>) {
        self.writes.push((object, value.into()));
    }
}

/// Events driving the baseline.
pub enum MxEv {
    /// A user at `node` submits a transaction.
    Submit {
        /// Where the user is.
        node: NodeId,
        /// What they want done.
        program: MxProgram,
        /// Read-only transactions are forwarded too (mutual exclusion
        /// restricts *access*, not just updates).
        read_only: bool,
    },
    /// A packet arrives.
    Pkt(PktDelivery<MxMsg>),
    /// A link's retransmission timer fires.
    Rto(RetransmitTimer),
    /// Network change.
    Net(NetworkChange),
}

/// Messages exchanged.
#[derive(Clone)]
pub enum MxMsg {
    /// A forwarded transaction on its way to the primary.
    Forward {
        /// The transaction body.
        program: MxProgram,
        /// Read-only transactions skip propagation.
        read_only: bool,
        /// When the user submitted it (for latency measurement).
        submitted_at: SimTime,
    },
    /// Committed updates propagating from the primary, FIFO.
    Install {
        /// The committing transaction.
        txn: TxnId,
        /// Position in the primary's commit order.
        seq: u64,
        /// The `(object, value)` pairs to install.
        updates: fragdb_model::Updates,
    },
}

/// What happened, reported to the driver.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MxOutcome {
    /// Update committed at the primary.
    Committed(TxnId),
    /// Read-only transaction served at the primary.
    ReadServed(TxnId),
    /// The program aborted itself.
    LogicAbort(String),
    /// The submitter could not reach the primary.
    Unavailable,
}

/// Configuration.
#[derive(Clone, Debug)]
pub struct MutexConfig {
    /// The single node allowed to access the data.
    pub primary: NodeId,
    /// RNG seed.
    pub seed: u64,
}

/// The mutual-exclusion system.
pub struct MutexSystem {
    /// The event engine.
    pub engine: Engine<MxEv>,
    /// Executed history (all access at the primary).
    pub history: History,
    net: ReliableNet<MxMsg>,
    replicas: Vec<Replica>,
    primary: NodeId,
    next_txn: u64,
    next_seq: u64,
}

impl MutexSystem {
    /// Build over a topology.
    pub fn build(topology: Topology, config: MutexConfig) -> Self {
        let n = topology.node_count();
        assert!(config.primary.0 < n, "primary out of range");
        MutexSystem {
            engine: Engine::new(config.seed),
            history: History::new(),
            net: ReliableNet::new(topology),
            replicas: (0..n).map(|i| Replica::new(NodeId(i))).collect(),
            primary: config.primary,
            next_txn: 0,
            next_seq: 0,
        }
    }

    /// Schedule a submission.
    pub fn submit_at(&mut self, at: SimTime, node: NodeId, read_only: bool, program: MxProgram) {
        self.engine.schedule_at(
            at,
            MxEv::Submit {
                node,
                program,
                read_only,
            },
        );
    }

    /// Schedule a network change.
    pub fn net_change_at(&mut self, at: SimTime, change: NetworkChange) {
        self.engine.schedule_at(at, MxEv::Net(change));
    }

    /// Pump all events up to `limit`, returning outcomes in order.
    pub fn run_until(&mut self, limit: SimTime) -> Vec<(SimTime, MxOutcome)> {
        let mut out = Vec::new();
        while let Some((at, ev)) = self.engine.pop_until(limit) {
            out.extend(self.handle(at, ev).into_iter().map(|o| (at, o)));
        }
        out
    }

    /// A node's replica.
    pub fn replica(&self, node: NodeId) -> &Replica {
        &self.replicas[node.0 as usize]
    }

    /// Reliable-network activity counters.
    pub fn net_stats(&self) -> ReliableStats {
        self.net.stats()
    }

    /// Do all replicas agree on `objects`?
    pub fn converged(&self, objects: &[ObjectId]) -> bool {
        let mut ds = self.replicas.iter().map(|r| r.digest(objects));
        let first = ds.next().expect("at least one replica");
        ds.all(|d| d == first)
    }

    fn handle(&mut self, at: SimTime, ev: MxEv) -> Vec<MxOutcome> {
        match ev {
            MxEv::Submit {
                node,
                program,
                read_only,
            } => {
                self.engine.metrics.incr(slot::TXN_SUBMITTED);
                if node == self.primary {
                    return self.execute_at_primary(at, program, read_only, at);
                }
                if !self.net.connected(node, self.primary) {
                    // Mutual exclusion: no primary, no service.
                    self.engine.metrics.incr(slot::ABORT_UNAVAILABLE);
                    return vec![MxOutcome::Unavailable];
                }
                let msg = MxMsg::Forward {
                    program,
                    read_only,
                    submitted_at: at,
                };
                self.send(at, node, self.primary, msg);
                Vec::new()
            }
            MxEv::Pkt(pd) => {
                let (released, actions) = self.net.on_packet(at, pd, &mut self.engine.rng);
                self.schedule_net(actions);
                let mut out = Vec::new();
                for d in released {
                    out.extend(self.deliver(at, d));
                }
                out
            }
            MxEv::Rto(timer) => {
                let actions = self.net.on_timer(at, timer, &mut self.engine.rng);
                self.schedule_net(actions);
                Vec::new()
            }
            MxEv::Net(change) => {
                self.net.apply_change(&change);
                Vec::new()
            }
        }
    }

    fn send(&mut self, at: SimTime, from: NodeId, to: NodeId, msg: MxMsg) {
        let actions = self.net.send(at, from, to, msg, &mut self.engine.rng);
        self.schedule_net(actions);
    }

    fn schedule_net(&mut self, actions: Vec<NetAction<MxMsg>>) {
        crate::schedule_net(&mut self.engine, actions, MxEv::Pkt, MxEv::Rto);
    }

    fn deliver(&mut self, at: SimTime, d: Delivery<MxMsg>) -> Vec<MxOutcome> {
        match d.msg {
            MxMsg::Forward {
                program,
                read_only,
                submitted_at,
            } => self.execute_at_primary(at, program, read_only, submitted_at),
            MxMsg::Install { txn, seq, updates } => {
                // FIFO from the primary: `ReliableNet` releases each
                // pair's messages once and in order.
                let quasi = fragdb_model::QuasiTransaction {
                    txn,
                    fragment: WHOLE_DB,
                    frag_seq: seq,
                    epoch: 0,
                    updates,
                };
                self.replicas[d.to.0 as usize].install_quasi(&quasi, at);
                for (o, _) in &quasi.updates {
                    self.history
                        .record_install(d.to, txn, TxnType::Update(WHOLE_DB), *o, at);
                }
                self.engine.metrics.incr(slot::INSTALL_COUNT);
                Vec::new()
            }
        }
    }

    fn execute_at_primary(
        &mut self,
        at: SimTime,
        program: MxProgram,
        read_only: bool,
        submitted_at: SimTime,
    ) -> Vec<MxOutcome> {
        let txn = TxnId::new(self.primary, self.next_txn);
        self.next_txn += 1;
        let (result, reads, writes) = {
            let replica = &self.replicas[self.primary.0 as usize];
            let mut ctx = MxCtx {
                replica,
                writes: Vec::new(),
                reads: Vec::new(),
            };
            let r = program(&mut ctx);
            (r, ctx.reads, ctx.writes)
        };
        if let Err(msg) = result {
            self.engine.metrics.incr(slot::ABORT_LOGIC);
            return vec![MxOutcome::LogicAbort(msg)];
        }
        let ttype = if read_only {
            TxnType::ReadOnly(WHOLE_DB)
        } else {
            TxnType::Update(WHOLE_DB)
        };
        for o in &reads {
            self.history
                .record_local(self.primary, txn, ttype, OpKind::Read, *o, at);
        }
        self.engine
            .metrics
            .observe(slot::LATENCY_COMMIT, (at - submitted_at).micros());
        if read_only {
            self.engine.metrics.incr(slot::TXN_READ_FINISHED);
            return vec![MxOutcome::ReadServed(txn)];
        }
        // Deduplicate writes last-wins.
        let mut order: Vec<ObjectId> = Vec::new();
        let mut last: BTreeMap<ObjectId, Value> = BTreeMap::new();
        for (o, v) in writes {
            if !last.contains_key(&o) {
                order.push(o);
            }
            last.insert(o, v);
        }
        // Materialized once; every receiver's Install message, the primary's
        // WAL entry, and all replica WAL entries share the allocation.
        let updates: fragdb_model::Updates = order
            .into_iter()
            .map(|o| {
                let v = last.remove(&o).expect("present");
                (o, v)
            })
            .collect();
        self.engine.metrics.incr(slot::PAYLOAD_CLONES);
        for (o, _) in &updates {
            self.history
                .record_local(self.primary, txn, ttype, OpKind::Write, *o, at);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.replicas[self.primary.0 as usize].commit_local(
            txn,
            WHOLE_DB,
            seq,
            0,
            updates.clone(),
            at,
        );
        self.engine.metrics.incr(slot::TXN_COMMITTED);
        // Fan out, FIFO from the primary.
        let n = self.replicas.len() as u32;
        for i in 0..n {
            let to = NodeId(i);
            if to == self.primary {
                continue;
            }
            let msg = MxMsg::Install {
                txn,
                seq,
                updates: updates.clone(),
            };
            self.send(at, self.primary, to, msg);
        }
        vec![MxOutcome::Committed(txn)]
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

    fn write_program(object: ObjectId, value: i64) -> MxProgram {
        Rc::new(move |ctx| {
            ctx.write(object, value);
            Ok(())
        })
    }

    #[test]
    fn primary_executes_and_propagates() {
        let mut sys = MutexSystem::build(
            Topology::full_mesh(3, ms(10)),
            MutexConfig {
                primary: NodeId(0),
                seed: 1,
            },
        );
        sys.submit_at(secs(1), NodeId(0), false, write_program(ObjectId(0), 5));
        let outcomes = sys.run_until(secs(10));
        assert!(matches!(outcomes[0].1, MxOutcome::Committed(_)));
        for i in 0..3u32 {
            assert_eq!(sys.replica(NodeId(i)).read(ObjectId(0)), &Value::Int(5));
        }
        assert!(sys.converged(&[ObjectId(0)]));
    }

    #[test]
    fn remote_submission_forwards_to_primary() {
        let mut sys = MutexSystem::build(
            Topology::full_mesh(3, ms(10)),
            MutexConfig {
                primary: NodeId(0),
                seed: 2,
            },
        );
        sys.submit_at(secs(1), NodeId(2), false, write_program(ObjectId(0), 7));
        let outcomes = sys.run_until(secs(10));
        assert_eq!(outcomes.len(), 1);
        assert!(matches!(outcomes[0].1, MxOutcome::Committed(_)));
        // Committed at the primary ~10ms after submission.
        assert!(outcomes[0].0 > secs(1));
        assert_eq!(sys.replica(NodeId(1)).read(ObjectId(0)), &Value::Int(7));
    }

    #[test]
    fn partitioned_node_is_denied() {
        let mut sys = MutexSystem::build(
            Topology::full_mesh(3, ms(10)),
            MutexConfig {
                primary: NodeId(0),
                seed: 3,
            },
        );
        sys.net_change_at(
            SimTime::ZERO,
            NetworkChange::Split(vec![vec![NodeId(0), NodeId(1)], vec![NodeId(2)]]),
        );
        sys.submit_at(secs(1), NodeId(2), false, write_program(ObjectId(0), 7));
        sys.submit_at(secs(1), NodeId(1), false, write_program(ObjectId(1), 8));
        let outcomes = sys.run_until(secs(10));
        let kinds: Vec<&MxOutcome> = outcomes.iter().map(|(_, o)| o).collect();
        assert!(kinds.contains(&&MxOutcome::Unavailable), "node 2 denied");
        assert!(
            kinds.iter().any(|o| matches!(o, MxOutcome::Committed(_))),
            "node 1 (with primary) served"
        );
        assert_eq!(sys.engine.metrics.counter("abort.unavailable"), 1);
    }

    #[test]
    fn reads_are_also_forwarded_and_denied_without_primary() {
        let mut sys = MutexSystem::build(
            Topology::full_mesh(2, ms(10)),
            MutexConfig {
                primary: NodeId(0),
                seed: 4,
            },
        );
        sys.submit_at(secs(1), NodeId(0), false, write_program(ObjectId(0), 9));
        sys.submit_at(
            secs(2),
            NodeId(1),
            true,
            Rc::new(|ctx| {
                assert_eq!(ctx.read_int(ObjectId(0), -1), 9, "read sees primary state");
                Ok(())
            }),
        );
        let outcomes = sys.run_until(secs(10));
        assert!(outcomes
            .iter()
            .any(|(_, o)| matches!(o, MxOutcome::ReadServed(_))));

        sys.net_change_at(secs(20), NetworkChange::LinkDown(NodeId(0), NodeId(1)));
        sys.submit_at(secs(21), NodeId(1), true, Rc::new(|_| Ok(())));
        let outcomes = sys.run_until(secs(30));
        assert!(outcomes.iter().any(|(_, o)| *o == MxOutcome::Unavailable));
    }

    #[test]
    fn logic_abort_reported() {
        let mut sys = MutexSystem::build(
            Topology::full_mesh(2, ms(10)),
            MutexConfig {
                primary: NodeId(0),
                seed: 5,
            },
        );
        sys.submit_at(
            secs(1),
            NodeId(0),
            false,
            Rc::new(|ctx| {
                let bal = ctx.read_int(ObjectId(0), 0);
                if bal < 100 {
                    return Err("insufficient".into());
                }
                ctx.write(ObjectId(0), bal - 100);
                Ok(())
            }),
        );
        let outcomes = sys.run_until(secs(10));
        assert_eq!(outcomes[0].1, MxOutcome::LogicAbort("insufficient".into()));
    }

    #[test]
    fn history_is_globally_serializable() {
        let mut sys = MutexSystem::build(
            Topology::full_mesh(3, ms(10)),
            MutexConfig {
                primary: NodeId(1),
                seed: 6,
            },
        );
        for i in 0..5u64 {
            sys.submit_at(
                secs(i + 1),
                NodeId((i % 3) as u32),
                false,
                Rc::new(move |ctx| {
                    let v = ctx.read_int(ObjectId(0), 0);
                    ctx.write(ObjectId(0), v + 1);
                    Ok(())
                }),
            );
        }
        sys.run_until(secs(60));
        assert_eq!(
            sys.replica(NodeId(1)).read(ObjectId(0)),
            &Value::Int(5),
            "serial counter"
        );
        let verdict = fragdb_graphs::analyze(&sys.history);
        assert!(verdict.globally_serializable);
    }
}
