//! Simulation events and driver notifications.
//!
//! The [`System`] is driven by popping [`Ev`]s off the engine; each handled
//! event yields [`Notification`]s that the *driver* (workload/experiment
//! code) reacts to — e.g. the banking workload submits a BALANCES update
//! when it sees an ACTIVITY installation at the central office
//! (the §2 trigger), or assesses an overdraft fine (a corrective action).
//!
//! [`System`]: crate::system::System

use fragdb_model::{FragmentId, NodeId, QuasiTransaction, TxnId, Value};
use fragdb_net::{NetworkChange, PktDelivery, RetransmitTimer};
use fragdb_sim::SimTime;

use crate::envelope::Envelope;
use crate::program::UpdateFn;

/// A transaction submission from the driver.
pub struct Submission {
    /// The initiating agent's fragment. Updates execute at this fragment's
    /// current home node.
    pub fragment: FragmentId,
    /// The transaction body.
    pub program: UpdateFn,
    /// `true` for read-only transactions (no writes allowed; any node may
    /// run them).
    pub read_only: bool,
    /// §4.1 only: the foreign objects the transaction will read, declared
    /// up front so shared locks can be acquired before execution. Ignored
    /// by other strategies.
    pub foreign_reads: Vec<fragdb_model::ObjectId>,
    /// For read-only transactions: the node to execute at (defaults to the
    /// initiator fragment's home).
    pub at_node: Option<NodeId>,
}

impl Submission {
    /// An update transaction on `fragment`.
    pub fn update(fragment: FragmentId, program: UpdateFn) -> Self {
        Submission {
            fragment,
            program,
            read_only: false,
            foreign_reads: Vec::new(),
            at_node: None,
        }
    }

    /// An update transaction that declares the foreign objects it reads
    /// (required for §4.1 read locks).
    pub fn update_reading(
        fragment: FragmentId,
        foreign_reads: Vec<fragdb_model::ObjectId>,
        program: UpdateFn,
    ) -> Self {
        Submission {
            fragment,
            program,
            read_only: false,
            foreign_reads,
            at_node: None,
        }
    }

    /// A read-only transaction initiated by `fragment`'s agent.
    pub fn read_only(fragment: FragmentId, program: UpdateFn) -> Self {
        Submission {
            fragment,
            program,
            read_only: true,
            foreign_reads: Vec::new(),
            at_node: None,
        }
    }

    /// Pin execution to a specific node (read-only transactions).
    pub fn at(mut self, node: NodeId) -> Self {
        self.at_node = Some(node);
        self
    }

    /// Declare foreign reads (builder form).
    pub fn with_foreign_reads(mut self, objects: Vec<fragdb_model::ObjectId>) -> Self {
        self.foreign_reads = objects;
        self
    }
}

impl std::fmt::Debug for Submission {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Submission")
            .field("fragment", &self.fragment)
            .field("read_only", &self.read_only)
            .field("foreign_reads", &self.foreign_reads)
            .finish_non_exhaustive()
    }
}

/// A simulation event.
pub enum Ev {
    /// A transaction arrives.
    Submit(Submission),
    /// A network packet (data or ack) reaches its destination host.
    Pkt(PktDelivery<Envelope>),
    /// A reliable-layer retransmission timer fires.
    Rto(RetransmitTimer),
    /// The network changes (partition onset/heal, single link flaps).
    Net(NetworkChange),
    /// `node` fails: its volatile state (store, locks, staged prepares,
    /// hold-back queues) is lost; only the WAL survives. In-flight
    /// deliveries addressed to it are dropped on arrival.
    Crash(NodeId),
    /// `node` restarts: WAL replay rebuilds the store, then anti-entropy
    /// (`SeqQuery`) catches up on what was missed while down.
    Recover(NodeId),
    /// The driver moves `fragment`'s agent to `to` (token transfer is
    /// out-of-band, §3.1, so this fires regardless of partitions).
    Move {
        /// Fragment whose token moves.
        fragment: FragmentId,
        /// New home node.
        to: NodeId,
    },
    /// §4.4.2A: the physically transported fragment copy arrives at the
    /// new home.
    DataArrive {
        /// Fragment whose data was couriered.
        fragment: FragmentId,
        /// The new home receiving the copy.
        to: NodeId,
        /// The transported `(object, value)` snapshot.
        snapshot: Vec<(fragdb_model::ObjectId, Value)>,
        /// Next fragment sequence number to issue at the new home.
        next_frag_seq: u64,
        /// Token epoch after the move.
        epoch: u64,
    },
    /// A pending transaction's patience runs out (lock wait or majority
    /// wait); if still pending it aborts as unavailable.
    Timeout {
        /// The transaction to give up on.
        txn: TxnId,
    },
    /// A group-commit linger timer fired: flush `fragment`'s open batch if
    /// it is still the one the timer was armed for (`gen` matches).
    FlushBatch {
        /// Fragment whose open batch should flush.
        fragment: FragmentId,
        /// Generation of the batch the timer guards; stale timers no-op.
        gen: u64,
    },
    /// The failure-detector heartbeat period elapsed: every live node
    /// broadcasts a heartbeat and sweeps its local detector for newly
    /// silent peers. Never scheduled when the detector is off.
    DetectorTick,
    /// An election's patience ran out: if the election for `fragment` at
    /// `epoch` is still open, abort the round (a retry starts at the next
    /// detector tick if the home is still suspected).
    ElectionTimeout {
        /// Fragment whose token is being recovered.
        fragment: FragmentId,
        /// Token epoch the election was fenced to; stale timers no-op.
        epoch: u64,
    },
}

impl std::fmt::Debug for Ev {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Ev::Submit(s) => f.debug_tuple("Submit").field(s).finish(),
            Ev::Pkt(p) => {
                let what = match &p.pkt {
                    fragdb_net::Pkt::Data { id, msg, .. } => format!("data#{id} {}", msg.kind()),
                    fragdb_net::Pkt::Ack { upto } => format!("ack<{upto}"),
                };
                write!(f, "Pkt({what} {}->{})", p.from, p.to)
            }
            Ev::Rto(t) => write!(f, "Rto(gen{} {}->{})", t.gen, t.from, t.to),
            Ev::Net(c) => f.debug_tuple("Net").field(c).finish(),
            Ev::Crash(n) => write!(f, "Crash({n})"),
            Ev::Recover(n) => write!(f, "Recover({n})"),
            Ev::Move { fragment, to } => write!(f, "Move({fragment} -> {to})"),
            Ev::DataArrive { fragment, to, .. } => write!(f, "DataArrive({fragment} at {to})"),
            Ev::Timeout { txn } => write!(f, "Timeout({txn})"),
            Ev::FlushBatch { fragment, gen } => write!(f, "FlushBatch({fragment} gen{gen})"),
            Ev::DetectorTick => write!(f, "DetectorTick"),
            Ev::ElectionTimeout { fragment, epoch } => {
                write!(f, "ElectionTimeout({fragment} e{epoch})")
            }
        }
    }
}

/// Why a transaction failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AbortReason {
    /// The program's own logic aborted (e.g. overdraft refused).
    Logic(String),
    /// The initiation requirement was violated.
    Initiation,
    /// §4.1: lock acquisition deadlocked.
    Deadlock,
    /// Locks or majority acknowledgments didn't arrive in time —
    /// the operation was *unavailable*.
    Unavailable,
    /// §4.2: the transaction's declared class is not in the validated
    /// read-access graph.
    UndeclaredClass,
    /// The submission was malformed at the model level (e.g. it declared a
    /// read of an object belonging to no fragment).
    Model(fragdb_model::ModelError),
}

/// What the system tells the driver after handling an event.
#[derive(Clone, Debug)]
pub enum Notification {
    /// An update transaction committed at its home node.
    Committed {
        /// The transaction.
        txn: TxnId,
        /// Its fragment.
        fragment: FragmentId,
        /// Home node where it executed.
        node: NodeId,
        /// Commit time.
        at: SimTime,
    },
    /// A read-only transaction finished.
    ReadFinished {
        /// The transaction.
        txn: TxnId,
        /// Node it ran at.
        node: NodeId,
    },
    /// A transaction aborted.
    Aborted {
        /// The transaction.
        txn: TxnId,
        /// Its fragment.
        fragment: FragmentId,
        /// Why.
        reason: AbortReason,
    },
    /// A quasi-transaction was installed at a (remote) node. The banking
    /// trigger (§2) and all staleness metrics hang off this.
    Installed {
        /// Node that installed it.
        node: NodeId,
        /// The installed quasi-transaction.
        quasi: QuasiTransaction,
        /// Install time.
        at: SimTime,
    },
    /// A node crashed, losing its volatile state.
    Crashed {
        /// The failed node.
        node: NodeId,
        /// When it failed.
        at: SimTime,
    },
    /// A node came back: WAL replayed, anti-entropy catch-up under way.
    Recovered {
        /// The restarted node.
        node: NodeId,
        /// When it restarted.
        at: SimTime,
    },
    /// §4.4: an agent finished moving; update processing resumes at `node`.
    MoveCompleted {
        /// The fragment whose agent moved.
        fragment: FragmentId,
        /// The new home.
        node: NodeId,
        /// Completion time.
        at: SimTime,
    },
    /// A received quasi-transaction failed model-level validation and was
    /// refused instead of being installed (the replica is untouched).
    InstallRejected {
        /// Node that refused it.
        node: NodeId,
        /// The offending quasi-transaction's id.
        txn: TxnId,
        /// Fragment it claimed to update.
        fragment: FragmentId,
        /// What was wrong with it.
        error: fragdb_model::ModelError,
        /// When it was refused.
        at: SimTime,
    },
    /// §4.4.3: a missing (late) transaction was found and repackaged at the
    /// new home; the driver should run its corrective actions (e.g. cancel
    /// an overbooked reservation, assess a fine).
    MissingRepackaged {
        /// The fragment concerned.
        fragment: FragmentId,
        /// New home node that repackaged it.
        node: NodeId,
        /// The original late transaction.
        original: TxnId,
        /// The repackaged transaction carrying the surviving updates.
        repackaged: TxnId,
        /// Updates that survived the overwrite check.
        kept: Vec<(fragdb_model::ObjectId, Value)>,
        /// Updates dropped because newer values exist.
        dropped: Vec<(fragdb_model::ObjectId, Value)>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use fragdb_model::ObjectId;

    #[test]
    fn submission_builders_set_fields() {
        let s = Submission::update(FragmentId(1), Box::new(|_| Ok(())));
        assert!(!s.read_only);
        assert!(s.foreign_reads.is_empty());

        let s = Submission::update_reading(FragmentId(1), vec![ObjectId(9)], Box::new(|_| Ok(())));
        assert_eq!(s.foreign_reads, vec![ObjectId(9)]);

        let s = Submission::read_only(FragmentId(0), Box::new(|_| Ok(()))).at(NodeId(3));
        assert!(s.read_only);
        assert_eq!(s.at_node, Some(NodeId(3)));

        let s = Submission::update(FragmentId(0), Box::new(|_| Ok(())))
            .with_foreign_reads(vec![ObjectId(1)]);
        assert_eq!(s.foreign_reads, vec![ObjectId(1)]);
    }

    #[test]
    fn debug_impls_do_not_panic() {
        let s = Submission::update(FragmentId(0), Box::new(|_| Ok(())));
        let _ = format!("{s:?}");
        let ev = Ev::Move {
            fragment: FragmentId(0),
            to: NodeId(1),
        };
        assert!(format!("{ev:?}").contains("Move"));
        let ev = Ev::Timeout {
            txn: TxnId::new(NodeId(0), 3),
        };
        assert!(format!("{ev:?}").contains("T0.3"));
    }
}
