//! Every message nodes exchange.
//!
//! One envelope type keeps the transport monomorphic and makes the full
//! protocol surface visible in one place. Messages group into:
//!
//! * **update propagation** (§3.2): [`Envelope::Quasi`];
//! * **read-lock protocol** (§4.1): `LockReq` / `LockGrant` / `LockDenied`
//!   / `LockRelease`;
//! * **majority commit** (§4.4.1): `Prepare` / `PrepareAck` / `CommitCmd`
//!   / `AbortCmd`, and `SeqQuery` / `SeqReply` for the move-time catch-up;
//! * **unprepared movement** (§4.4.3): `M0` (the catch-up announcement)
//!   and `ForwardMissing` (a late old-regime transaction routed to the new
//!   home).

use std::sync::Arc;

use fragdb_model::{FragmentId, NodeId, ObjectId, QuasiTransaction, TxnId, Value};
use fragdb_sim::metrics::keys::slot;
use fragdb_sim::metrics::Slot;
use fragdb_storage::WalEntry;

/// A network message.
#[derive(Clone, Debug)]
pub enum Envelope {
    /// A broadcast quasi-transaction (§3.2).
    Quasi {
        /// The propagated updates.
        quasi: QuasiTransaction,
    },
    /// A group-commit batch: consecutive quasi-transactions for one
    /// fragment coalesced into a single broadcast envelope. Each element
    /// keeps its own causal id `(fragment, epoch, frag_seq)`, so the
    /// receiver unpacks them through the ordinary install paths and
    /// telemetry's commit→install join is unchanged.
    Batch {
        /// The batched quasi-transactions, in `frag_seq` order, shared by
        /// every recipient's copy and retransmission buffer.
        batch: Arc<[QuasiTransaction]>,
    },

    // ---- §4.1 read-lock protocol -------------------------------------
    /// Request shared locks on `objects` at the receiving node (the home
    /// of the fragment owning them) on behalf of `txn`.
    LockReq {
        /// The requesting transaction.
        txn: TxnId,
        /// Objects to lock (all owned by fragments homed at the receiver).
        objects: Vec<ObjectId>,
        /// Node to send the grant back to.
        reply_to: NodeId,
    },
    /// All requested locks are held; carries the current values at the
    /// lock site so the reader sees a globally-consistent snapshot.
    LockGrant {
        /// The requesting transaction.
        txn: TxnId,
        /// `(object, value-at-grant-time)` pairs.
        values: Vec<(ObjectId, Value)>,
    },
    /// The request would deadlock; the transaction must abort.
    LockDenied {
        /// The requesting transaction.
        txn: TxnId,
    },
    /// The transaction finished; drop all its locks at the receiver.
    LockRelease {
        /// The finished transaction.
        txn: TxnId,
    },

    // ---- §4.4.1 majority commit ---------------------------------------
    /// Stage this quasi-transaction and acknowledge.
    Prepare {
        /// The staged updates.
        quasi: QuasiTransaction,
    },
    /// Acknowledgment of a `Prepare`.
    PrepareAck {
        /// The staged transaction.
        txn: TxnId,
        /// The acknowledging node.
        from: NodeId,
    },
    /// Commit the previously staged quasi-transaction.
    CommitCmd {
        /// The staged transaction to commit.
        txn: TxnId,
        /// Its fragment — lets a receiver that lost the staged copy (crash)
        /// fetch the committed entry from the home instead.
        fragment: FragmentId,
    },
    /// Abandon the previously staged quasi-transaction.
    AbortCmd {
        /// The staged transaction to drop.
        txn: TxnId,
    },
    /// "Which transactions on `fragment` have you seen?" — the §4.4.1
    /// move-time catch-up, also reused as crash-recovery anti-entropy.
    SeqQuery {
        /// Fragment being recovered.
        fragment: FragmentId,
        /// Highest `frag_seq` the querier already has.
        have: Option<u64>,
        /// Highest `frag_seq` the querier wants (inclusive), or `None` for
        /// "everything you have". Crash recovery bounds the request at its
        /// known catch-up target so the reply is a closed range served
        /// straight from the responder's WAL `frag_seq` index — updates
        /// committed after the query was sent travel as ordinary
        /// broadcasts, not in the reply.
        upto: Option<u64>,
        /// Node to reply to.
        reply_to: NodeId,
        /// Whether staged-but-uncommitted prepares count as "seen". The
        /// §4.4.1 move needs them (a majority *acknowledged* them); crash
        /// recovery must not resurrect them (their outcome is the live
        /// home's to decide).
        include_staged: bool,
    },
    /// Reply carrying the WAL entries the querier is missing.
    SeqReply {
        /// Fragment being recovered.
        fragment: FragmentId,
        /// Replying node.
        from: NodeId,
        /// The replier's highest installed `frag_seq` when it answered: a
        /// §4.4.1 home sends a member behind it the tail it lacks.
        frontier: Option<u64>,
        /// Entries with `frag_seq` above the querier's `have`.
        entries: Vec<WalEntry>,
    },

    // ---- §4.4.3 unprepared movement ------------------------------------
    /// New home `Y` announces the old-regime transactions it knows,
    /// carrying them so laggards can catch up (protocol step B.1).
    M0 {
        /// Fragment whose agent moved.
        fragment: FragmentId,
        /// The regime (epoch) that just ended.
        old_epoch: u64,
        /// Highest old-regime `frag_seq` installed at the new home (`i`).
        last_seq: Option<u64>,
        /// The old-regime WAL entries the new home has, for catch-up.
        entries: Vec<WalEntry>,
        /// The new home node (`Y`), where missing transactions are forwarded.
        new_home: NodeId,
    },
    /// A late old-regime quasi-transaction forwarded to the new home
    /// (protocol step B.2).
    ForwardMissing {
        /// The late quasi-transaction.
        quasi: QuasiTransaction,
    },

    // ---- self-healing token recovery ----------------------------------
    /// "I am alive" — periodic liveness beacon from the failure detector.
    Heartbeat {
        /// The beating node.
        from: NodeId,
        /// The sender's beat counter, monotone per node.
        beat: u64,
    },
    /// An election initiator asks a replica to vote for re-homing
    /// `fragment`'s token away from its suspected home.
    VoteReq {
        /// Fragment whose home is suspected.
        fragment: FragmentId,
        /// The token epoch the initiator observed; a voter refuses when
        /// its own view has moved past it (a newer election or an
        /// explicit move already re-homed the token).
        epoch: u64,
        /// Proposed new home (the initiator itself).
        candidate: NodeId,
        /// Node to send the vote back to.
        reply_to: NodeId,
    },
    /// A replica's answer to a [`Envelope::VoteReq`].
    Vote {
        /// Fragment being voted on.
        fragment: FragmentId,
        /// Epoch the vote fences on (copied from the request).
        epoch: u64,
        /// The voting node.
        from: NodeId,
        /// `true` = vote granted; `false` = refused (stale epoch, or this
        /// voter already granted another candidate this epoch).
        granted: bool,
    },
}

impl Envelope {
    /// Short tag for metrics and traces: the metric key without its
    /// `msg.` prefix.
    pub fn kind(&self) -> &'static str {
        &self.metric_key()["msg.".len()..]
    }

    /// The `msg.<kind>` metric key.
    pub fn metric_key(&self) -> &'static str {
        self.metric_slot().key()
    }

    /// The counter slot of the `msg.<kind>` key, so the delivery hot path
    /// counts messages without a string comparison.
    pub fn metric_slot(&self) -> Slot {
        match self {
            Self::Quasi { .. } => slot::MSG_QUASI,
            Self::Batch { .. } => slot::MSG_BATCH,
            Self::LockReq { .. } => slot::MSG_LOCK_REQ,
            Self::LockGrant { .. } => slot::MSG_LOCK_GRANT,
            Self::LockDenied { .. } => slot::MSG_LOCK_DENIED,
            Self::LockRelease { .. } => slot::MSG_LOCK_RELEASE,
            Self::Prepare { .. } => slot::MSG_PREPARE,
            Self::PrepareAck { .. } => slot::MSG_PREPARE_ACK,
            Self::CommitCmd { .. } => slot::MSG_COMMIT_CMD,
            Self::AbortCmd { .. } => slot::MSG_ABORT_CMD,
            Self::SeqQuery { .. } => slot::MSG_SEQ_QUERY,
            Self::SeqReply { .. } => slot::MSG_SEQ_REPLY,
            Self::M0 { .. } => slot::MSG_M0,
            Self::ForwardMissing { .. } => slot::MSG_FORWARD_MISSING,
            Self::Heartbeat { .. } => slot::MSG_HEARTBEAT,
            Self::VoteReq { .. } => slot::MSG_VOTE_REQ,
            Self::Vote { .. } => slot::MSG_VOTE,
        }
    }

    /// Approximate bytes of immutable shared payload this envelope carries,
    /// if any — the amount that a per-receiver deep copy used to duplicate
    /// before payloads were reference-counted. Drives the `payload.shares`
    /// / `payload.share_bytes` cost-model metrics.
    pub fn payload_bytes(&self) -> Option<u64> {
        match self {
            Envelope::Quasi { quasi, .. }
            | Envelope::Prepare { quasi, .. }
            | Envelope::ForwardMissing { quasi } => Some(quasi.updates.approx_bytes()),
            Envelope::Batch { batch, .. } => {
                Some(batch.iter().map(|q| q.updates.approx_bytes()).sum())
            }
            Envelope::M0 { entries, .. } | Envelope::SeqReply { entries, .. } => {
                Some(entries.iter().map(|e| e.updates.approx_bytes()).sum())
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_distinct() {
        let q = Envelope::LockRelease {
            txn: TxnId::new(NodeId(0), 0),
        };
        assert_eq!(q.kind(), "lock_release");
    }

    #[test]
    fn metric_key_matches_kind_and_registry() {
        let q = Envelope::LockRelease {
            txn: TxnId::new(NodeId(0), 0),
        };
        assert_eq!(q.metric_key(), "msg.lock_release");
        assert_eq!(q.metric_key(), format!("msg.{}", q.kind()));
        // The name reads back the counter the slot writes.
        let mut m = fragdb_sim::Metrics::new();
        m.incr(q.metric_slot());
        assert_eq!(m.counter(q.metric_key()), 1);
        assert!(fragdb_sim::metrics::keys::MSG_KEYS.contains(&q.metric_key()));
    }

    #[test]
    fn self_heal_envelopes_are_registered_and_carry_no_payload() {
        for env in [
            Envelope::Heartbeat {
                from: NodeId(1),
                beat: 3,
            },
            Envelope::VoteReq {
                fragment: FragmentId(0),
                epoch: 2,
                candidate: NodeId(1),
                reply_to: NodeId(1),
            },
            Envelope::Vote {
                fragment: FragmentId(0),
                epoch: 2,
                from: NodeId(2),
                granted: true,
            },
        ] {
            assert_eq!(env.payload_bytes(), None);
            assert_eq!(env.metric_key(), format!("msg.{}", env.kind()));
            assert!(fragdb_sim::metrics::keys::MSG_KEYS.contains(&env.metric_key()));
        }
    }
}
