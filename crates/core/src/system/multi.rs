//! Multi-fragment update transactions (the §3.2 footnote).
//!
//! *"When this cannot be done, a semblance of the two-phase commit
//! protocol can be used, that involves the agents of all the fragments
//! that are being updated."*
//!
//! The coordinator is the **first** fragment's agent home. It runs the
//! program against its own replica, partitions the buffered writes by
//! fragment, and runs a two-phase commit with each written fragment's
//! agent:
//!
//! 1. `MfPrepare` — each agent *stages* its share: it reserves the next
//!    position in its fragment's update sequence, marks the fragment busy
//!    (blocking other updates on it until resolution — the classical 2PC
//!    blocking cost, which shows up as measured queueing), and votes.
//!    An agent whose fragment is already bound to another 2PC, mid-move,
//!    or mid-majority-commit votes **no**.
//! 2. On unanimous yes votes the coordinator sends `MfCommit`: each agent
//!    commits its share under a *local* transaction id (updates to a
//!    fragment still originate only from its agent — the paper's core
//!    invariant) and broadcasts the share as an ordinary quasi-transaction.
//!    On any no vote, or on timeout, `MfAbort` releases the stage and
//!    returns the reserved sequence number.
//!
//! Shares commit at their agents at slightly different instants, so a
//! reader can observe one share before another — consistent with
//! fragmentwise serializability, which never protects multi-fragment
//! predicates (§4.3). Atomicity here is all-or-nothing *durability*, not
//! isolation.
//!
//! Known limitation (documented, asserted in tests): moving the agent of a
//! fragment while it participates in an in-flight 2PC is unsupported; the
//! coordinator timeout plus `MfAbort` eventually release the fragment, but
//! the reserved sequence number may leave a gap if the token moved
//! meanwhile. Drivers should quiesce a fragment before moving it.

use std::collections::BTreeMap;

use fragdb_model::{
    FragmentId, NodeId, ObjectId, QuasiTransaction, TxnId, TxnType, Updates, Value,
};
use fragdb_sim::metrics::keys;
use fragdb_sim::{SimTime, TelemetryEvent};

use crate::envelope::Envelope;
use crate::events::{AbortReason, Notification, Submission};
use crate::system::{MfStage, Pending, System};

impl System {
    /// Coordinator entry: run the program, partition writes, fire prepares.
    pub(crate) fn begin_multi_update(
        &mut self,
        at: SimTime,
        home: NodeId,
        sub: Submission,
    ) -> Vec<Notification> {
        let xid = self.alloc_txn(home);
        let first = sub.fragment;
        let declared: Vec<FragmentId> = std::iter::once(first)
            .chain(sub.extra_fragments.iter().copied())
            .collect();

        // Execute against the coordinator's replica.
        let no_grants = BTreeMap::new();
        let effects = match self.run_program(
            at,
            home,
            xid,
            first,
            &sub.extra_fragments,
            &no_grants,
            false,
            sub.program,
        ) {
            Ok(e) => e,
            Err(reason) => return self.finish_abort(xid, first, reason),
        };

        // Partition writes per fragment.
        let mut shares: BTreeMap<FragmentId, Vec<(ObjectId, Value)>> = BTreeMap::new();
        for (o, v) in effects.writes {
            let f = self.catalog.fragment_of(o).expect("validated by ctx");
            shares.entry(f).or_default().push((o, v));
        }
        // Degenerate case: everything landed in the initiating fragment —
        // commit through the ordinary single-fragment path, which also
        // routes through majority commit when that policy applies. (If the
        // single written fragment is NOT the initiator's, fall through to
        // the 2PC machinery so the write still commits at that fragment's
        // own agent home.)
        let only_first = shares.len() <= 1 && shares.keys().next().is_none_or(|&f| f == first);
        if only_first {
            let writes = shares.into_values().next().unwrap_or_default();
            let effects = crate::program::TxnEffects {
                reads: effects.reads,
                writes,
            };
            if self.move_policy_for(first).needs_majority_commit() {
                return self.begin_majority_commit(at, home, xid, first, effects);
            }
            let mut notes = self.commit_update(at, home, xid, first, effects);
            notes.extend(self.observe_commit_latency(at, at));
            return notes;
        }

        // One materialization per share; each participant's envelope,
        // retransmission buffer, staged copy, WAL entry, and rebroadcast
        // share it.
        let mut payloads: BTreeMap<FragmentId, Updates> = BTreeMap::new();
        for (f, w) in shares {
            let payload = self.materialize_payload(w);
            payloads.insert(f, payload);
        }
        let participants: Vec<(FragmentId, NodeId)> =
            payloads.keys().map(|&f| (f, self.tokens.home(f))).collect();
        debug_assert!(participants
            .iter()
            .any(|(f, _)| *f == first || declared.contains(f)));
        self.engine.metrics.incr(keys::MF_STARTED);
        self.pending.insert(
            xid,
            Pending::MultiCoord {
                participants: participants.clone(),
                votes: Default::default(),
                home,
                reads: effects.reads,
                submitted_at: at,
            },
        );
        let timeout = self.mf_timeout;
        self.arm_timeout(timeout, xid);

        let mut notes = Vec::new();
        for (fragment, agent_home) in participants {
            let env = Envelope::MfPrepare {
                xid,
                fragment,
                updates: payloads[&fragment].clone(),
                reply_to: home,
            };
            notes.extend(self.send_direct(at, home, agent_home, env));
        }
        notes
    }

    /// Participant: stage a share, reserve the sequence slot, vote.
    pub(crate) fn on_mf_prepare(
        &mut self,
        at: SimTime,
        node: NodeId,
        xid: TxnId,
        fragment: FragmentId,
        updates: Updates,
        reply_to: NodeId,
    ) -> Vec<Notification> {
        let busy = self.mf_inflight.contains_key(&fragment)
            || self.majority_inflight.contains_key(&fragment)
            || self.move_state.contains_key(&fragment)
            || !self.tokens.is_home(fragment, node);
        if busy {
            self.engine.metrics.incr(keys::MF_VOTE_NO);
            return self.send_direct(
                at,
                node,
                reply_to,
                Envelope::MfVote {
                    xid,
                    fragment,
                    yes: false,
                },
            );
        }
        let local_txn = self.alloc_txn(node);
        let frag_seq = self.tokens.alloc_frag_seq(fragment);
        let epoch = self.tokens.epoch(fragment);
        self.mf_inflight.insert(fragment, xid);
        self.nodes[node.0 as usize].mf_staged.insert(
            (xid, fragment),
            MfStage {
                local_txn,
                frag_seq,
                epoch,
                updates,
            },
        );
        self.send_direct(
            at,
            node,
            reply_to,
            Envelope::MfVote {
                xid,
                fragment,
                yes: true,
            },
        )
    }

    /// Coordinator: collect votes; commit on unanimity, abort on refusal.
    pub(crate) fn on_mf_vote(
        &mut self,
        at: SimTime,
        xid: TxnId,
        fragment: FragmentId,
        yes: bool,
    ) -> Vec<Notification> {
        if !yes {
            return self.abort_pending(at, xid, AbortReason::Unavailable);
        }
        let ready = match self.pending.get_mut(&xid) {
            Some(Pending::MultiCoord {
                participants,
                votes,
                ..
            }) => {
                votes.insert(fragment);
                votes.len() == participants.len()
            }
            _ => false, // already resolved
        };
        if !ready {
            return Vec::new();
        }
        let Some(Pending::MultiCoord {
            participants,
            home,
            reads,
            submitted_at,
            ..
        }) = self.pending.remove(&xid)
        else {
            unreachable!("checked above");
        };
        self.engine.metrics.incr(keys::MF_COMMITTED);
        let mut notes = Vec::new();
        // Flush the coordinator's reads under the share executed at the
        // coordinator itself (its own fragment's share) — it performed
        // them. Fall back to the first share if the program wrote nothing
        // in the initiator's fragment.
        let (read_fragment, read_home) = participants
            .iter()
            .copied()
            .find(|&(_, h)| h == home)
            .unwrap_or(participants[0]);
        let read_txn = self.nodes[read_home.0 as usize]
            .mf_staged
            .get(&(xid, read_fragment))
            .map(|s| s.local_txn);
        if let Some(t) = read_txn {
            self.flush_reads(t, TxnType::Update(read_fragment), &reads, at);
        }
        for (fragment, agent_home) in participants {
            notes.extend(self.send_direct(
                at,
                home,
                agent_home,
                Envelope::MfCommit { xid, fragment },
            ));
        }
        notes.extend(self.observe_commit_latency(submitted_at, at));
        notes
    }

    /// Participant: commit the staged share under its local transaction.
    pub(crate) fn on_mf_commit(
        &mut self,
        at: SimTime,
        node: NodeId,
        xid: TxnId,
        fragment: FragmentId,
    ) -> Vec<Notification> {
        let Some(stage) = self.nodes[node.0 as usize]
            .mf_staged
            .remove(&(xid, fragment))
        else {
            return Vec::new();
        };
        self.mf_inflight.remove(&fragment);
        let ttype = TxnType::Update(fragment);
        for (object, _) in &stage.updates {
            self.history.record_local(
                node,
                stage.local_txn,
                ttype,
                fragdb_model::OpKind::Write,
                *object,
                at,
            );
        }
        let slot = &mut self.nodes[node.0 as usize];
        slot.replica.commit_local(
            stage.local_txn,
            fragment,
            stage.frag_seq,
            stage.epoch,
            stage.updates.clone(),
            at,
        );
        slot.next_install.insert(fragment, stage.frag_seq + 1);
        if self.engine.telemetry.is_enabled() {
            let cause = Self::cid(fragment, stage.epoch, stage.frag_seq);
            self.engine.emit(|| TelemetryEvent::Committed {
                cause,
                node: node.0,
                txn_seq: stage.local_txn.seq,
            });
            self.engine.emit(|| TelemetryEvent::Installed {
                cause,
                node: node.0,
            });
            let recipients = self.broadcast_recipients(fragment);
            self.engine.emit(|| TelemetryEvent::BroadcastSent {
                cause,
                node: node.0,
                recipients,
            });
        }
        let quasi = QuasiTransaction {
            txn: stage.local_txn,
            fragment,
            frag_seq: stage.frag_seq,
            epoch: stage.epoch,
            updates: stage.updates,
        };
        self.broadcast_fragment(at, node, fragment, Envelope::Quasi { quasi });
        self.engine.metrics.incr(keys::TXN_COMMITTED);
        let mut notes = vec![Notification::Committed {
            txn: stage.local_txn,
            fragment,
            node,
            at,
        }];
        notes.extend(self.drain_queued(at, fragment));
        notes
    }

    /// Participant: drop a staged share and return the reserved slot.
    pub(crate) fn on_mf_abort(
        &mut self,
        at: SimTime,
        node: NodeId,
        xid: TxnId,
        fragment: FragmentId,
    ) -> Vec<Notification> {
        let Some(stage) = self.nodes[node.0 as usize]
            .mf_staged
            .remove(&(xid, fragment))
        else {
            return Vec::new();
        };
        if self.mf_inflight.get(&fragment) == Some(&xid) {
            self.mf_inflight.remove(&fragment);
        }
        // Return the reserved sequence number iff nothing was allocated
        // after it (guaranteed while the fragment was marked busy) and the
        // token has not moved to a new regime meanwhile.
        if self.tokens.peek_frag_seq(fragment) == stage.frag_seq + 1
            && self.tokens.epoch(fragment) == stage.epoch
        {
            self.tokens.set_next_frag_seq(fragment, stage.frag_seq);
        }
        self.engine.metrics.incr(keys::MF_ABORTED_SHARE);
        self.drain_queued(at, fragment)
    }

    /// Coordinator-side abort (vote no / timeout): tell every participant.
    pub(crate) fn abort_multi(
        &mut self,
        at: SimTime,
        xid: TxnId,
        participants: Vec<(FragmentId, NodeId)>,
        home: NodeId,
    ) -> Vec<Notification> {
        self.engine.metrics.incr(keys::MF_ABORTED);
        let mut notes = Vec::new();
        for (fragment, agent_home) in participants {
            notes.extend(self.send_direct(
                at,
                home,
                agent_home,
                Envelope::MfAbort { xid, fragment },
            ));
        }
        notes
    }
}
