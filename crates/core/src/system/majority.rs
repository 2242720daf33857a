//! §4.4.1 — majority commit.
//!
//! "Before a transaction can commit at the agent's home node, the
//! corresponding quasi-transaction is sent out to the rest of the nodes,
//! and acknowledgments are requested. The transaction commits only after
//! acknowledgments have been received from a majority of the nodes."
//!
//! The home node counts toward the majority (it durably has the data).
//! One commit is in flight per fragment at a time, keeping the update
//! sequence uninterrupted; later submissions queue behind it.
//!
//! On a move, the new home broadcasts a [`Envelope::SeqQuery`] and installs
//! the entries returned by a majority before resuming — any committed
//! transaction was acked by a majority, every two majorities intersect, so
//! the new home recovers the complete sequence.

use fragdb_model::{FragmentId, NodeId, QuasiTransaction, TxnId};
use fragdb_sim::metrics::keys;
use fragdb_sim::{SimTime, TelemetryEvent};
use fragdb_storage::WalEntry;

use crate::envelope::Envelope;
use crate::events::Notification;
use crate::movement::MovePolicy;
use crate::program::TxnEffects;
use crate::system::{MoveState, Pending, System};

impl System {
    /// Nodes needed for a majority of `fragment`'s replica set (home
    /// included). With full replication this is a majority of all nodes.
    pub(crate) fn majority(&self, fragment: FragmentId) -> usize {
        let population = self
            .replicas_of(fragment)
            .map_or(self.nodes.len(), |set| set.len());
        population / 2 + 1
    }

    /// Stage a freshly-executed update and solicit acknowledgments.
    pub(crate) fn begin_majority_commit(
        &mut self,
        at: SimTime,
        home: NodeId,
        txn: TxnId,
        fragment: FragmentId,
        effects: TxnEffects,
    ) -> Vec<Notification> {
        let MovePolicy::MajorityCommit { timeout } = *self.move_policy_for(fragment) else {
            unreachable!("majority path requires MajorityCommit policy");
        };
        let frag_seq = self.tokens.alloc_frag_seq(fragment);
        let epoch = self.tokens.epoch(fragment);
        let TxnEffects { reads, writes } = effects;
        let updates = self.materialize_payload(writes);
        let quasi = QuasiTransaction {
            txn,
            fragment,
            frag_seq,
            epoch,
            updates,
        };
        self.majority_inflight.insert(fragment, txn);
        if self.engine.telemetry.is_enabled() {
            let cause = Self::cid(fragment, epoch, frag_seq);
            let recipients = self.broadcast_recipients(fragment);
            self.engine.emit(|| TelemetryEvent::BroadcastSent {
                cause,
                node: home.0,
                recipients,
            });
        }
        let prepare = Envelope::Prepare {
            quasi: quasi.clone(),
        };
        self.broadcast_fragment(at, home, fragment, prepare);
        self.pending.insert(
            txn,
            Pending::Majority {
                fragment,
                home,
                quasi,
                reads,
                acks: [home].into_iter().collect(),
                submitted_at: at,
            },
        );
        self.arm_timeout(timeout, txn);
        // Single-node cluster: the home alone is a majority.
        self.check_majority(at, txn)
    }

    /// A remote node stages a prepared quasi-transaction and acknowledges.
    pub(crate) fn on_prepare(
        &mut self,
        at: SimTime,
        from: NodeId,
        to: NodeId,
        quasi: QuasiTransaction,
    ) -> Vec<Notification> {
        // Refuse (and never acknowledge) a malformed prepare: a missing ack
        // keeps the majority from forming, so the home aborts on timeout.
        if let Err(e) = quasi.validate_against(&self.catalog) {
            return self.reject_install(at, to, &quasi, e);
        }
        let txn = quasi.txn;
        self.nodes[to.0 as usize].staged.insert(txn, quasi);
        self.send_direct(at, to, from, Envelope::PrepareAck { txn, from: to })
    }

    /// An acknowledgment reaches the home node.
    pub(crate) fn on_prepare_ack(
        &mut self,
        at: SimTime,
        txn: TxnId,
        acker: NodeId,
    ) -> Vec<Notification> {
        if let Some(Pending::Majority { acks, .. }) = self.pending.get_mut(&txn) {
            acks.insert(acker);
        }
        self.check_majority(at, txn)
    }

    /// Commit if the majority has been reached.
    fn check_majority(&mut self, at: SimTime, txn: TxnId) -> Vec<Notification> {
        let reached = matches!(
            self.pending.get(&txn),
            Some(Pending::Majority { fragment, acks, .. })
                if acks.len() >= self.majority(*fragment)
        );
        if !reached {
            return Vec::new();
        }
        let Some(Pending::Majority {
            fragment,
            home,
            quasi,
            reads,
            submitted_at,
            ..
        }) = self.pending.remove(&txn)
        else {
            unreachable!("checked above");
        };
        self.majority_inflight.remove(&fragment);
        // Epoch fence: the quasi was staged under `quasi.epoch`. If a
        // quorum election (or an explicit move) has re-homed the token
        // since, this commit belongs to a deposed regime — refuse it even
        // though a majority acked, so a falsely-suspected home that
        // rejoins cannot fork the update sequence. The reserved sequence
        // number is NOT returned: the new regime's recovery already reset
        // the counter.
        if quasi.epoch != self.tokens.epoch(fragment) {
            self.broadcast_fragment(at, home, fragment, Envelope::AbortCmd { txn });
            let mut notes = self.finish_abort(txn, fragment, crate::AbortReason::Unavailable);
            notes.extend(self.drain_queued(at, fragment));
            return notes;
        }
        let mut notes = self.finish_commit(
            at,
            home,
            txn,
            fragment,
            quasi.frag_seq,
            quasi.epoch,
            &reads,
            quasi.updates.clone(), // shares the staged payload, no deep copy
            false,                 // receivers install from their staged copy on CommitCmd
        );
        self.broadcast_fragment(at, home, fragment, Envelope::CommitCmd { txn, fragment });
        notes.extend(self.observe_commit_latency(submitted_at, at));
        notes.extend(self.drain_queued(at, fragment));
        notes
    }

    /// A commit command: install the staged quasi-transaction (in order).
    pub(crate) fn on_commit_cmd(
        &mut self,
        at: SimTime,
        from: NodeId,
        node: NodeId,
        txn: TxnId,
        fragment: FragmentId,
    ) -> Vec<Notification> {
        let Some(quasi) = self.nodes[node.0 as usize].staged.remove(&txn) else {
            // Either this node already has the entry (installed via move
            // recovery), or the staged copy died in a crash. Ask the home
            // for whatever this node is missing; the home committed before
            // broadcasting `CommitCmd`, so its WAL has the entry.
            let have = self.nodes[node.0 as usize].replica.last_frag_seq(fragment);
            return self.send_direct(
                at,
                node,
                from,
                Envelope::SeqQuery {
                    fragment,
                    have,
                    upto: None,
                    reply_to: node,
                    include_staged: false,
                },
            );
        };
        // Gap fence: if the sequence has a hole below this entry, the
        // install will be held back — and nothing retransmits the hole.
        // The gap arises when a predecessor's `CommitCmd` died with a
        // crashed home and an elected successor resurrected the entry
        // from the staged majority (§4.4.1): the new home's WAL has the
        // prefix, this node only ever staged it. Ask the commanding home
        // for exactly the missing range, or every later commit at this
        // node is held back forever.
        let next = self.nodes[node.0 as usize]
            .next_install
            .get(&fragment)
            .copied()
            .unwrap_or(0);
        let mut notes = Vec::new();
        if quasi.frag_seq > next {
            let have = self.nodes[node.0 as usize].replica.last_frag_seq(fragment);
            notes.extend(self.send_direct(
                at,
                node,
                from,
                Envelope::SeqQuery {
                    fragment,
                    have,
                    upto: Some(quasi.frag_seq - 1),
                    reply_to: node,
                    include_staged: false,
                },
            ));
        }
        notes.extend(self.ordered_install(at, node, quasi));
        notes
    }

    // ---- move-time recovery ---------------------------------------------

    /// §4.4.1 move: start recovering the fragment's sequence from a
    /// majority. `elected` marks a recovery started by a quorum election
    /// (rather than the driver); completion then emits `TokenRecovered`.
    pub(crate) fn begin_majority_recovery(
        &mut self,
        at: SimTime,
        fragment: FragmentId,
        old_home: NodeId,
        new_home: NodeId,
        elected: bool,
    ) -> Vec<Notification> {
        self.move_state.insert(
            fragment,
            MoveState::MajorityRecovery {
                new_home,
                old_home,
                elected,
                replies: [new_home].into_iter().collect(),
            },
        );
        let have = self.nodes[new_home.0 as usize]
            .replica
            .last_frag_seq(fragment);
        let targets: Vec<NodeId> = match self.replicas_of(fragment) {
            Some(set) => set.iter().copied().collect(),
            None => (0..self.nodes.len() as u32).map(NodeId).collect(),
        };
        let mut notes = Vec::new();
        for to in targets {
            if to == new_home {
                continue;
            }
            notes.extend(self.send_direct(
                at,
                new_home,
                to,
                Envelope::SeqQuery {
                    fragment,
                    have,
                    upto: None,
                    reply_to: new_home,
                    include_staged: true,
                },
            ));
        }
        // A single-node system is already a majority.
        notes.extend(self.check_recovery_done(at, fragment));
        notes
    }

    /// Another node answers a sequence query with the entries the querier
    /// is missing. With `include_staged`, staged-but-not-yet-committed
    /// quasi-transactions count as "seen" (the paper: each old transaction
    /// "was seen by a majority of nodes" — seen means acknowledged at
    /// prepare time, which is exactly the staged set), so a transaction
    /// whose `CommitCmd` is still in flight at move time is not lost.
    /// Crash-recovery anti-entropy passes `include_staged: false`: a
    /// restarting node must not resurrect prepares whose outcome is still
    /// the live home's to decide.
    ///
    /// Known limitation: if the move instead races an `AbortCmd`, a staged
    /// prepare can be resurrected at the new home. Both races stem from
    /// moving an agent with commands in flight; drivers should quiesce a
    /// fragment before moving it.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_seq_query(
        &mut self,
        at: SimTime,
        node: NodeId,
        fragment: FragmentId,
        have: Option<u64>,
        upto: Option<u64>,
        reply_to: NodeId,
        include_staged: bool,
    ) -> Vec<Notification> {
        let from_seq = have.map_or(0, |h| h + 1);
        let to_seq = upto.unwrap_or(u64::MAX);
        let slot = &self.nodes[node.0 as usize];
        let mut entries: Vec<WalEntry> = slot
            .replica
            .wal()
            .fragment_range(fragment, from_seq, to_seq)
            .into_iter()
            .cloned()
            .collect();
        if include_staged {
            for quasi in slot.staged.values() {
                if quasi.fragment == fragment
                    && (from_seq..=to_seq).contains(&quasi.frag_seq)
                    && !entries.iter().any(|e| e.frag_seq == quasi.frag_seq)
                {
                    entries.push(WalEntry {
                        txn: quasi.txn,
                        fragment: quasi.fragment,
                        frag_seq: quasi.frag_seq,
                        epoch: quasi.epoch,
                        updates: quasi.updates.clone(),
                        installed_at: at,
                    });
                }
            }
        }
        entries.sort_by_key(|e| e.frag_seq);
        self.engine
            .metrics
            .observe(keys::CATCHUP_RANGE_LEN, entries.len() as u64);
        self.send_direct(
            at,
            node,
            reply_to,
            Envelope::SeqReply {
                fragment,
                from: node,
                entries,
            },
        )
    }

    /// A recovery reply: install what is missing. For a §4.4.1 move the
    /// replier also counts toward the recovery majority; crash-recovery
    /// catch-up (no move in progress) just installs — `ordered_install`
    /// drops anything already present.
    pub(crate) fn on_seq_reply(
        &mut self,
        at: SimTime,
        node: NodeId,
        fragment: FragmentId,
        replier: NodeId,
        entries: Vec<WalEntry>,
    ) -> Vec<Notification> {
        let mut notes = Vec::new();
        if let Some(MoveState::MajorityRecovery {
            new_home, replies, ..
        }) = self.move_state.get_mut(&fragment)
        {
            if *new_home == node {
                replies.insert(replier);
            }
        }
        // Install unconditionally — `ordered_install` drops anything
        // already present. In particular an entry *originated* by this
        // node must not be skipped: after a crash the origin may never
        // have installed its own commit (it crashed between `Prepare`
        // and the local install) while an elected successor resurrected
        // it from the staged majority; skipping it here would leave a
        // permanent hole that holds back the rest of the sequence.
        for e in entries {
            let quasi = QuasiTransaction {
                txn: e.txn,
                fragment: e.fragment,
                frag_seq: e.frag_seq,
                epoch: e.epoch,
                updates: e.updates,
            };
            notes.extend(self.ordered_install(at, node, quasi));
        }
        notes.extend(self.check_recovery_done(at, fragment));
        notes
    }

    fn check_recovery_done(&mut self, at: SimTime, fragment: FragmentId) -> Vec<Notification> {
        let done = matches!(
            self.move_state.get(&fragment),
            Some(MoveState::MajorityRecovery { replies, .. })
                if replies.len() >= self.majority(fragment)
        );
        if !done {
            return Vec::new();
        }
        let Some(MoveState::MajorityRecovery {
            new_home, elected, ..
        }) = self.move_state.remove(&fragment)
        else {
            unreachable!("checked above");
        };
        // The recovered prefix defines where the sequence resumes.
        let next = self.nodes[new_home.0 as usize]
            .next_install
            .get(&fragment)
            .copied()
            .unwrap_or(0);
        self.tokens.set_next_frag_seq(fragment, next);
        self.engine.emit(|| TelemetryEvent::TokenArrived {
            fragment: fragment.0,
            node: new_home.0,
        });
        if elected {
            // Self-healing complete: the fragment is writable again at the
            // elected home. Probes close `frag.<f>.unavail_window` here.
            let epoch = self.tokens.epoch(fragment);
            self.engine.emit(|| TelemetryEvent::TokenRecovered {
                fragment: fragment.0,
                epoch,
                node: new_home.0,
            });
        }
        let mut notes = vec![Notification::MoveCompleted {
            fragment,
            node: new_home,
            at,
        }];
        notes.extend(self.drain_queued(at, fragment));
        notes
    }
}
