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
//! the new home recovers the complete sequence. Each [`Envelope::SeqReply`]
//! carries the replier's installed frontier, and the new home answers
//! every replier behind the recovered sequence with the tail it lacks:
//! the majority's repliers before the first prepare of the new regime, a
//! replier whose answer lands after the majority formed on arrival. So a
//! live member that missed a prepare does not stay behind (re-replication
//! after a re-master, as in LARK).

use fragdb_model::{FragmentId, NodeId, QuasiTransaction, TxnId};
use fragdb_sim::metrics::keys::slot;
use fragdb_sim::{SimTime, TelemetryEvent};
use fragdb_storage::WalEntry;

use crate::envelope::Envelope;
use crate::movement::MovePolicy;
use crate::program::TxnEffects;
use crate::system::{MoveState, MoveWait, Notes, Pending, System};

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
        mut effects: TxnEffects,
        notes: &mut Notes,
    ) {
        let MovePolicy::MajorityCommit { timeout } = *self.move_policy_for(fragment) else {
            unreachable!("majority path requires MajorityCommit policy");
        };
        let frag_seq = self.tokens.alloc_frag_seq(fragment);
        let epoch = self.tokens.epoch(fragment);
        let updates = self.materialize_payload(&mut effects.writes);
        let quasi = QuasiTransaction {
            txn,
            fragment,
            frag_seq,
            epoch,
            updates,
        };
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
        effects.acks.push(home);
        self.pending.insert(
            txn,
            Pending::Majority {
                fragment,
                home,
                quasi,
                effects,
                submitted_at: at,
            },
        );
        self.arm_timeout(timeout, txn);
        // Single-node cluster: the home alone is a majority.
        self.check_majority(at, txn, notes);
    }

    /// A remote node stages a prepared quasi-transaction and acknowledges.
    pub(crate) fn on_prepare(
        &mut self,
        at: SimTime,
        from: NodeId,
        to: NodeId,
        quasi: QuasiTransaction,
        notes: &mut Notes,
    ) {
        // Refuse (and never acknowledge) a malformed prepare: a missing ack
        // keeps the majority from forming, so the home aborts on timeout.
        if let Err(e) = quasi.validate_against(&self.catalog) {
            return self.reject_install(at, to, &quasi, e, notes);
        }
        let txn = quasi.txn;
        self.nodes[to.0 as usize].staged.insert(txn, quasi);
        self.send_direct(at, to, from, Envelope::PrepareAck { txn, from: to }, notes);
    }

    /// An acknowledgment reaches the home node.
    pub(crate) fn on_prepare_ack(
        &mut self,
        at: SimTime,
        txn: TxnId,
        acker: NodeId,
        notes: &mut Notes,
    ) {
        if let Some(Pending::Majority { effects, .. }) = self.pending.get_mut(&txn) {
            if !effects.acks.contains(&acker) {
                effects.acks.push(acker);
            }
        }
        self.check_majority(at, txn, notes);
    }

    /// Commit if the majority has been reached.
    fn check_majority(&mut self, at: SimTime, txn: TxnId, notes: &mut Notes) {
        let Some(Pending::Majority {
            fragment,
            quasi,
            effects,
            ..
        }) = self.pending.get(&txn)
        else {
            return;
        };
        if effects.acks.len() < self.majority(*fragment) {
            return;
        }
        // Epoch fence: the quasi was staged under `quasi.epoch`. If a
        // quorum election (or an explicit move) has re-homed the token
        // since, this commit belongs to a deposed regime — refuse it even
        // though a majority acked, so a falsely-suspected home that
        // rejoins cannot fork the update sequence.
        if quasi.epoch != self.tokens.epoch(*fragment) {
            return self.abort_pending(at, txn, crate::AbortReason::Unavailable, notes);
        }
        let Some(Pending::Majority {
            fragment,
            home,
            quasi,
            effects,
            submitted_at,
            ..
        }) = self.pending.remove(&txn)
        else {
            unreachable!("checked above");
        };
        self.finish_commit(
            at,
            home,
            txn,
            fragment,
            (quasi.frag_seq, quasi.epoch),
            &effects.reads,
            quasi.updates, // shares the staged payload, no deep copy
            false,         // receivers install from their staged copy on CommitCmd
            notes,
        );
        self.return_effects(effects);
        self.broadcast_fragment(at, home, fragment, Envelope::CommitCmd { txn, fragment });
        self.observe_commit_latency(submitted_at, at);
        self.drain_queued(at, fragment, notes);
    }

    /// A commit command: install the staged quasi-transaction (in order).
    pub(crate) fn on_commit_cmd(
        &mut self,
        at: SimTime,
        from: NodeId,
        node: NodeId,
        txn: TxnId,
        fragment: FragmentId,
        notes: &mut Notes,
    ) {
        // Without a staged copy, either this node already has the entry
        // (installed via move recovery) or the staged copy died in a crash:
        // ask the commanding home for whatever this node is missing; the
        // home committed before broadcasting `CommitCmd`, so its WAL has
        // the entry.
        //
        // With one, a hole below it (gap fence) would hold the install
        // back — and nothing retransmits the hole. The gap arises when a
        // predecessor's `CommitCmd` died with a crashed home and an elected
        // successor resurrected the entry from the staged majority
        // (§4.4.1): the new home's WAL has the prefix, this node only ever
        // staged it. Ask the commanding home for exactly the missing range,
        // or every later commit at this node is held back forever.
        let slot = &mut self.nodes[node.0 as usize];
        let staged = slot.staged.remove(&txn);
        let next = slot.install_frontier(fragment);
        if staged.as_ref().is_none_or(|quasi| quasi.frag_seq > next) {
            let upto = staged.as_ref().map(|quasi| quasi.frag_seq - 1);
            self.send_seq_query(at, node, fragment, [from], upto, false);
        }
        if let Some(quasi) = staged {
            self.ordered_install(at, node, quasi, notes);
        }
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
        notes: &mut Notes,
    ) {
        let frontier = self.nodes[new_home.0 as usize]
            .replica
            .last_frag_seq(fragment);
        self.move_state.insert(
            fragment,
            MoveState {
                new_home,
                old_home,
                wait: MoveWait::MajorityRecovery {
                    elected,
                    replies: [(new_home, frontier)].into_iter().collect(),
                },
            },
        );
        self.send_seq_query(at, new_home, fragment, self.roster(fragment), None, true);
        // A single-node system is already a majority.
        self.check_recovery_done(at, fragment, notes);
    }

    /// Ask each of `sources` (skipping `node` itself) for the entries of
    /// `fragment` above `node`'s installed prefix, up to `upto` inclusive
    /// (`None`: everything the source has); the replies come back to
    /// `node`. Every `SeqQuery` is sent from here.
    pub(crate) fn send_seq_query(
        &mut self,
        at: SimTime,
        node: NodeId,
        fragment: FragmentId,
        sources: impl IntoIterator<Item = NodeId>,
        upto: Option<u64>,
        include_staged: bool,
    ) {
        let have = self.nodes[node.0 as usize].replica.last_frag_seq(fragment);
        for source in sources {
            if source != node {
                let query = Envelope::SeqQuery {
                    fragment,
                    have,
                    upto,
                    reply_to: node,
                    include_staged,
                };
                self.send_remote(at, node, source, query);
            }
        }
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
        notes: &mut Notes,
    ) {
        let from_seq = have.map_or(0, |h| h + 1);
        let to_seq = upto.unwrap_or(u64::MAX);
        let slot = &self.nodes[node.0 as usize];
        let frontier = slot.replica.last_frag_seq(fragment);
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
            .observe(slot::CATCHUP_RANGE_LEN, entries.len() as u64);
        self.send_direct(
            at,
            node,
            reply_to,
            Envelope::SeqReply {
                fragment,
                from: node,
                frontier,
                entries,
            },
            notes,
        );
    }

    /// A recovery reply: install what is missing. For a §4.4.1 move the
    /// replier also counts toward the recovery majority; crash-recovery
    /// catch-up (no move in progress) just installs — `ordered_install`
    /// drops anything already present. A reply that reaches the home of a
    /// §4.4.1 fragment after its recovery completed gets the tail the
    /// replier lacks, as the repliers in the majority did.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_seq_reply(
        &mut self,
        at: SimTime,
        node: NodeId,
        fragment: FragmentId,
        replier: NodeId,
        frontier: Option<u64>,
        entries: Vec<WalEntry>,
        notes: &mut Notes,
    ) {
        let late = match self.move_state.get_mut(&fragment) {
            Some(MoveState {
                new_home,
                wait: MoveWait::MajorityRecovery { replies, .. },
                ..
            }) => {
                if *new_home == node {
                    replies.insert(replier, frontier);
                }
                false
            }
            Some(_) => false,
            None => {
                node == self.tokens.home(fragment)
                    && self.move_policy_for(fragment).needs_majority_commit()
            }
        };
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
            self.ordered_install(at, node, quasi, notes);
        }
        if late {
            self.push_tail(at, node, fragment, replier, frontier, notes);
        }
        self.check_recovery_done(at, fragment, notes);
    }

    /// Send `member` the entries `home` holds above `frontier`, the
    /// member's installed frontier, when it is behind. This is the
    /// ordinary `SeqQuery` answer, addressed to the member.
    pub(crate) fn push_tail(
        &mut self,
        at: SimTime,
        home: NodeId,
        fragment: FragmentId,
        member: NodeId,
        frontier: Option<u64>,
        notes: &mut Notes,
    ) {
        let ours = self.nodes[home.0 as usize].replica.last_frag_seq(fragment);
        if member == home || frontier >= ours {
            return;
        }
        self.on_seq_query(at, home, fragment, frontier, None, member, false, notes);
    }

    fn check_recovery_done(&mut self, at: SimTime, fragment: FragmentId, notes: &mut Notes) {
        let Some(MoveState {
            new_home,
            wait: MoveWait::MajorityRecovery { replies, .. },
            ..
        }) = self.move_state.get(&fragment)
        else {
            return;
        };
        if replies.len() < self.majority(fragment) {
            return;
        }
        // The recovered prefix defines where the sequence resumes.
        let new_home = *new_home;
        let next = self.nodes[new_home.0 as usize].install_frontier(fragment);
        self.tokens.set_next_frag_seq(fragment, next);
        self.complete_move(at, fragment, new_home, notes);
    }
}

#[cfg(test)]
mod tests {
    use fragdb_model::{AgentId, FragmentCatalog, Value};
    use fragdb_net::Topology;
    use fragdb_sim::SimDuration;

    use crate::config::SystemConfig;
    use crate::events::Submission;

    use super::*;

    /// The home counts once, a repeated ack counts once, and the ack list
    /// goes back to the spare buffers with the rest of the transaction's
    /// when the commit lands, for the next commit to borrow.
    #[test]
    fn each_acker_counts_once_and_the_list_is_reused() {
        let mut b = FragmentCatalog::builder();
        let (f, objs) = b.add_fragment("F0", 1);
        let config = SystemConfig::unrestricted(3).with_move_policy(MovePolicy::MajorityCommit {
            timeout: SimDuration::from_secs(5),
        });
        let mut sys = System::build(
            Topology::full_mesh(5, SimDuration::from_millis(10)),
            b.build(),
            vec![(f, AgentId::Node(NodeId(0)), NodeId(0))],
            config,
        )
        .expect("builds");
        let object = objs[0];
        let write =
            |v| Submission::update(f, Box::new(move |ctx| ctx.write(object, Value::Int(v))));
        let at = SimTime::from_millis(1);
        sys.submit_at(at, write(1));
        sys.run_until(at);
        let txn = *sys.pending.keys().next().expect("staged, awaiting acks");
        let acks = |sys: &System| match sys.pending.get(&txn) {
            Some(Pending::Majority { effects, .. }) => Some(effects.acks.len()),
            _ => None,
        };
        assert_eq!(acks(&sys), Some(1), "the home");
        let mut notes = Vec::new();
        for acker in [0, 1, 1] {
            sys.on_prepare_ack(at, txn, NodeId(acker), &mut notes);
        }
        assert_eq!(acks(&sys), Some(2), "the home and node 1, once each");
        assert!(sys.spare_effects.is_empty());
        sys.on_prepare_ack(at, txn, NodeId(2), &mut notes);
        assert_eq!(acks(&sys), None, "three of five commit");
        let spare = |sys: &System| {
            sys.spare_effects
                .iter()
                .map(|e| e.acks.capacity())
                .collect::<Vec<_>>()
        };
        assert!(
            matches!(spare(&sys)[..], [c] if c >= 3),
            "the list went back"
        );
        sys.run_until(SimTime::from_secs(1));
        let later = SimTime::from_secs(2);
        sys.submit_at(later, write(2));
        sys.run_until(later);
        assert!(spare(&sys).is_empty(), "the next commit borrowed it");
        assert_eq!(sys.pending.len(), 1);
    }
}
