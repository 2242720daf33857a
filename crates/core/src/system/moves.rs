//! Agent movement (§4.4): the `Move` event and the per-policy protocols
//! other than majority recovery (which lives in `majority.rs`).

use fragdb_model::{FragmentId, NodeId, ObjectId, QuasiTransaction, TxnId, Value};
use fragdb_sim::metrics::keys;
use fragdb_sim::{SimTime, TelemetryEvent};
use fragdb_storage::WalEntry;

use crate::envelope::Envelope;
use crate::events::{AbortReason, Ev, Notification};
use crate::movement::MovePolicy;
use crate::system::{MoveState, RegimeClose, System};

impl System {
    /// Handle a token move request.
    pub(crate) fn handle_move(
        &mut self,
        at: SimTime,
        fragment: FragmentId,
        to: NodeId,
    ) -> Vec<Notification> {
        assert!(
            *self.move_policy_for(fragment) != MovePolicy::Fixed,
            "agent movement requested under the Fixed policy (fragment {fragment})"
        );
        assert!(
            self.replicated_at(fragment, to),
            "cannot move {fragment}'s agent to {to}: no replica there"
        );
        // A move ends the regime: the old home's open group-commit batch
        // (if any) must hit the wire *before* the move's own broadcasts so
        // the old-regime commits are FIFO-ordered ahead of the epoch bump.
        self.flush_batch(at, fragment);
        let old_home = self.tokens.home(fragment);
        // Either endpoint down: the move cannot proceed (the old home must
        // snapshot/close the regime, the new home must receive). Retry
        // shortly, like a move racing another move.
        if self.down.contains(&old_home) || self.down.contains(&to) {
            self.engine.metrics.incr(keys::MOVES_DEFERRED);
            self.engine.emit(|| TelemetryEvent::MoveAborted {
                fragment: fragment.0,
                from: old_home.0,
                to: to.0,
            });
            self.engine.schedule(
                fragdb_sim::SimDuration::from_secs(1),
                Ev::Move { fragment, to },
            );
            return Vec::new();
        }
        if old_home == to {
            return vec![Notification::MoveCompleted {
                fragment,
                node: to,
                at,
            }];
        }
        // A move while the previous one is still completing would corrupt
        // the protocol state; retry shortly instead.
        if self.move_state.contains_key(&fragment) {
            self.engine.metrics.incr(keys::MOVES_DEFERRED);
            self.engine.emit(|| TelemetryEvent::MoveAborted {
                fragment: fragment.0,
                from: old_home.0,
                to: to.0,
            });
            self.engine.schedule(
                fragdb_sim::SimDuration::from_secs(1),
                Ev::Move { fragment, to },
            );
            return Vec::new();
        }
        self.engine.metrics.incr(keys::MOVES_REQUESTED);
        self.engine.emit(|| TelemetryEvent::MoveRequested {
            fragment: fragment.0,
            from: old_home.0,
            to: to.0,
        });

        // Any in-flight transaction touching this fragment is orphaned by
        // the move: collect it for abort. The aborts run AFTER the policy
        // match below, so the move state is already in place and a drained
        // submission re-queues instead of executing at the stale home.
        let orphans: Vec<TxnId> = self
            .pending
            .iter()
            .filter(|(_, p)| match p {
                super::Pending::LockAcq { fragment: f, .. }
                | super::Pending::XWait { fragment: f, .. }
                | super::Pending::Majority { fragment: f, .. } => *f == fragment,
            })
            .map(|(&t, _)| t)
            .collect();
        let mut notes = Vec::new();

        match self.move_policy_for(fragment).clone() {
            MovePolicy::Fixed => unreachable!("checked above"),
            MovePolicy::MajorityCommit { .. } => {
                self.tokens.reattach(fragment, to);
                notes.extend(self.begin_majority_recovery(at, fragment, old_home, to, false));
            }
            MovePolicy::WithData { transfer_delay } => {
                // §4.4.2A: the agent carries a copy of the fragment from X.
                // The courier is physical — it works regardless of network
                // partitions (tape, card strip, the airplane itself).
                let objects = self
                    .catalog
                    .fragment(fragment)
                    .expect("fragment exists")
                    .objects
                    .clone();
                let snapshot = self.nodes[old_home.0 as usize].replica.snapshot(&objects);
                let next_frag_seq = self.tokens.peek_frag_seq(fragment);
                let epoch = self.tokens.reattach(fragment, to);
                self.move_state.insert(
                    fragment,
                    MoveState::AwaitingData {
                        new_home: to,
                        old_home,
                    },
                );
                self.engine.schedule(
                    transfer_delay,
                    Ev::DataArrive {
                        fragment,
                        to,
                        snapshot,
                        next_frag_seq,
                        epoch,
                    },
                );
            }
            MovePolicy::WithSeqNo => {
                // §4.4.2B: only the sequence number travels with the agent.
                let upto = self.tokens.peek_frag_seq(fragment);
                self.tokens.reattach(fragment, to);
                let caught_up = self.nodes[to.0 as usize]
                    .next_install
                    .get(&fragment)
                    .copied()
                    .unwrap_or(0)
                    >= upto;
                if caught_up {
                    self.engine.emit(|| TelemetryEvent::TokenArrived {
                        fragment: fragment.0,
                        node: to.0,
                    });
                    notes.push(Notification::MoveCompleted {
                        fragment,
                        node: to,
                        at,
                    });
                } else {
                    self.move_state.insert(
                        fragment,
                        MoveState::AwaitingSeq {
                            new_home: to,
                            old_home,
                            upto,
                        },
                    );
                }
            }
            MovePolicy::NoPrep => {
                notes.extend(self.begin_noprep_move(at, fragment, old_home, to));
            }
        }
        for t in orphans {
            notes.extend(self.abort_pending(at, t, AbortReason::Unavailable));
        }
        notes
    }

    /// §4.4.2A: the couriered copy arrives; install it and resume.
    pub(crate) fn handle_data_arrive(
        &mut self,
        at: SimTime,
        fragment: FragmentId,
        to: NodeId,
        snapshot: Vec<(ObjectId, Value)>,
        next_frag_seq: u64,
        _epoch: u64,
    ) -> Vec<Notification> {
        // No matching move: the destination crashed in transit and the
        // crash sweep unwound the move — the courier's copy is lost with
        // the node (the paper's tape on the crashed mainframe's desk).
        if !matches!(
            self.move_state.get(&fragment),
            Some(MoveState::AwaitingData { new_home, .. }) if *new_home == to
        ) {
            return Vec::new();
        }
        let restore_txn = self.alloc_txn(to);
        let slot = &mut self.nodes[to.0 as usize];
        slot.replica.restore(&snapshot, restore_txn, at);
        // The snapshot subsumes every update below next_frag_seq: ordered
        // installation resumes from there, and stragglers from the old home
        // are dropped as duplicates.
        slot.next_install.insert(fragment, next_frag_seq);
        slot.holdback
            .entry(fragment)
            .or_default()
            .retain(|&seq, _| seq >= next_frag_seq);
        self.move_state.remove(&fragment);
        self.engine.emit(|| TelemetryEvent::TokenArrived {
            fragment: fragment.0,
            node: to.0,
        });
        let mut notes = vec![Notification::MoveCompleted {
            fragment,
            node: to,
            at,
        }];
        // Queued quasi-transactions at or above the restore point may now
        // be installable.
        let resume = {
            let slot = &mut self.nodes[to.0 as usize];
            // Take the whole hold-back map (ascending seq order) instead of
            // materializing a key list and removing one by one.
            std::mem::take(slot.holdback.entry(fragment).or_default())
        };
        for q in resume.into_values() {
            notes.extend(self.ordered_install(at, to, q));
        }
        notes.extend(self.drain_queued(at, fragment));
        notes
    }

    // ---- §4.4.3: no preparation -----------------------------------------

    /// The agent resumes immediately at the new home; broadcast `M0`.
    pub(crate) fn begin_noprep_move(
        &mut self,
        at: SimTime,
        fragment: FragmentId,
        _old_home: NodeId,
        to: NodeId,
    ) -> Vec<Notification> {
        let old_epoch = self.tokens.epoch(fragment);
        let new_epoch = self.tokens.reattach(fragment, to);
        debug_assert_eq!(new_epoch, old_epoch + 1);

        // Everything the new home knows of the old regime.
        let entries: Vec<WalEntry> = self.nodes[to.0 as usize]
            .replica
            .wal()
            .fragment_entries(fragment)
            .filter(|e| e.epoch == old_epoch)
            .cloned()
            .collect();
        let last_seq = entries.iter().map(|e| e.frag_seq).max();
        // New transactions continue the sequence after `i`.
        self.tokens
            .set_next_frag_seq(fragment, last_seq.map_or(0, |i| i + 1));
        self.nodes[to.0 as usize].regime_close.insert(
            fragment,
            RegimeClose {
                old_epoch,
                last_seq,
                new_home: to,
            },
        );
        let m0 = Envelope::M0 {
            fragment,
            old_epoch,
            last_seq,
            entries,
            new_home: to,
        };
        self.broadcast_fragment(at, to, fragment, m0);
        // Availability is immediate: the move completes now.
        self.engine.emit(|| TelemetryEvent::TokenArrived {
            fragment: fragment.0,
            node: to.0,
        });
        vec![Notification::MoveCompleted {
            fragment,
            node: to,
            at,
        }]
    }

    /// `M0` arrives at a node `Z`: learn the regime switch and install any
    /// old-regime transactions `Z` is missing (protocol step B.1).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_m0(
        &mut self,
        at: SimTime,
        node: NodeId,
        fragment: FragmentId,
        old_epoch: u64,
        last_seq: Option<u64>,
        entries: Vec<WalEntry>,
        new_home: NodeId,
    ) -> Vec<Notification> {
        self.nodes[node.0 as usize].regime_close.insert(
            fragment,
            RegimeClose {
                old_epoch,
                last_seq,
                new_home,
            },
        );
        let mut notes = Vec::new();
        for e in entries {
            let quasi = QuasiTransaction {
                txn: e.txn,
                fragment: e.fragment,
                frag_seq: e.frag_seq,
                epoch: e.epoch,
                updates: e.updates,
            };
            if quasi.origin() != node && !self.already_installed(node, &quasi) {
                notes.extend(self.noprep_do_install(at, node, quasi));
            }
        }
        notes
    }

    fn already_installed(&self, node: NodeId, q: &QuasiTransaction) -> bool {
        self.nodes[node.0 as usize]
            .replica
            .wal()
            .fragment_entries(q.fragment)
            .any(|e| e.epoch == q.epoch && e.frag_seq == q.frag_seq)
    }

    /// §4.4.3 installation: arrival order, with the regime rules applied.
    pub(crate) fn noprep_install(
        &mut self,
        at: SimTime,
        node: NodeId,
        quasi: QuasiTransaction,
    ) -> Vec<Notification> {
        if let Err(e) = quasi.validate_against(&self.catalog) {
            return self.reject_install(at, node, &quasi, e);
        }
        if quasi.origin() == node || self.already_installed(node, &quasi) {
            self.engine.metrics.incr(keys::INSTALL_DUPLICATE);
            return Vec::new();
        }
        let close = self.nodes[node.0 as usize]
            .regime_close
            .get(&quasi.fragment)
            .cloned();
        match close {
            Some(close) if quasi.epoch <= close.old_epoch => {
                let is_late = close.last_seq.is_none_or(|i| quasi.frag_seq > i);
                if !is_late {
                    // Part of the acknowledged prefix: install normally.
                    return self.noprep_do_install(at, node, quasi);
                }
                if close.new_home == node {
                    if !self.tokens.is_home(quasi.fragment, node) {
                        // Stale regime knowledge: the token has moved on
                        // again. Forward to the current home rather than
                        // repackaging under a sequence we no longer own.
                        let current = self.tokens.home(quasi.fragment);
                        self.engine.metrics.incr(keys::NOPREP_FORWARDED);
                        return self.send_direct(
                            at,
                            node,
                            current,
                            Envelope::ForwardMissing { quasi },
                        );
                    }
                    // Step A.2: a missing transaction found at the new home.
                    self.repackage_missing(at, node, quasi)
                } else {
                    // Step B.2: forward to the new home for corrective
                    // handling; do not install.
                    self.engine.metrics.incr(keys::NOPREP_FORWARDED);
                    self.send_direct(at, node, close.new_home, Envelope::ForwardMissing { quasi })
                }
            }
            _ => self.noprep_do_install(at, node, quasi),
        }
    }

    /// Plain install for the no-prep path (no hold-back).
    fn noprep_do_install(
        &mut self,
        at: SimTime,
        node: NodeId,
        quasi: QuasiTransaction,
    ) -> Vec<Notification> {
        // `do_install` maintains `next_install`, which is meaningless here
        // but harmless (NoPrep never consults it).
        self.do_install(at, node, quasi)
    }

    /// §4.4.3 step A.2: strip overwritten updates from a late transaction,
    /// repackage the rest under a fresh id in the new regime, install and
    /// rebroadcast it.
    fn repackage_missing(
        &mut self,
        at: SimTime,
        node: NodeId,
        quasi: QuasiTransaction,
    ) -> Vec<Notification> {
        let fragment = quasi.fragment;
        let handled = self.nodes[node.0 as usize]
            .noprep_handled
            .entry(fragment)
            .or_default();
        if !handled.insert((quasi.epoch, quasi.frag_seq)) {
            self.engine.metrics.incr(keys::INSTALL_DUPLICATE);
            return Vec::new();
        }
        self.engine.metrics.incr(keys::NOPREP_REPACKAGED);
        let (kept, dropped): (Vec<_>, Vec<_>) = {
            let wal = self.nodes[node.0 as usize].replica.wal();
            quasi.updates.iter().cloned().partition(|(object, _)| {
                match wal.last_writer_of(*object) {
                    // Overwritten iff a strictly later (epoch, seq) wrote it.
                    Some(e) => (e.epoch, e.frag_seq) < (quasi.epoch, quasi.frag_seq),
                    None => true,
                }
            })
        };

        let mut notes = Vec::new();
        let repackaged = self.alloc_txn(node);
        if !kept.is_empty() {
            let frag_seq = self.tokens.alloc_frag_seq(fragment);
            let epoch = self.tokens.epoch(fragment);
            let ttype = fragdb_model::TxnType::Update(fragment);
            for (object, _) in &kept {
                self.history.record_local(
                    node,
                    repackaged,
                    ttype,
                    fragdb_model::OpKind::Write,
                    *object,
                    at,
                );
            }
            let payload = self.materialize_payload(kept.clone());
            self.nodes[node.0 as usize].replica.commit_local(
                repackaged,
                fragment,
                frag_seq,
                epoch,
                payload.clone(),
                at,
            );
            if self.engine.telemetry.is_enabled() {
                let cause = Self::cid(fragment, epoch, frag_seq);
                self.engine.emit(|| TelemetryEvent::Committed {
                    cause,
                    node: node.0,
                    txn_seq: repackaged.seq,
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
                txn: repackaged,
                fragment,
                frag_seq,
                epoch,
                updates: payload,
            };
            self.broadcast_fragment(at, node, fragment, Envelope::Quasi { quasi });
        }
        notes.push(Notification::MissingRepackaged {
            fragment,
            node,
            original: quasi.txn,
            repackaged,
            kept,
            dropped,
        });
        notes
    }
}
