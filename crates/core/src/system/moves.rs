//! Agent movement (§4.4): the `Move` event and the per-policy protocols
//! other than majority recovery (which lives in `majority.rs`).

use fragdb_model::{FragmentId, NodeId, ObjectId, QuasiTransaction, TxnId, Value};
use fragdb_sim::metrics::keys::slot;
use fragdb_sim::{SimTime, TelemetryEvent};
use fragdb_storage::WalEntry;

use crate::envelope::Envelope;
use crate::events::{AbortReason, Ev, Notification};
use crate::movement::MovePolicy;
use crate::system::{MoveState, MoveWait, Notes, RegimeClose, System};

impl System {
    /// Handle a token move request.
    pub(crate) fn handle_move(
        &mut self,
        at: SimTime,
        fragment: FragmentId,
        to: NodeId,
        notes: &mut Notes,
    ) {
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
        // snapshot/close the regime, the new home must receive).
        if self.down.contains(&old_home) || self.down.contains(&to) {
            return self.defer_move(fragment, old_home, to);
        }
        if old_home == to {
            return notes.push(Notification::MoveCompleted {
                fragment,
                node: to,
                at,
            });
        }
        // A move while the previous one is still completing would corrupt
        // the protocol state.
        if self.move_state.contains_key(&fragment) {
            return self.defer_move(fragment, old_home, to);
        }
        self.engine.metrics.incr(slot::MOVES_REQUESTED);
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

        match self.move_policy_for(fragment).clone() {
            MovePolicy::Fixed => unreachable!("checked above"),
            MovePolicy::MajorityCommit { .. } => {
                self.tokens.reattach(fragment, to);
                self.begin_majority_recovery(at, fragment, old_home, to, false, notes);
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
                    MoveState {
                        new_home: to,
                        old_home,
                        wait: MoveWait::AwaitingData,
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
                let caught_up = self.nodes[to.0 as usize].install_frontier(fragment) >= upto;
                if caught_up {
                    self.complete_move(at, fragment, to, notes);
                } else {
                    self.move_state.insert(
                        fragment,
                        MoveState {
                            new_home: to,
                            old_home,
                            wait: MoveWait::AwaitingSeq { upto },
                        },
                    );
                }
            }
            MovePolicy::NoPrep => self.begin_noprep_move(at, fragment, to, notes),
        }
        for t in orphans {
            self.abort_pending(at, t, AbortReason::Unavailable, notes);
        }
    }

    /// Retry a move that cannot run yet in one second, like a move racing
    /// another move.
    fn defer_move(&mut self, fragment: FragmentId, from: NodeId, to: NodeId) {
        self.engine.metrics.incr(slot::MOVES_DEFERRED);
        self.engine.emit(|| TelemetryEvent::MoveAborted {
            fragment: fragment.0,
            from: from.0,
            to: to.0,
        });
        self.engine.schedule(
            fragdb_sim::SimDuration::from_secs(1),
            Ev::Move { fragment, to },
        );
    }

    /// Finish `fragment`'s move at `new_home`: the token is usable there
    /// from now on. What the move waited for decides the rest. An elected
    /// §4.4.1 recovery reports the fragment recovered, and every replier
    /// behind the recovered sequence gets its tail ahead of the new
    /// regime's first prepare on the same per-pair FIFO stream, so a
    /// member that missed a prepare does not stay behind. A §4.4.2A
    /// destination installs what it held back at or above the restore
    /// point. Then whatever parked behind the move runs.
    pub(crate) fn complete_move(
        &mut self,
        at: SimTime,
        fragment: FragmentId,
        new_home: NodeId,
        notes: &mut Notes,
    ) {
        let wait = self.move_state.remove(&fragment).map(|st| st.wait);
        self.engine.emit(|| TelemetryEvent::TokenArrived {
            fragment: fragment.0,
            node: new_home.0,
        });
        notes.push(Notification::MoveCompleted {
            fragment,
            node: new_home,
            at,
        });
        match wait {
            Some(MoveWait::MajorityRecovery { elected, replies }) => {
                if elected {
                    // Self-healing complete: the fragment is writable again
                    // at the elected home. Probes close
                    // `frag.<f>.unavail_window` here.
                    let epoch = self.tokens.epoch(fragment);
                    self.engine.emit(|| TelemetryEvent::TokenRecovered {
                        fragment: fragment.0,
                        epoch,
                        node: new_home.0,
                    });
                }
                for (member, frontier) in replies {
                    self.push_tail(at, new_home, fragment, member, frontier, notes);
                }
            }
            Some(MoveWait::AwaitingData) => {
                // Take the whole hold-back map (ascending seq order)
                // instead of materializing a key list and removing one by
                // one.
                let slot = &mut self.nodes[new_home.0 as usize];
                let resume = std::mem::take(slot.holdback.entry(fragment).or_default());
                for q in resume.into_values() {
                    self.ordered_install(at, new_home, q, notes);
                }
            }
            Some(MoveWait::AwaitingSeq { .. }) | None => {}
        }
        self.drain_queued(at, fragment, notes);
    }

    /// §4.4.2A: the couriered copy arrives; install it and resume.
    pub(crate) fn handle_data_arrive(
        &mut self,
        at: SimTime,
        fragment: FragmentId,
        to: NodeId,
        snapshot: Vec<(ObjectId, Value)>,
        next_frag_seq: u64,
        notes: &mut Notes,
    ) {
        // No matching move: the destination crashed in transit and the
        // crash sweep unwound the move — the courier's copy is lost with
        // the node (the paper's tape on the crashed mainframe's desk).
        if !matches!(
            self.move_state.get(&fragment),
            Some(MoveState { new_home, wait: MoveWait::AwaitingData, .. }) if *new_home == to
        ) {
            return;
        }
        let restore_txn = self.alloc_txn(to);
        let slot = &mut self.nodes[to.0 as usize];
        slot.replica.restore(&snapshot, restore_txn, at);
        // The snapshot subsumes every update below next_frag_seq: ordered
        // installation resumes from there, and stragglers from the old home
        // are dropped as duplicates.
        slot.set_install_frontier(fragment, next_frag_seq);
        slot.holdback
            .entry(fragment)
            .or_default()
            .retain(|&seq, _| seq >= next_frag_seq);
        self.complete_move(at, fragment, to, notes);
    }

    // ---- §4.4.3: no preparation -----------------------------------------

    /// The agent resumes immediately at the new home; broadcast `M0`.
    pub(crate) fn begin_noprep_move(
        &mut self,
        at: SimTime,
        fragment: FragmentId,
        to: NodeId,
        notes: &mut Notes,
    ) {
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
        notes.push(Notification::MoveCompleted {
            fragment,
            node: to,
            at,
        });
    }

    /// `M0` arrives at a node `Z`: learn the regime switch and install any
    /// old-regime transactions `Z` is missing (protocol step B.1).
    pub(crate) fn on_m0(
        &mut self,
        at: SimTime,
        node: NodeId,
        fragment: FragmentId,
        close: RegimeClose,
        entries: Vec<WalEntry>,
        notes: &mut Notes,
    ) {
        self.nodes[node.0 as usize]
            .regime_close
            .insert(fragment, close);
        for e in entries {
            let quasi = QuasiTransaction {
                txn: e.txn,
                fragment: e.fragment,
                frag_seq: e.frag_seq,
                epoch: e.epoch,
                updates: e.updates,
            };
            if quasi.origin() != node && !self.already_installed(node, &quasi) {
                self.do_install(at, node, quasi, notes);
            }
        }
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
        notes: &mut Notes,
    ) {
        if let Err(e) = quasi.validate_against(&self.catalog) {
            return self.reject_install(at, node, &quasi, e, notes);
        }
        if quasi.origin() == node || self.already_installed(node, &quasi) {
            self.engine.metrics.incr(slot::INSTALL_DUPLICATE);
            return;
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
                    return self.do_install(at, node, quasi, notes);
                }
                if close.new_home == node {
                    if !self.tokens.is_home(quasi.fragment, node) {
                        // Stale regime knowledge: the token has moved on
                        // again. Forward to the current home rather than
                        // repackaging under a sequence we no longer own.
                        let current = self.tokens.home(quasi.fragment);
                        self.engine.metrics.incr(slot::NOPREP_FORWARDED);
                        let forward = Envelope::ForwardMissing { quasi };
                        return self.send_direct(at, node, current, forward, notes);
                    }
                    // Step A.2: a missing transaction found at the new home.
                    self.repackage_missing(at, node, quasi, notes);
                } else {
                    // Step B.2: forward to the new home for corrective
                    // handling; do not install.
                    self.engine.metrics.incr(slot::NOPREP_FORWARDED);
                    let forward = Envelope::ForwardMissing { quasi };
                    self.send_direct(at, node, close.new_home, forward, notes);
                }
            }
            // A plain install, no hold-back: `do_install` maintains
            // `next_install`, which is meaningless here but harmless
            // (NoPrep never consults it).
            _ => self.do_install(at, node, quasi, notes),
        }
    }

    /// §4.4.3 step A.2: strip overwritten updates from a late transaction,
    /// repackage the rest under a fresh id in the new regime, install and
    /// rebroadcast it.
    fn repackage_missing(
        &mut self,
        at: SimTime,
        node: NodeId,
        quasi: QuasiTransaction,
        notes: &mut Notes,
    ) {
        let fragment = quasi.fragment;
        let handled = self.nodes[node.0 as usize]
            .noprep_handled
            .entry(fragment)
            .or_default();
        if !handled.insert((quasi.epoch, quasi.frag_seq)) {
            self.engine.metrics.incr(slot::INSTALL_DUPLICATE);
            return;
        }
        self.engine.metrics.incr(slot::NOPREP_REPACKAGED);
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
            let payload = self.materialize_payload(&mut kept.clone());
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
    }
}
