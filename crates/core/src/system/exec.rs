//! Transaction execution and the commit path.

use std::collections::BTreeMap;

use fragdb_model::{
    FragmentId, NodeId, ObjectId, OpKind, QuasiTransaction, TxnId, TxnType, Updates, Value,
};
use fragdb_sim::metrics::keys;
use fragdb_sim::{SimTime, TelemetryEvent};

use crate::envelope::Envelope;
use crate::events::{AbortReason, Notification, Submission};
use crate::program::TxnEffects;
use crate::system::{Pending, QueuedSub, System};

impl System {
    /// Entry point for a submission event.
    pub(crate) fn handle_submission(&mut self, at: SimTime, sub: Submission) -> Vec<Notification> {
        self.engine.metrics.incr(keys::TXN_SUBMITTED);
        let fragment = sub.fragment;

        // Updates park while their fragment's agent is mid-move and while a
        // majority commit on the fragment is in flight (§4.4.1 keeps the
        // update sequence uninterrupted).
        if !sub.read_only && self.fragment_busy(fragment) {
            let queue = self.queued.entry(fragment).or_default();
            queue.push_back(QueuedSub {
                submission: sub,
                queued_at: at,
            });
            let depth = queue.len() as u64;
            self.engine.emit(|| TelemetryEvent::SubmissionQueued {
                fragment: fragment.0,
                depth,
            });
            return Vec::new();
        }

        // Only read-only transactions may pin an execution node; updates
        // always run at the fragment's agent home (§3.2's initiation
        // requirement — running an update elsewhere would let a non-agent
        // originate quasi-transactions).
        let home = match sub.at_node {
            Some(node) if sub.read_only => node,
            _ => self.tokens.home(fragment),
        };

        // A crashed execution site cannot run anything: the operation is
        // *unavailable* (the paper's availability question, answered "no"
        // for this node until it recovers).
        if self.down.contains(&home) {
            let txn = self.alloc_txn(home);
            return self.finish_abort(txn, fragment, AbortReason::Unavailable);
        }

        // Every dispatch path below allocates its transaction id at `home`
        // as its first action, so peeking the next sequence here names the
        // exact txn the submission will run under — the join key that pairs
        // this event with its `Committed`/`Aborted` in span reconstruction.
        let txn_seq = self.next_txn_seq[home.0 as usize];
        self.engine.emit(|| TelemetryEvent::Initiated {
            node: home.0,
            fragment: fragment.0,
            txn_seq,
        });

        if self.strategy_for(fragment).uses_read_locks() {
            return self.begin_lock_acquisition(at, home, sub);
        }
        self.execute_now(at, home, sub, &BTreeMap::new())
    }

    /// Run a transaction program against `home`'s replica, mapping program
    /// errors to abort reasons.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_program(
        &mut self,
        at: SimTime,
        home: NodeId,
        txn: TxnId,
        fragment: FragmentId,
        granted: &BTreeMap<ObjectId, (NodeId, Value)>,
        read_only: bool,
        program: crate::program::UpdateFn,
    ) -> Result<TxnEffects, AbortReason> {
        let replica = &self.nodes[home.0 as usize].replica;
        let mut ctx = crate::program::TxnCtx::new(
            home,
            txn,
            fragment,
            at,
            replica,
            &self.catalog,
            granted,
            read_only,
        );
        match program(&mut ctx) {
            Ok(()) => Ok(ctx.finish()),
            Err(crate::program::ProgramError::Logic(m)) => Err(AbortReason::Logic(m)),
            Err(crate::program::ProgramError::InitiationViolation(_)) => {
                Err(AbortReason::Initiation)
            }
        }
    }

    /// Run the program immediately (§4.2/§4.3 path, or §4.1 once locks are
    /// granted — then `granted` carries the lock-site snapshots).
    pub(crate) fn execute_now(
        &mut self,
        at: SimTime,
        home: NodeId,
        sub: Submission,
        granted: &BTreeMap<ObjectId, (NodeId, Value)>,
    ) -> Vec<Notification> {
        let txn = self.alloc_txn(home);
        let Submission {
            fragment,
            program,
            read_only,
            ..
        } = sub;
        let effects = match self.run_program(at, home, txn, fragment, granted, read_only, program) {
            Ok(e) => e,
            Err(reason) => return self.finish_abort(txn, fragment, reason),
        };

        // §6 partial replication: a replica read must happen at a node
        // holding the fragment (reads via §4.1 lock grants are recorded at
        // the lock site, which is always a replica). Replicas answer reads
        // of unknown objects with Null, so a program can reach this point
        // having read an object outside every fragment — a typed abort,
        // not a panic.
        for &(site, object) in &effects.reads {
            let frag = match self.catalog.fragment_of(object) {
                Ok(frag) => frag,
                Err(e) => return self.finish_abort(txn, fragment, AbortReason::Model(e)),
            };
            if !self.replicated_at(frag, site) {
                return self.finish_abort(
                    txn,
                    fragment,
                    AbortReason::Logic(format!(
                        "read of {object} at {site}, which holds no replica of {frag}"
                    )),
                );
            }
        }

        // §4.2 admission: the class (initiator, fragments-read) must be
        // declared. Checked post-execution, when the read set is known;
        // reads are side-effect-free so refusing here leaves no trace.
        let frags_read: Vec<FragmentId> = effects
            .reads
            .iter()
            .filter_map(|(_, o)| self.catalog.fragment_of(*o).ok())
            .collect();
        let admitted = if read_only {
            self.strategy_for(fragment)
                .admits_read_only(fragment, frags_read)
        } else {
            self.strategy_for(fragment)
                .admits_update(fragment, frags_read)
        };
        if !admitted {
            return self.finish_abort(txn, fragment, AbortReason::UndeclaredClass);
        }

        if read_only {
            self.flush_reads(txn, TxnType::ReadOnly(fragment), &effects.reads, at);
            self.engine.metrics.incr(keys::TXN_READ_FINISHED);
            return vec![Notification::ReadFinished { txn, node: home }];
        }

        if self.move_policy_for(fragment).needs_majority_commit() {
            return self.begin_majority_commit(at, home, txn, fragment, effects);
        }

        let mut notes = self.commit_update(at, home, txn, fragment, effects);
        notes.extend(self.observe_commit_latency(at, at));
        notes
    }

    /// Record buffered reads into the run history; for read-only
    /// transactions also emit one `ReadObserved` telemetry event per
    /// distinct `(site, fragment)`, measuring how many agent-committed
    /// updates the serving replica had not yet installed. (Updates always
    /// execute at the agent home on current data, so only reads can be
    /// stale — the paper's §4.1 vs §4.3 freshness spectrum.)
    pub(crate) fn flush_reads(
        &mut self,
        txn: TxnId,
        ttype: TxnType,
        reads: &[(NodeId, ObjectId)],
        at: SimTime,
    ) {
        for &(site, object) in reads {
            self.history
                .record_local(site, txn, ttype, OpKind::Read, object, at);
        }
        if self.engine.telemetry.is_enabled() && matches!(ttype, TxnType::ReadOnly(_)) {
            let mut seen: std::collections::BTreeSet<(NodeId, FragmentId)> =
                std::collections::BTreeSet::new();
            for &(site, object) in reads {
                let Ok(frag) = self.catalog.fragment_of(object) else {
                    continue;
                };
                if !seen.insert((site, frag)) {
                    continue;
                }
                // Both counters are "next sequence number": what the agent
                // would assign next vs. what the replica expects next.
                let agent_seq = self.tokens.peek_frag_seq(frag);
                let seen_seq = self.nodes[site.0 as usize]
                    .next_install
                    .get(&frag)
                    .copied()
                    .unwrap_or(0);
                self.engine.emit(|| TelemetryEvent::ReadObserved {
                    node: site.0,
                    fragment: frag.0,
                    seen_seq,
                    agent_seq,
                });
            }
        }
    }

    /// The common commit: sequence allocation, history, replica, broadcast.
    pub(crate) fn commit_update(
        &mut self,
        at: SimTime,
        home: NodeId,
        txn: TxnId,
        fragment: FragmentId,
        effects: TxnEffects,
    ) -> Vec<Notification> {
        let frag_seq = self.tokens.alloc_frag_seq(fragment);
        let epoch = self.tokens.epoch(fragment);
        let TxnEffects { reads, writes } = effects;
        let updates = self.materialize_payload(writes);
        self.finish_commit(
            at, home, txn, fragment, frag_seq, epoch, &reads, updates, true,
        )
    }

    /// Commit with a pre-allocated sequence number (majority path) and an
    /// optional quasi broadcast (majority broadcasts `CommitCmd` instead).
    /// `updates` is the already-materialized shared payload: the WAL entry,
    /// every broadcast envelope, and all retransmission buffers share it.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn finish_commit(
        &mut self,
        at: SimTime,
        home: NodeId,
        txn: TxnId,
        fragment: FragmentId,
        frag_seq: u64,
        epoch: u64,
        reads: &[(NodeId, ObjectId)],
        updates: Updates,
        broadcast_quasi: bool,
    ) -> Vec<Notification> {
        let ttype = TxnType::Update(fragment);
        self.flush_reads(txn, ttype, reads, at);
        for (object, _) in &updates {
            self.history
                .record_local(home, txn, ttype, OpKind::Write, *object, at);
        }
        let slot = &mut self.nodes[home.0 as usize];
        slot.replica
            .commit_local(txn, fragment, frag_seq, epoch, updates.clone(), at);
        // The home already has the data; ordered installation at the home
        // resumes from the next sequence number.
        slot.next_install.insert(fragment, frag_seq + 1);

        if self.engine.telemetry.is_enabled() {
            let cause = Self::cid(fragment, epoch, frag_seq);
            self.engine.emit(|| TelemetryEvent::Committed {
                cause,
                node: home.0,
                txn_seq: txn.seq,
            });
            // The home's local commit is its install: fault-free, a commit
            // joins to exactly R installs (R = replica-set size).
            self.engine.emit(|| TelemetryEvent::Installed {
                cause,
                node: home.0,
            });
            if broadcast_quasi {
                let recipients = self.broadcast_recipients(fragment);
                self.engine.emit(|| TelemetryEvent::BroadcastSent {
                    cause,
                    node: home.0,
                    recipients,
                });
            }
        }

        if broadcast_quasi {
            let quasi = QuasiTransaction {
                txn,
                fragment,
                frag_seq,
                epoch,
                updates,
            };
            if self.batch_cfg.enabled() {
                // Group commit: park the quasi in the fragment's open
                // batch; it travels in one coalesced envelope when the
                // window fills or the linger timer fires.
                self.enqueue_batch(at, home, quasi);
            } else {
                self.broadcast_fragment(at, home, fragment, Envelope::Quasi { quasi });
            }
        }
        self.engine.metrics.incr(keys::TXN_COMMITTED);
        vec![Notification::Committed {
            txn,
            fragment,
            node: home,
            at,
        }]
    }

    /// Observe commit latency (separated so §4.1/§4.4.1 paths can pass the
    /// original submission time).
    pub(crate) fn observe_commit_latency(
        &mut self,
        submitted_at: SimTime,
        committed_at: SimTime,
    ) -> Vec<Notification> {
        self.engine
            .metrics
            .observe(keys::LATENCY_COMMIT, (committed_at - submitted_at).micros());
        Vec::new()
    }

    /// Terminal abort bookkeeping.
    pub(crate) fn finish_abort(
        &mut self,
        txn: TxnId,
        fragment: FragmentId,
        reason: AbortReason,
    ) -> Vec<Notification> {
        self.engine.metrics.incr(keys::TXN_ABORTED);
        let key = match &reason {
            AbortReason::Logic(_) => keys::ABORT_LOGIC,
            AbortReason::Initiation => keys::ABORT_INITIATION,
            AbortReason::Deadlock => keys::ABORT_DEADLOCK,
            AbortReason::Unavailable => keys::ABORT_UNAVAILABLE,
            AbortReason::UndeclaredClass => keys::ABORT_UNDECLARED_CLASS,
            AbortReason::Model(_) => keys::ABORT_MALFORMED,
        };
        self.engine.metrics.incr(key);
        let why = key.strip_prefix("abort.").unwrap_or(key);
        self.engine.emit(|| TelemetryEvent::Aborted {
            node: txn.origin.0,
            fragment: fragment.0,
            txn_seq: txn.seq,
            reason: why,
        });
        vec![Notification::Aborted {
            txn,
            fragment,
            reason,
        }]
    }

    /// Abort a pending (cross-event) transaction: release its locks or
    /// majority staging, then record the abort.
    pub(crate) fn abort_pending(
        &mut self,
        at: SimTime,
        txn: TxnId,
        reason: AbortReason,
    ) -> Vec<Notification> {
        let Some(pending) = self.pending.remove(&txn) else {
            return Vec::new();
        };
        let mut notes = Vec::new();
        let fragment = match pending {
            Pending::LockAcq {
                fragment,
                home,
                contacted_sites,
                ..
            }
            | Pending::XWait {
                fragment,
                home,
                contacted_sites,
                ..
            } => {
                notes.extend(self.release_all_sites(at, home, txn, &contacted_sites));
                fragment
            }
            Pending::Majority {
                fragment,
                home,
                quasi,
                ..
            } => {
                self.majority_inflight.remove(&fragment);
                // Return the reserved sequence number so no gap forms —
                // unless an election has re-homed the token since staging
                // (epoch bumped): the new regime's recovery already reset
                // the counter, and rolling it back would corrupt it.
                if quasi.epoch == self.tokens.epoch(fragment) {
                    let seq = self.tokens.peek_frag_seq(fragment);
                    self.tokens
                        .set_next_frag_seq(fragment, seq.saturating_sub(1));
                }
                self.broadcast_fragment(at, home, fragment, Envelope::AbortCmd { txn });
                notes.extend(self.drain_queued(at, fragment));
                fragment
            }
        };
        notes.extend(self.finish_abort(txn, fragment, reason));
        notes
    }

    /// Is an update on `fragment` blocked: a move or a majority commit in
    /// flight?
    fn fragment_busy(&self, fragment: FragmentId) -> bool {
        self.move_state.contains_key(&fragment) || self.majority_inflight.contains_key(&fragment)
    }

    /// Re-submit everything parked on `fragment` (move finished, or the
    /// in-flight majority commit resolved).
    pub(crate) fn drain_queued(&mut self, at: SimTime, fragment: FragmentId) -> Vec<Notification> {
        let mut notes = Vec::new();
        while let Some(q) = self.queued.get_mut(&fragment).and_then(|v| v.pop_front()) {
            self.engine
                .metrics
                .observe(keys::LATENCY_MOVE_WAIT, (at - q.queued_at).micros());
            notes.extend(self.handle_submission(at, q.submission));
            // A drained submission may itself start a majority commit, which
            // re-parks the rest; stop draining in that case.
            if self.fragment_busy(fragment) {
                break;
            }
        }
        notes
    }
}
