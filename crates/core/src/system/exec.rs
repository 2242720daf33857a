//! Transaction execution and the commit path.

use std::collections::BTreeMap;

use fragdb_model::{
    FragmentId, NodeId, ObjectId, OpKind, QuasiTransaction, TxnId, TxnType, Updates, Value,
};
use fragdb_sim::metrics::keys::slot;
use fragdb_sim::{SimTime, TelemetryEvent};

use crate::envelope::Envelope;
use crate::events::{AbortReason, Notification, Submission};
use crate::program::TxnEffects;
use crate::system::{Notes, Pending, QueuedSub, System};

impl System {
    /// Entry point for a submission event.
    pub(crate) fn handle_submission(&mut self, at: SimTime, sub: Submission, notes: &mut Notes) {
        self.engine.metrics.incr(slot::TXN_SUBMITTED);
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
            return;
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
            return self.finish_abort(txn, fragment, AbortReason::Unavailable, notes);
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
            return self.begin_lock_acquisition(at, home, sub, notes);
        }
        self.execute_now(at, home, sub, &BTreeMap::new(), notes);
    }

    /// Run a transaction program against `home`'s replica in a spare set of
    /// buffers, mapping program errors to abort reasons. The buffers come
    /// back either way, for the caller to return when the transaction ends.
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
    ) -> (TxnEffects, Result<(), AbortReason>) {
        let effects = self.spare_effects.pop().unwrap_or_default();
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
            effects,
        );
        let outcome = program(&mut ctx).map_err(|e| match e {
            crate::program::ProgramError::Logic(m) => AbortReason::Logic(m),
            crate::program::ProgramError::InitiationViolation(_) => AbortReason::Initiation,
        });
        (ctx.finish(), outcome)
    }

    /// Run the program immediately (§4.2/§4.3 path, or §4.1 once locks are
    /// granted — then `granted` carries the lock-site snapshots).
    pub(crate) fn execute_now(
        &mut self,
        at: SimTime,
        home: NodeId,
        sub: Submission,
        granted: &BTreeMap<ObjectId, (NodeId, Value)>,
        notes: &mut Notes,
    ) {
        let txn = self.alloc_txn(home);
        let Submission {
            fragment,
            program,
            read_only,
            ..
        } = sub;
        let (mut effects, outcome) =
            self.run_program(at, home, txn, fragment, granted, read_only, program);
        if let Err(reason) = outcome.and_then(|()| self.check_reads(fragment, read_only, &effects))
        {
            self.return_effects(effects);
            return self.finish_abort(txn, fragment, reason, notes);
        }

        if read_only {
            self.flush_reads(txn, TxnType::ReadOnly(fragment), &effects.reads, at);
            self.return_effects(effects);
            self.engine.metrics.incr(slot::TXN_READ_FINISHED);
            return notes.push(Notification::ReadFinished { txn, node: home });
        }

        if self.move_policy_for(fragment).needs_majority_commit() {
            return self.begin_majority_commit(at, home, txn, fragment, effects, notes);
        }

        self.commit_update(at, home, txn, fragment, &mut effects, notes);
        self.return_effects(effects);
        self.observe_commit_latency(at, at);
    }

    /// What a finished program's reads decide before anything commits: the
    /// abort reason, if they do not stand.
    fn check_reads(
        &self,
        fragment: FragmentId,
        read_only: bool,
        effects: &TxnEffects,
    ) -> Result<(), AbortReason> {
        // §6 partial replication: a replica read must happen at a node
        // holding the fragment (reads via §4.1 lock grants are recorded at
        // the lock site, which is always a replica). Replicas answer reads
        // of unknown objects with Null, so a program can reach this point
        // having read an object outside every fragment — a typed abort,
        // not a panic.
        for &(site, object) in &effects.reads {
            let frag = self.catalog.fragment_of(object);
            let frag = frag.map_err(AbortReason::Model)?;
            if !self.replicated_at(frag, site) {
                return Err(AbortReason::Logic(format!(
                    "read of {object} at {site}, which holds no replica of {frag}"
                )));
            }
        }

        // §4.2 admission: the class (initiator, fragments-read) must be
        // declared. Checked post-execution, when the read set is known;
        // reads are side-effect-free so refusing here leaves no trace. Every
        // read object's fragment resolved above.
        let frags_read =
            (effects.reads.iter()).filter_map(|&(_, object)| self.catalog.fragment_of(object).ok());
        let strategy = self.strategy_for(fragment);
        let admitted = if read_only {
            strategy.admits_read_only(fragment, frags_read)
        } else {
            strategy.admits_update(fragment, frags_read)
        };
        admitted.then_some(()).ok_or(AbortReason::UndeclaredClass)
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
                let seen_seq = self.nodes[site.0 as usize].install_frontier(frag);
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
    /// The writes move out of `effects` into the payload.
    pub(crate) fn commit_update(
        &mut self,
        at: SimTime,
        home: NodeId,
        txn: TxnId,
        fragment: FragmentId,
        effects: &mut TxnEffects,
        notes: &mut Notes,
    ) {
        let seq = (
            self.tokens.alloc_frag_seq(fragment),
            self.tokens.epoch(fragment),
        );
        let updates = self.materialize_payload(&mut effects.writes);
        let reads = &effects.reads;
        self.finish_commit(at, home, txn, fragment, seq, reads, updates, true, notes);
    }

    /// Commit at `(frag_seq, epoch)`, pre-allocated on the majority path,
    /// with an optional quasi broadcast (majority broadcasts `CommitCmd`
    /// instead). `updates` is the already-materialized shared payload: the
    /// WAL entry, every broadcast envelope, and all retransmission buffers
    /// share it.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn finish_commit(
        &mut self,
        at: SimTime,
        home: NodeId,
        txn: TxnId,
        fragment: FragmentId,
        (frag_seq, epoch): (u64, u64),
        reads: &[(NodeId, ObjectId)],
        updates: Updates,
        broadcast_quasi: bool,
        notes: &mut Notes,
    ) {
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
        slot.set_install_frontier(fragment, frag_seq + 1);

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
        self.engine.metrics.incr(slot::TXN_COMMITTED);
        notes.push(Notification::Committed {
            txn,
            fragment,
            node: home,
            at,
        });
    }

    /// Observe commit latency (separated so §4.1/§4.4.1 paths can pass the
    /// original submission time).
    pub(crate) fn observe_commit_latency(&mut self, submitted_at: SimTime, committed_at: SimTime) {
        self.engine
            .metrics
            .observe(slot::LATENCY_COMMIT, (committed_at - submitted_at).micros());
    }

    /// Terminal abort bookkeeping.
    pub(crate) fn finish_abort(
        &mut self,
        txn: TxnId,
        fragment: FragmentId,
        reason: AbortReason,
        notes: &mut Notes,
    ) {
        self.engine.metrics.incr(slot::TXN_ABORTED);
        let abort = match &reason {
            AbortReason::Logic(_) => slot::ABORT_LOGIC,
            AbortReason::Initiation => slot::ABORT_INITIATION,
            AbortReason::Deadlock => slot::ABORT_DEADLOCK,
            AbortReason::Unavailable => slot::ABORT_UNAVAILABLE,
            AbortReason::UndeclaredClass => slot::ABORT_UNDECLARED_CLASS,
            AbortReason::Model(_) => slot::ABORT_MALFORMED,
        };
        self.engine.metrics.incr(abort);
        let key = abort.key();
        let why = key.strip_prefix("abort.").unwrap_or(key);
        self.engine.emit(|| TelemetryEvent::Aborted {
            node: txn.origin.0,
            fragment: fragment.0,
            txn_seq: txn.seq,
            reason: why,
        });
        notes.push(Notification::Aborted {
            txn,
            fragment,
            reason,
        });
    }

    /// Abort a pending (cross-event) transaction: release its locks or
    /// majority staging, then record the abort. This is the one routine
    /// that ends a pending transaction as aborted: a lock denial, a
    /// timeout, a move's orphans, the epoch fence and a crash of the home
    /// all come here. A crashed home's releases and `AbortCmd`s wait in
    /// `owed` until it recovers, and its queue stays parked.
    pub(crate) fn abort_pending(
        &mut self,
        at: SimTime,
        txn: TxnId,
        reason: AbortReason,
        notes: &mut Notes,
    ) {
        let Some(pending) = self.pending.remove(&txn) else {
            return;
        };
        let fragment = match pending {
            Pending::LockAcq {
                fragment,
                home,
                contacted_sites,
                ..
            } => {
                self.release_all_sites(at, home, txn, &contacted_sites, notes);
                fragment
            }
            Pending::XWait {
                fragment,
                home,
                contacted_sites,
                effects,
                ..
            } => {
                self.return_effects(effects);
                self.release_all_sites(at, home, txn, &contacted_sites, notes);
                fragment
            }
            Pending::Majority {
                fragment,
                home,
                quasi,
                effects,
                ..
            } => {
                self.return_effects(effects);
                // Return the reserved sequence number so no gap forms —
                // unless a move or an election has re-homed the token since
                // staging (epoch bumped): the new regime's recovery already
                // reset the counter, and rolling it back would corrupt it.
                if quasi.epoch == self.tokens.epoch(fragment) {
                    let seq = self.tokens.peek_frag_seq(fragment);
                    self.tokens
                        .set_next_frag_seq(fragment, seq.saturating_sub(1));
                }
                self.broadcast_fragment(at, home, fragment, Envelope::AbortCmd { txn });
                if !self.down.contains(&home) {
                    self.drain_queued(at, fragment, notes);
                }
                fragment
            }
        };
        self.finish_abort(txn, fragment, reason, notes);
    }

    /// Is an update on `fragment` blocked: a move or a majority commit in
    /// flight? §4.4.1 allows one commit in flight per fragment.
    pub(crate) fn fragment_busy(&self, fragment: FragmentId) -> bool {
        self.move_state.contains_key(&fragment)
            || (self.move_policy_for(fragment).needs_majority_commit()
                && self
                    .pending
                    .values()
                    .any(|p| matches!(p, Pending::Majority { fragment: f, .. } if *f == fragment)))
    }

    /// Re-submit everything parked on `fragment` (move finished, or the
    /// in-flight majority commit resolved).
    pub(crate) fn drain_queued(&mut self, at: SimTime, fragment: FragmentId, notes: &mut Notes) {
        while let Some(q) = self.queued.get_mut(&fragment).and_then(|v| v.pop_front()) {
            self.engine
                .metrics
                .observe(slot::LATENCY_MOVE_WAIT, (at - q.queued_at).micros());
            self.handle_submission(at, q.submission, notes);
            // A drained submission may itself start a majority commit, which
            // re-parks the rest; stop draining in that case.
            if self.fragment_busy(fragment) {
                break;
            }
        }
    }
}
