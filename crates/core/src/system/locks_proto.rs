//! The §4.1 remote read-lock protocol.
//!
//! A transaction under "fixed agents; read locks" must hold shared locks on
//! every data object it reads outside its own fragment, acquired *at the
//! home node of that object's agent* — the only place the object can be
//! updated. Grants carry the lock site's current values, so the reader
//! observes a globally consistent snapshot (reading a possibly-stale local
//! replica under a remote lock would defeat the purpose).
//!
//! Writers participate too: before committing, the agent takes exclusive
//! locks on its write set in its own lock table, so it blocks while remote
//! readers hold shared locks there. That is the classical 2PL interaction
//! that makes the strategy globally serializable — and the reason its
//! availability collapses during partitions, which experiment E1 measures.

use std::collections::{BTreeMap, BTreeSet};

use fragdb_model::{NodeId, ObjectId, TxnId, TxnType, Value};
use fragdb_sim::metrics::keys;
use fragdb_sim::{SimTime, TelemetryEvent};
use fragdb_storage::{LockMode, LockOutcome};

use crate::envelope::Envelope;
use crate::events::{AbortReason, Notification, Submission};
use crate::strategy::StrategyKind;
use crate::system::{Pending, RemoteLockReq, System};

impl System {
    /// Begin §4.1 processing for a submission: group declared foreign reads
    /// by lock site and fire the lock requests.
    pub(crate) fn begin_lock_acquisition(
        &mut self,
        at: SimTime,
        home: NodeId,
        sub: Submission,
    ) -> Vec<Notification> {
        let txn = self.alloc_txn(home);
        let fragment = sub.fragment;

        // Group foreign reads by the home node of their fragment's agent.
        // A driver can declare a read of an object in no fragment; that is
        // the driver's mistake, surfaced as a typed abort.
        let mut by_site: BTreeMap<NodeId, Vec<ObjectId>> = BTreeMap::new();
        for &object in &sub.foreign_reads {
            let frag = match self.catalog.fragment_of(object) {
                Ok(frag) => frag,
                Err(e) => return self.finish_abort(txn, fragment, AbortReason::Model(e)),
            };
            let site = self.tokens.home(frag);
            by_site.entry(site).or_default().push(object);
        }

        let timeout = match self.strategy_for(fragment) {
            StrategyKind::ReadLocks { timeout } => *timeout,
            _ => unreachable!("lock path requires ReadLocks strategy"),
        };

        // The lock-wait phase opens here and closes with the `LockGranted`
        // emitted just before the commit (or the read-only finish), paired
        // by `(node, txn_seq)`; an abort closes it via `Aborted` instead.
        let lock_sites = by_site.len() as u32;
        self.engine.emit(|| TelemetryEvent::LockWaitStarted {
            node: home.0,
            fragment: fragment.0,
            txn_seq: txn.seq,
            sites: lock_sites,
        });

        let sites: BTreeSet<NodeId> = by_site.keys().copied().collect();
        self.pending.insert(
            txn,
            Pending::LockAcq {
                fragment,
                home,
                program: Some(sub.program),
                read_only: sub.read_only,
                outstanding_sites: sites.clone(),
                contacted_sites: sites,
                granted: BTreeMap::new(),
                submitted_at: at,
            },
        );
        self.arm_timeout(timeout, txn);

        let mut notes = Vec::new();
        if by_site.is_empty() {
            // Nothing to lock remotely; proceed straight to execution.
            notes.extend(self.try_start_execution(at, txn));
            return notes;
        }
        for (site, objects) in by_site {
            let env = Envelope::LockReq {
                txn,
                objects,
                reply_to: home,
            };
            notes.extend(self.send_direct(at, home, site, env));
        }
        notes
    }

    /// A lock site receives a request: try to take every shared lock now.
    pub(crate) fn on_lock_req(
        &mut self,
        at: SimTime,
        site: NodeId,
        txn: TxnId,
        objects: Vec<ObjectId>,
        reply_to: NodeId,
    ) -> Vec<Notification> {
        let slot = &mut self.nodes[site.0 as usize];
        let mut outstanding = BTreeSet::new();
        for &object in &objects {
            match slot.locks.acquire(txn, object, LockMode::Shared) {
                LockOutcome::Granted => {}
                LockOutcome::Waiting => {
                    outstanding.insert(object);
                }
                LockOutcome::Deadlock => {
                    // Release through the resume path so any waiter the
                    // freed locks unblock is granted, not stranded.
                    let mut notes = self.on_lock_release(at, site, txn);
                    notes.extend(self.send_direct(
                        at,
                        site,
                        reply_to,
                        Envelope::LockDenied { txn },
                    ));
                    return notes;
                }
            }
        }
        if outstanding.is_empty() {
            let values = self.snapshot_values(site, &objects);
            return self.send_direct(at, site, reply_to, Envelope::LockGrant { txn, values });
        }
        self.nodes[site.0 as usize].remote_reqs.insert(
            txn,
            RemoteLockReq {
                objects,
                outstanding,
                reply_to,
            },
        );
        Vec::new()
    }

    fn snapshot_values(&self, site: NodeId, objects: &[ObjectId]) -> Vec<(ObjectId, Value)> {
        let replica = &self.nodes[site.0 as usize].replica;
        objects
            .iter()
            .map(|&o| (o, replica.read(o).clone()))
            .collect()
    }

    /// A grant (with values) arrives back at the requester.
    pub(crate) fn on_lock_grant(
        &mut self,
        at: SimTime,
        site: NodeId,
        txn: TxnId,
        values: Vec<(ObjectId, Value)>,
    ) -> Vec<Notification> {
        let Some(Pending::LockAcq {
            outstanding_sites,
            granted,
            ..
        }) = self.pending.get_mut(&txn)
        else {
            // Timed out / aborted meanwhile: release what we just got.
            return self.send_direct(at, site, site, Envelope::LockRelease { txn });
        };
        for (object, value) in values {
            granted.insert(object, (site, value));
        }
        outstanding_sites.remove(&site);
        if outstanding_sites.is_empty() {
            return self.try_start_execution(at, txn);
        }
        Vec::new()
    }

    /// Denial: the request would deadlock at some site. Abort.
    pub(crate) fn on_lock_denied(&mut self, at: SimTime, txn: TxnId) -> Vec<Notification> {
        self.abort_pending(at, txn, AbortReason::Deadlock)
    }

    /// All shared locks held: run the program, then (for updates) take
    /// exclusive locks on the write set before committing.
    pub(crate) fn try_start_execution(&mut self, at: SimTime, txn: TxnId) -> Vec<Notification> {
        let Some(Pending::LockAcq {
            fragment,
            home,
            program,
            read_only,
            granted,
            contacted_sites,
            submitted_at,
            ..
        }) = self.pending.get_mut(&txn)
        else {
            return Vec::new();
        };
        let fragment = *fragment;
        let home = *home;
        let read_only = *read_only;
        let submitted_at = *submitted_at;
        let program = program.take().expect("program present until execution");
        let granted = std::mem::take(granted);
        let contacted_sites = std::mem::take(contacted_sites);
        self.pending.remove(&txn);

        let effects = match self.run_program(at, home, txn, fragment, &granted, read_only, program)
        {
            Ok(e) => e,
            Err(reason) => {
                let mut notes = self.release_all_sites(at, home, txn, &contacted_sites);
                notes.extend(self.finish_abort(txn, fragment, reason));
                return notes;
            }
        };

        if read_only {
            self.engine.emit(|| TelemetryEvent::LockGranted {
                node: home.0,
                fragment: fragment.0,
                txn_seq: txn.seq,
            });
            self.flush_reads(txn, TxnType::ReadOnly(fragment), &effects.reads, at);
            self.engine.metrics.incr(keys::TXN_READ_FINISHED);
            let mut notes = self.release_all_sites(at, home, txn, &contacted_sites);
            notes.push(Notification::ReadFinished { txn, node: home });
            notes.extend(self.observe_commit_latency(submitted_at, at));
            return notes;
        }

        // Exclusive locks on the write set, at the home's own table.
        let mut blocked = false;
        {
            let slot = &mut self.nodes[home.0 as usize];
            for (object, _) in &effects.writes {
                match slot.locks.acquire(txn, *object, LockMode::Exclusive) {
                    LockOutcome::Granted => {}
                    LockOutcome::Waiting => blocked = true,
                    LockOutcome::Deadlock => {
                        // release_all_sites (below) releases at the home
                        // through the resume path; a raw release here would
                        // swallow the grants it produces.
                        let mut notes = self.release_all_sites(at, home, txn, &contacted_sites);
                        notes.extend(self.finish_abort(txn, fragment, AbortReason::Deadlock));
                        return notes;
                    }
                }
            }
        }
        if blocked {
            self.pending.insert(
                txn,
                Pending::XWait {
                    fragment,
                    home,
                    effects,
                    contacted_sites,
                    submitted_at,
                },
            );
            return Vec::new();
        }
        self.commit_locked(
            at,
            home,
            txn,
            fragment,
            effects,
            &contacted_sites,
            submitted_at,
        )
    }

    /// Commit a §4.1 transaction and release every lock it holds.
    #[allow(clippy::too_many_arguments)]
    fn commit_locked(
        &mut self,
        at: SimTime,
        home: NodeId,
        txn: TxnId,
        fragment: fragdb_model::FragmentId,
        effects: crate::program::TxnEffects,
        contacted_sites: &BTreeSet<NodeId>,
        submitted_at: SimTime,
    ) -> Vec<Notification> {
        // Shared grants AND the exclusive write-set locks are all held:
        // the lock-wait phase ends here, adjacent to the commit itself.
        self.engine.emit(|| TelemetryEvent::LockGranted {
            node: home.0,
            fragment: fragment.0,
            txn_seq: txn.seq,
        });
        let mut notes = self.commit_update(at, home, txn, fragment, effects);
        notes.extend(self.observe_commit_latency(submitted_at, at));
        notes.extend(self.release_all_sites(at, home, txn, contacted_sites));
        notes
    }

    /// Release `txn`'s locks locally and at every contacted remote site.
    pub(crate) fn release_all_sites(
        &mut self,
        at: SimTime,
        home: NodeId,
        txn: TxnId,
        contacted_sites: &BTreeSet<NodeId>,
    ) -> Vec<Notification> {
        let mut notes = self.on_lock_release(at, home, txn);
        for &site in contacted_sites {
            if site != home {
                notes.extend(self.send_direct(at, home, site, Envelope::LockRelease { txn }));
            }
        }
        notes
    }

    /// Release at one node, then resume whatever the freed locks unblock:
    /// remote requests that are now fully granted, and local exclusive
    /// waits that can now commit.
    pub(crate) fn on_lock_release(
        &mut self,
        at: SimTime,
        node: NodeId,
        txn: TxnId,
    ) -> Vec<Notification> {
        let newly = {
            let slot = &mut self.nodes[node.0 as usize];
            slot.remote_reqs.remove(&txn);
            slot.locks.release_all(txn)
        };
        let mut notes = Vec::new();
        let mut completed_remote: Vec<TxnId> = Vec::new();
        let mut maybe_commit: BTreeSet<TxnId> = BTreeSet::new();
        {
            let slot = &mut self.nodes[node.0 as usize];
            for (granted_txn, object) in newly {
                if let Some(req) = slot.remote_reqs.get_mut(&granted_txn) {
                    req.outstanding.remove(&object);
                    if req.outstanding.is_empty() {
                        completed_remote.push(granted_txn);
                    }
                } else {
                    maybe_commit.insert(granted_txn);
                }
            }
        }
        for t in completed_remote {
            let req = self.nodes[node.0 as usize]
                .remote_reqs
                .remove(&t)
                .expect("present");
            let values = self.snapshot_values(node, &req.objects);
            notes.extend(self.send_direct(
                at,
                node,
                req.reply_to,
                Envelope::LockGrant { txn: t, values },
            ));
        }
        for t in maybe_commit {
            notes.extend(self.try_finish_xwait(at, node, t));
        }
        notes
    }

    /// If `txn` is an XWait whose write set is now fully locked, commit it.
    fn try_finish_xwait(&mut self, at: SimTime, node: NodeId, txn: TxnId) -> Vec<Notification> {
        let ready = match self.pending.get(&txn) {
            Some(Pending::XWait { home, effects, .. }) if *home == node => {
                let slot = &self.nodes[node.0 as usize];
                effects
                    .writes
                    .iter()
                    .all(|(o, _)| slot.locks.holds(txn, *o))
            }
            _ => false,
        };
        if !ready {
            return Vec::new();
        }
        let Some(Pending::XWait {
            fragment,
            home,
            effects,
            contacted_sites,
            submitted_at,
        }) = self.pending.remove(&txn)
        else {
            unreachable!("checked above");
        };
        self.commit_locked(
            at,
            home,
            txn,
            fragment,
            effects,
            &contacted_sites,
            submitted_at,
        )
    }
}
