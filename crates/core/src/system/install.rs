//! Quasi-transaction installation paths.
//!
//! * [`System::ordered_install`] — used by every movement policy except
//!   §4.4.3: a fragment's updates are installed strictly in `frag_seq`
//!   order (per-fragment hold-back), which is what keeps replicas mutually
//!   consistent across agent moves (§4.4.2's "all other sites are requested
//!   not to install updates from T2 until those from T1 have been
//!   installed").
//! * [`System::do_install`] — the actual installation: replica + WAL +
//!   history + telemetry + the crash-recovery and §4.4.2B completion
//!   checks. Every install path ends here, each element of a `Batch`
//!   envelope included.
//!
//! The §4.4.3 path lives in `moves.rs` (it is intertwined with `M0`
//! processing).

use fragdb_model::{ModelError, NodeId, QuasiTransaction, TxnType};
use fragdb_sim::metrics::keys::slot;
use fragdb_sim::{SimTime, TelemetryEvent};

use crate::events::Notification;
use crate::system::{MoveState, MoveWait, Notes, System};

impl System {
    /// Refuse a malformed quasi-transaction: the replica is untouched, the
    /// refusal is metered and surfaced to the driver as a typed error.
    pub(crate) fn reject_install(
        &mut self,
        at: SimTime,
        node: NodeId,
        quasi: &QuasiTransaction,
        error: ModelError,
        notes: &mut Notes,
    ) {
        self.engine.metrics.incr(slot::INSTALL_REJECTED);
        notes.push(Notification::InstallRejected {
            node,
            txn: quasi.txn,
            fragment: quasi.fragment,
            error,
            at,
        });
    }

    /// Install `quasi` at `node` respecting `frag_seq` order; out-of-order
    /// arrivals are held back, duplicates dropped.
    pub(crate) fn ordered_install(
        &mut self,
        at: SimTime,
        node: NodeId,
        quasi: QuasiTransaction,
        notes: &mut Notes,
    ) {
        if let Err(e) = quasi.validate_against(&self.catalog) {
            return self.reject_install(at, node, &quasi, e, notes);
        }
        let slot = &mut self.nodes[node.0 as usize];
        let fragment = quasi.fragment;
        let next = slot.frontier_mut(fragment).get_or_insert(0);
        if quasi.frag_seq < *next {
            self.engine.metrics.incr(slot::INSTALL_DUPLICATE);
            return;
        }
        if quasi.frag_seq > *next {
            self.engine.metrics.incr(slot::INSTALL_HELDBACK);
            let cause = Self::cid(fragment, quasi.epoch, quasi.frag_seq);
            let hb = slot.holdback.entry(fragment).or_default();
            hb.insert(quasi.frag_seq, quasi);
            let depth = hb.len() as u64;
            self.engine.emit(|| TelemetryEvent::HeldBack {
                cause,
                node: node.0,
                depth,
            });
            return;
        }
        // quasi.frag_seq == *next: install it, then every held-back
        // successor that is now next in `frag_seq` order.
        self.do_install(at, node, quasi, notes);
        loop {
            let slot = &mut self.nodes[node.0 as usize];
            let next = slot.install_frontier(fragment);
            let Some(q) = slot
                .holdback
                .get_mut(&fragment)
                .and_then(|hb| hb.remove(&next))
            else {
                break;
            };
            self.do_install(at, node, q, notes);
        }
    }

    /// Unconditionally install `quasi` at `node`: replica + WAL write,
    /// sequence bookkeeping, history install records, telemetry,
    /// notifications, and the recovery / §4.4.2B "caught up yet?" checks.
    pub(crate) fn do_install(
        &mut self,
        at: SimTime,
        node: NodeId,
        quasi: QuasiTransaction,
        notes: &mut Notes,
    ) {
        // `quasi.origin() == node` is legitimate here: a home that crashed
        // between `Prepare` and its local commit re-installs its own entry
        // during catch-up after an elected successor resurrected it.
        let slot = &mut self.nodes[node.0 as usize];
        slot.replica.install_quasi(&quasi, at);
        slot.set_install_frontier(quasi.fragment, quasi.frag_seq + 1);
        // Prune any staged copy of this transaction: once installed, the
        // stage is redundant, and leaving it would let a later
        // `include_staged` recovery resurrect an entry that is already in
        // the sequence (and leak memory until then).
        slot.staged.remove(&quasi.txn);
        let ttype = TxnType::Update(quasi.fragment);
        for (object, _) in &quasi.updates {
            self.history
                .record_install(node, quasi.txn, ttype, *object, at);
        }
        self.engine.metrics.incr(slot::INSTALL_COUNT);
        let cause = Self::cid(quasi.fragment, quasi.epoch, quasi.frag_seq);
        self.engine.emit(|| TelemetryEvent::Installed {
            cause,
            node: node.0,
        });

        // Crash recovery: did this install reach the catch-up target?
        if let Some(&(target, since)) = self.recovering.get(&(node, quasi.fragment)) {
            let caught_up = self.nodes[node.0 as usize].install_frontier(quasi.fragment) >= target;
            if caught_up {
                self.recovering.remove(&(node, quasi.fragment));
                self.engine
                    .metrics
                    .observe(slot::LATENCY_RECOVERY, (at - since).micros());
                if !self.recovering.keys().any(|&(n, _)| n == node) {
                    self.engine
                        .emit(|| TelemetryEvent::CatchupComplete { node: node.0 });
                }
            }
        }

        let fragment = quasi.fragment;
        notes.push(Notification::Installed { node, quasi, at });

        // §4.4.2B: if this node is a new home waiting to catch up, check
        // whether this install completed the prefix.
        if let Some(MoveState {
            new_home,
            wait: MoveWait::AwaitingSeq { upto },
            ..
        }) = self.move_state.get(&fragment)
        {
            let (new_home, upto) = (*new_home, *upto);
            let caught_up =
                new_home == node && self.nodes[node.0 as usize].install_frontier(fragment) >= upto;
            if caught_up {
                self.complete_move(at, fragment, new_home, notes);
            }
        }
    }
}
