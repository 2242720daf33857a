//! Group-commit batching of the §3.2 quasi broadcast.
//!
//! With batching enabled ([`BatchConfig::enabled`]), a commit does not
//! broadcast its quasi-transaction immediately: the home parks it in a
//! per-fragment open batch, which flushes as **one** `Envelope::Batch`
//! when the window fills, when the linger timer fires, or — always —
//! before anything that must order after the batched commits (an agent
//! move). A receiver unpacks the batch element by element through the
//! ordinary install paths, so per-fragment `frag_seq` ordering, the
//! hold-back queue, duplicate suppression, and telemetry's
//! commit→install join are all unchanged; only the number of wire
//! envelopes (and therefore acks and retransmission state) shrinks from
//! O(commits × R) to O(batches × R).
//!
//! Loss semantics mirror the reliable layer's volatile send buffer: a
//! home crash discards its open batches exactly as it discards unacked
//! packets — the commits survive in the home's WAL and reach the other
//! replicas through recovery anti-entropy.
//!
//! [`BatchConfig::enabled`]: crate::config::BatchConfig::enabled

use fragdb_model::{FragmentId, NodeId, QuasiTransaction};
use fragdb_sim::metrics::keys;
use fragdb_sim::SimTime;

use crate::envelope::Envelope;
use crate::events::{Ev, Notification};
use crate::system::{OpenBatch, System};

impl System {
    /// Park a freshly committed quasi-transaction in its fragment's open
    /// batch, flushing if the window fills. Only called when batching is
    /// enabled; the disabled path broadcasts directly from `finish_commit`.
    pub(crate) fn enqueue_batch(&mut self, at: SimTime, home: NodeId, quasi: QuasiTransaction) {
        let fragment = quasi.fragment;
        debug_assert!(self.batch_cfg.enabled());
        let window = self.batch_cfg.window;
        let linger = self.batch_cfg.linger;
        let arm = match self.open_batches.get_mut(&fragment) {
            Some(ob) if ob.home == home => {
                ob.quasis.push(quasi);
                None
            }
            Some(_) => {
                // The agent moved with a batch still open at the old home;
                // moves flush eagerly, so this is defensive — flush the
                // stale batch, then open a fresh one.
                self.flush_batch(at, fragment);
                Some(quasi)
            }
            None => Some(quasi),
        };
        if let Some(quasi) = arm {
            let gen = self.next_batch_gen;
            self.next_batch_gen += 1;
            self.open_batches.insert(
                fragment,
                OpenBatch {
                    home,
                    gen,
                    quasis: vec![quasi],
                },
            );
            // A zero linger schedules at the current instant with a *later*
            // sequence number, so the flush runs after every event already
            // queued for this instant ("flush on idle"): same-instant
            // commits still coalesce.
            self.engine
                .schedule_at(at + linger, Ev::FlushBatch { fragment, gen });
        }
        let full = self
            .open_batches
            .get(&fragment)
            .is_some_and(|ob| ob.quasis.len() >= window);
        if full {
            self.flush_batch(at, fragment);
        }
    }

    /// A linger timer fired: flush the batch it guards, unless the batch
    /// already flushed (window full / move) and the generation is stale.
    pub(crate) fn handle_flush_batch(
        &mut self,
        at: SimTime,
        fragment: FragmentId,
        gen: u64,
    ) -> Vec<Notification> {
        if self
            .open_batches
            .get(&fragment)
            .is_some_and(|ob| ob.gen == gen)
        {
            self.flush_batch(at, fragment);
        }
        Vec::new()
    }

    /// Broadcast and close `fragment`'s open batch, if any. A singleton
    /// batch travels as a plain `Quasi` — the same wire shape the
    /// unbatched path produces.
    pub(crate) fn flush_batch(&mut self, at: SimTime, fragment: FragmentId) {
        let Some(ob) = self.open_batches.remove(&fragment) else {
            return;
        };
        let OpenBatch { home, quasis, .. } = ob;
        self.engine
            .metrics
            .observe(keys::NET_BATCH_SIZE, quasis.len() as u64);
        if quasis.len() == 1 {
            let quasi = quasis.into_iter().next().expect("len checked");
            self.broadcast_fragment(at, home, fragment, Envelope::Quasi { quasi });
        } else {
            self.broadcast_fragment(at, home, fragment, Envelope::Batch { batch: quasis });
        }
    }

    /// Install a received batch at `node`.
    ///
    /// Fast path: when every element is valid and lands exactly in
    /// `frag_seq` order, the whole batch hits the store and WAL in one
    /// [`Replica::install_batch`] call (one WAL append), followed by the
    /// shared per-element bookkeeping. Anything irregular — a stale
    /// prefix, a gap, a NoPrep fragment — falls back to the ordinary
    /// one-at-a-time install routing, which handles every edge case.
    ///
    /// [`Replica::install_batch`]: fragdb_storage::Replica::install_batch
    pub(crate) fn install_batch_env(
        &mut self,
        at: SimTime,
        node: NodeId,
        batch: Vec<QuasiTransaction>,
    ) -> Vec<Notification> {
        if self.batch_fast_path_ok(node, &batch) {
            let fragment = batch[0].fragment;
            self.nodes[node.0 as usize]
                .replica
                .install_batch(&batch, at);
            let mut notes = Vec::new();
            for quasi in batch {
                notes.extend(self.post_install(at, node, quasi));
            }
            // A held-back successor may now be next, exactly as after a
            // single in-order install.
            notes.extend(self.drain_holdback(at, node, fragment));
            notes
        } else {
            let mut notes = Vec::new();
            for quasi in batch {
                notes.extend(self.route_quasi_install(at, node, quasi));
            }
            notes
        }
    }

    /// Is the contiguous single-append fast path safe for this batch here?
    fn batch_fast_path_ok(&self, node: NodeId, batch: &[QuasiTransaction]) -> bool {
        let Some(first) = batch.first() else {
            return false;
        };
        let fragment = first.fragment;
        if !self.move_policy_for(fragment).ordered_installs() {
            return false;
        }
        let next = self.nodes[node.0 as usize]
            .next_install
            .get(&fragment)
            .copied()
            .unwrap_or(0);
        batch.iter().enumerate().all(|(i, q)| {
            q.fragment == fragment
                && q.frag_seq == next + i as u64
                && q.origin() != node
                && q.validate_against(&self.catalog).is_ok()
        })
    }

    /// Route one quasi-transaction to the policy-appropriate install path
    /// (shared by the `Quasi` arm and the batch fallback).
    pub(crate) fn route_quasi_install(
        &mut self,
        at: SimTime,
        node: NodeId,
        quasi: QuasiTransaction,
    ) -> Vec<Notification> {
        if self.move_policy_for(quasi.fragment).ordered_installs() {
            self.ordered_install(at, node, quasi)
        } else {
            self.noprep_install(at, node, quasi)
        }
    }
}
