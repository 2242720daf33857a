//! Group-commit batching of the §3.2 quasi broadcast.
//!
//! With batching enabled ([`BatchConfig::enabled`]), a commit does not
//! broadcast its quasi-transaction immediately: the home parks it in a
//! per-fragment open batch, which flushes as **one** `Envelope::Batch`
//! when the window fills, when the linger timer fires, or — always —
//! before anything that must order after the batched commits (an agent
//! move). A receiver unpacks the batch element by element through the
//! ordinary install paths — there is no batch-wide install — so
//! per-fragment `frag_seq` ordering, the hold-back queue, duplicate
//! suppression, and telemetry's commit→install join are all unchanged;
//! only the number of wire envelopes (and therefore acks and
//! retransmission state) shrinks from O(commits × R) to O(batches × R).
//!
//! Loss semantics mirror the reliable layer's volatile send buffer: a
//! home crash discards its open batches exactly as it discards unacked
//! packets — the commits survive in the home's WAL and reach the other
//! replicas through recovery anti-entropy.
//!
//! [`BatchConfig::enabled`]: crate::config::BatchConfig::enabled

use fragdb_model::{FragmentId, NodeId, QuasiTransaction};
use fragdb_sim::metrics::keys::slot;
use fragdb_sim::{SimDuration, SimTime};

use crate::envelope::Envelope;
use crate::events::Ev;
use crate::system::{Notes, OpenBatch, System};

/// How long an under-full batch waits for more commits.
const LINGER: SimDuration = SimDuration(5_000);

impl System {
    /// Park a freshly committed quasi-transaction in its fragment's open
    /// batch, flushing if the window fills. Only called when batching is
    /// enabled; the disabled path broadcasts directly from `finish_commit`.
    pub(crate) fn enqueue_batch(&mut self, at: SimTime, home: NodeId, quasi: QuasiTransaction) {
        let fragment = quasi.fragment;
        debug_assert!(self.batch_cfg.enabled());
        let f = fragment.0 as usize;
        if f >= self.open_batches.len() {
            let closed = || OpenBatch {
                home,
                gen: 0,
                quasis: Vec::new(),
            };
            self.open_batches.resize_with(f + 1, closed);
        }
        let ob = &self.open_batches[f];
        if !ob.quasis.is_empty() && ob.home != home {
            // The agent moved with a batch still open at the old home;
            // moves flush eagerly, so this is defensive — flush the stale
            // batch, then open a fresh one.
            self.flush_batch(at, fragment);
        }
        let ob = &mut self.open_batches[f];
        if ob.quasis.is_empty() {
            (ob.home, ob.gen) = (home, self.next_batch_gen);
            self.next_batch_gen += 1;
            let flush = Ev::FlushBatch {
                fragment,
                gen: ob.gen,
            };
            self.engine.schedule_at(at + LINGER, flush);
        }
        ob.quasis.push(quasi);
        if ob.quasis.len() >= self.batch_cfg.window {
            self.flush_batch(at, fragment);
        }
    }

    /// A linger timer fired: flush the batch it guards, unless the batch
    /// already flushed (window full / move) and the generation is stale.
    pub(crate) fn handle_flush_batch(&mut self, at: SimTime, fragment: FragmentId, gen: u64) {
        let open = self.open_batches.get(fragment.0 as usize);
        if open.is_some_and(|ob| !ob.quasis.is_empty() && ob.gen == gen) {
            self.flush_batch(at, fragment);
        }
    }

    /// Broadcast and close `fragment`'s open batch, if any. A singleton
    /// batch travels as a plain `Quasi` — the same wire shape the
    /// unbatched path produces. The batch's buffer stays for the next one;
    /// the envelope carries one shared copy of its quasis.
    pub(crate) fn flush_batch(&mut self, at: SimTime, fragment: FragmentId) {
        let Some(ob) = self.open_batches.get_mut(fragment.0 as usize) else {
            return;
        };
        let (home, len) = (ob.home, ob.quasis.len());
        let env = match len {
            0 => return,
            1 => Envelope::Quasi {
                quasi: ob.quasis.pop().expect("len checked"),
            },
            _ => Envelope::Batch {
                batch: ob.quasis.drain(..).collect(),
            },
        };
        self.engine
            .metrics
            .observe(slot::NET_BATCH_SIZE, len as u64);
        self.broadcast_fragment(at, home, fragment, env);
    }

    /// Route one quasi-transaction to the policy-appropriate install path
    /// (shared by the `Quasi` arm and every element of a `Batch`).
    pub(crate) fn route_quasi_install(
        &mut self,
        at: SimTime,
        node: NodeId,
        quasi: QuasiTransaction,
        notes: &mut Notes,
    ) {
        if self.move_policy_for(quasi.fragment).ordered_installs() {
            self.ordered_install(at, node, quasi, notes);
        } else {
            self.noprep_install(at, node, quasi, notes);
        }
    }
}

#[cfg(test)]
mod tests {
    use fragdb_model::{AgentId, FragmentCatalog, TxnId, Value};
    use fragdb_net::Topology;
    use fragdb_sim::metrics::keys;
    use fragdb_sim::SimDuration;

    use crate::config::{BatchConfig, SystemConfig};

    use super::*;

    /// An entry held back because it arrived before its predecessor by
    /// another route (a `SeqReply`, say) must not be stranded when a
    /// `Batch` covering it arrives contiguous from `next_install`: the held
    /// copy installs as soon as it is next, and the batch's copy is a
    /// duplicate.
    #[test]
    fn batch_covering_a_held_back_entry_strands_nothing() {
        let mut b = FragmentCatalog::builder();
        let (f, objs) = b.add_fragment("F0", 3);
        let mut sys = System::build(
            Topology::full_mesh(3, SimDuration::from_millis(10)),
            b.build(),
            vec![(f, AgentId::Node(NodeId(0)), NodeId(0))],
            SystemConfig::unrestricted(42).with_batching(BatchConfig::window(8)),
        )
        .expect("builds");
        let quasi = |seq: u64| QuasiTransaction {
            txn: TxnId::new(NodeId(0), seq),
            fragment: f,
            frag_seq: seq,
            epoch: 0,
            updates: vec![(objs[seq as usize], Value::Int(seq as i64))].into(),
        };
        sys.nodes[1]
            .holdback
            .entry(f)
            .or_default()
            .insert(1, quasi(1));
        let batch = (0..=2).map(quasi).collect();
        let mut notes = Vec::new();
        sys.dispatch(
            SimTime::from_millis(1),
            NodeId(0),
            NodeId(1),
            Envelope::Batch { batch },
            &mut notes,
        );
        let slot = &sys.nodes[1];
        let held: usize = slot.holdback.values().map(|hb| hb.len()).sum();
        assert_eq!(held, 0, "a held-back entry was stranded");
        assert_eq!(sys.engine.metrics.counter(keys::INSTALL_DUPLICATE), 1);
        assert_eq!(slot.replica.wal().len(), 3);
        assert_eq!(slot.install_frontier(f), 3);
    }
}
