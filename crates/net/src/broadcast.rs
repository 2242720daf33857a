//! Reliable FIFO broadcast (§3.2).
//!
//! The paper requires a broadcast mechanism in which
//!
//! 1. all messages are eventually delivered, and
//! 2. messages broadcast by one node are *processed* at all other nodes in
//!    the order they were sent.
//!
//! (1) is provided by the channel underneath ([`ReliableNet`] in this
//! crate). (2) is enforced here: every broadcast carries a
//! per-`(sender, receiver)` sequence number, and each receiver keeps a
//! **hold-back queue** per sender, releasing messages to the application
//! strictly in sequence order.
//! Duplicates (possible under retransmission schemes) are dropped.
//!
//! Sequencing is per ordered pair rather than per sender so that a message
//! may go to any *subset* of receivers (partial replication) without
//! stalling the skipped receivers' hold-back queues on sequence numbers
//! they will never see. An earlier revision also offered a per-sender
//! counter (`stamp`); mixing the two fed the same `(receiver, sender)`
//! hold-back key from two independent counters, silently dropping live
//! messages as "duplicates" — that path is gone, [`stamp_for`] is the only
//! way to allocate a sequence number.
//!
//! The layer is transport-agnostic: [`stamp_for`] allocates the sequence
//! number, the caller fans the stamped message out over whatever channel it
//! likes, and [`BroadcastLayer::accept`] runs the hold-back logic at the
//! receiver. [`resync_node`] re-synchronizes both directions of a node's
//! streams after a crash, abstracting the recovery handshake of a real
//! deployment.
//!
//! **No caller left in the workspace.** [`ReliableNet`] already delivers
//! each ordered pair's messages once and in order, so over it this layer
//! only ever released the arriving message; `fragdb-core` and the mutex
//! baseline stopped stamping (DESIGN.md §3f). The one remaining caller is
//! the outside-in driver in `benchmark/src/layers.rs` (the
//! `net.broadcast.*` rows), and the type leaves with that driver.
//!
//! [`ReliableNet`]: crate::reliable::ReliableNet
//! [`stamp_for`]: BroadcastLayer::stamp_for
//! [`resync_node`]: BroadcastLayer::resync_node

use std::collections::BTreeMap;

use fragdb_model::NodeId;

/// Per-pair stamping and per-receiver FIFO hold-back state.
#[derive(Clone, Debug, Default)]
pub struct BroadcastLayer<M> {
    /// Next sequence number to assign, per `(sender, receiver)` pair.
    pair_seq: BTreeMap<(NodeId, NodeId), u64>,
    /// Next sequence expected, per `(receiver, sender)`.
    next_expected: BTreeMap<(NodeId, NodeId), u64>,
    /// Out-of-order arrivals awaiting their predecessors, per
    /// `(receiver, sender)`, keyed by sequence number.
    holdback: BTreeMap<(NodeId, NodeId), BTreeMap<u64, M>>,
    /// Duplicate messages dropped.
    duplicates: u64,
}

impl<M> BroadcastLayer<M> {
    /// Fresh layer with no history.
    pub fn new() -> Self {
        BroadcastLayer {
            pair_seq: BTreeMap::new(),
            next_expected: BTreeMap::new(),
            holdback: BTreeMap::new(),
            duplicates: 0,
        }
    }

    /// Allocate the next sequence number for the ordered pair
    /// `(from, to)`. Receivers key their hold-back by `(receiver, sender)`,
    /// so per-pair streams deliver the same per-sender FIFO guarantee while
    /// allowing each message to go to any subset of receivers.
    pub fn stamp_for(&mut self, from: NodeId, to: NodeId) -> u64 {
        let seq = self.pair_seq.entry((from, to)).or_insert(0);
        let s = *seq;
        *seq += 1;
        s
    }

    /// Process an arrival of `(sender, seq, payload)` at `receiver`.
    ///
    /// Returns the messages now processable at `receiver` from `sender`, in
    /// strict sequence order. The arrival itself is included when it is the
    /// next expected one; otherwise it is held back and an empty vec is
    /// returned. Duplicates are dropped.
    pub fn accept(
        &mut self,
        receiver: NodeId,
        sender: NodeId,
        seq: u64,
        payload: M,
    ) -> Vec<(u64, M)> {
        let key = (receiver, sender);
        let expected = self.next_expected.entry(key).or_insert(0);
        if seq < *expected {
            self.duplicates += 1;
            return Vec::new();
        }
        let slot = self.holdback.entry(key).or_default();
        if slot.insert(seq, payload).is_some() {
            // Same seq already waiting: duplicate; the newer copy replaced
            // the older identical one, which is harmless.
            self.duplicates += 1;
        }
        let mut ready = Vec::new();
        while let Some(msg) = slot.remove(expected) {
            ready.push((*expected, msg));
            *expected += 1;
        }
        ready
    }

    /// Re-synchronize every stream touching `node` after it crashed and
    /// lost its volatile broadcast state.
    ///
    /// Both directions are cut over to "now": the recovering node expects
    /// from each peer exactly what that peer will stamp next, and each peer
    /// expects from the recovering node what it will stamp next. Hold-back
    /// queues on both sides are discarded — anything unprocessed there (and
    /// any pre-crash message still in flight, which necessarily carries a
    /// stamp below the cut) is dropped as stale on arrival, and its
    /// *content* is recovered out-of-band via WAL replay and the
    /// `SeqQuery` anti-entropy path. This models the sequence-number
    /// handshake a real recovery protocol would run, compressed to an
    /// instant (safe here because every in-flight stamp is strictly below
    /// the cut).
    pub fn resync_node(&mut self, node: NodeId) {
        let peers: std::collections::BTreeSet<NodeId> = self
            .pair_seq
            .keys()
            .chain(self.next_expected.keys())
            .flat_map(|&(a, b)| [a, b])
            .filter(|&n| n != node)
            .collect();
        for &p in &peers {
            // node's inbound stream from p.
            let inbound = self.pair_seq.get(&(p, node)).copied().unwrap_or(0);
            self.next_expected.insert((node, p), inbound);
            self.holdback.remove(&(node, p));
            // p's inbound stream from node.
            let outbound = self.pair_seq.get(&(node, p)).copied().unwrap_or(0);
            self.next_expected.insert((p, node), outbound);
            self.holdback.remove(&(p, node));
        }
    }

    /// Number of messages held back across all `(receiver, sender)` pairs.
    pub fn held_back(&self) -> usize {
        self.holdback.values().map(BTreeMap::len).sum()
    }

    /// Messages held back at `receiver` from `sender`.
    pub fn held_back_for(&self, receiver: NodeId, sender: NodeId) -> usize {
        self.holdback
            .get(&(receiver, sender))
            .map_or(0, BTreeMap::len)
    }

    /// Next sequence `receiver` expects from `sender`.
    pub fn expected(&self, receiver: NodeId, sender: NodeId) -> u64 {
        self.next_expected
            .get(&(receiver, sender))
            .copied()
            .unwrap_or(0)
    }

    /// Count of dropped duplicates.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn stamp_for_is_dense_per_pair() {
        let mut b: BroadcastLayer<&str> = BroadcastLayer::new();
        assert_eq!(b.stamp_for(n(0), n(1)), 0);
        assert_eq!(b.stamp_for(n(0), n(1)), 1);
        assert_eq!(b.stamp_for(n(0), n(2)), 0);
        assert_eq!(b.stamp_for(n(1), n(0)), 0);
    }

    #[test]
    fn in_order_arrivals_release_immediately() {
        let mut b = BroadcastLayer::new();
        assert_eq!(b.accept(n(1), n(0), 0, "a"), vec![(0, "a")]);
        assert_eq!(b.accept(n(1), n(0), 1, "b"), vec![(1, "b")]);
        assert_eq!(b.expected(n(1), n(0)), 2);
    }

    #[test]
    fn out_of_order_arrival_is_held_back() {
        let mut b = BroadcastLayer::new();
        assert!(b.accept(n(1), n(0), 2, "c").is_empty());
        assert!(b.accept(n(1), n(0), 1, "b").is_empty());
        assert_eq!(b.held_back_for(n(1), n(0)), 2);
        // Seq 0 arrives: the whole prefix is released, in order.
        assert_eq!(
            b.accept(n(1), n(0), 0, "a"),
            vec![(0, "a"), (1, "b"), (2, "c")]
        );
        assert_eq!(b.held_back(), 0);
    }

    #[test]
    fn duplicates_are_dropped() {
        let mut b = BroadcastLayer::new();
        b.accept(n(1), n(0), 0, "a");
        assert!(b.accept(n(1), n(0), 0, "a").is_empty());
        assert_eq!(b.duplicates(), 1);
        // Duplicate of a held-back message.
        b.accept(n(1), n(0), 5, "f");
        b.accept(n(1), n(0), 5, "f");
        assert_eq!(b.duplicates(), 2);
        assert_eq!(b.held_back_for(n(1), n(0)), 1);
    }

    #[test]
    fn per_sender_streams_are_independent() {
        let mut b = BroadcastLayer::new();
        assert!(b.accept(n(2), n(0), 1, "x").is_empty());
        // A different sender's seq 0 is unaffected by sender 0's gap.
        assert_eq!(b.accept(n(2), n(1), 0, "y"), vec![(0, "y")]);
    }

    #[test]
    fn per_receiver_streams_are_independent() {
        let mut b = BroadcastLayer::new();
        assert_eq!(b.accept(n(1), n(0), 0, "a"), vec![(0, "a")]);
        // Receiver 2 hasn't seen seq 0 yet.
        assert!(b.accept(n(2), n(0), 1, "b").is_empty());
        assert_eq!(b.accept(n(2), n(0), 0, "a"), vec![(0, "a"), (1, "b")]);
    }

    #[test]
    fn large_gap_then_fill() {
        let mut b = BroadcastLayer::new();
        for seq in (1..100u64).rev() {
            assert!(b.accept(n(1), n(0), seq, seq).is_empty());
        }
        let released = b.accept(n(1), n(0), 0, 0);
        assert_eq!(released.len(), 100);
        let seqs: Vec<u64> = released.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, (0..100).collect::<Vec<_>>());
    }

    /// Regression for the seq-collision footgun: the removed per-sender
    /// `stamp` counter and `stamp_for` both fed the same
    /// `(receiver, sender)` hold-back key, so mixing them dropped live
    /// messages as duplicates. With per-pair stamping only, subset fan-out
    /// followed by full fan-out releases every message exactly once.
    #[test]
    fn subset_then_full_fanout_loses_nothing() {
        let mut b: BroadcastLayer<u64> = BroadcastLayer::new();
        let sender = n(0);
        let sub = [n(1)]; // partial-replication style subset
        let all = [n(1), n(2)];
        let mut released: BTreeMap<NodeId, Vec<u64>> = BTreeMap::new();
        // Message 100 goes only to node 1; message 200 goes to everyone.
        for &to in &sub {
            let seq = b.stamp_for(sender, to);
            for (_, m) in b.accept(to, sender, seq, 100) {
                released.entry(to).or_default().push(m);
            }
        }
        for &to in &all {
            let seq = b.stamp_for(sender, to);
            for (_, m) in b.accept(to, sender, seq, 200) {
                released.entry(to).or_default().push(m);
            }
        }
        // Node 1 sees both, in order; node 2 sees only the second — and
        // crucially nothing was dropped as a duplicate.
        assert_eq!(released[&n(1)], vec![100, 200]);
        assert_eq!(released[&n(2)], vec![200]);
        assert_eq!(b.duplicates(), 0);
    }

    #[test]
    fn resync_cuts_both_directions() {
        let mut b: BroadcastLayer<&str> = BroadcastLayer::new();
        // Node 0 sends seqs 0..3 to node 1; only 0 and 1 get processed,
        // 3 sits in the hold-back (2 "lost in flight").
        for (seq, msg) in [(0, "a"), (1, "b")] {
            b.stamp_for(n(0), n(1));
            b.accept(n(1), n(0), seq, msg);
        }
        b.stamp_for(n(0), n(1)); // seq 2, in flight
        let seq3 = b.stamp_for(n(0), n(1));
        b.accept(n(1), n(0), seq3, "d");
        assert_eq!(b.held_back_for(n(1), n(0)), 1);
        // Node 1 also had sent one message to node 0.
        let s = b.stamp_for(n(1), n(0));
        b.accept(n(0), n(1), s, "x");

        // Node 1 crashes and recovers: both directions cut to "now".
        b.resync_node(n(1));
        assert_eq!(b.held_back_for(n(1), n(0)), 0);
        assert_eq!(b.expected(n(1), n(0)), 4); // node 0 stamped 4 so far
        assert_eq!(b.expected(n(0), n(1)), 1); // node 1 stamped 1 so far

        // The in-flight pre-crash seq 2 now arrives: dropped as stale.
        assert!(b.accept(n(1), n(0), 2, "c").is_empty());
        assert_eq!(b.duplicates(), 1);
        // Fresh post-recovery traffic flows normally in both directions.
        let s = b.stamp_for(n(0), n(1));
        assert_eq!(b.accept(n(1), n(0), s, "e"), vec![(4, "e")]);
        let s = b.stamp_for(n(1), n(0));
        assert_eq!(b.accept(n(0), n(1), s, "y"), vec![(1, "y")]);
    }
}
