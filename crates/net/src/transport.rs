//! Store-and-forward point-to-point transport.
//!
//! Semantics (the standard model of a routed WAN with retransmission):
//!
//! * A message from `a` to `b` sent while they are in the same connected
//!   component is delivered after the shortest-path delay.
//! * A message sent while they are disconnected waits in `a`'s outbox and
//!   is released — in send order — the moment a [`NetworkChange`] reconnects
//!   them. This realizes the paper's §3.2 requirement that "all messages
//!   are eventually delivered" (assuming every partition eventually heals).
//! * Deliveries between one ordered pair `(a, b)` are never reordered:
//!   each delivery is scheduled no earlier than one microsecond after the
//!   previous one for the same pair.
//!
//! Messages already in flight when a partition starts are still delivered
//! (they were already "past" the cut); only *new* sends are blocked. This
//! slightly favors availability, is deterministic, and matches the paper's
//! level of abstraction.
//!
//! The transport is engine-agnostic: `send`/`apply_change` return
//! `(deliver_at, Delivery)` pairs that the caller schedules on its own
//! event loop.

use std::collections::{BTreeMap, VecDeque};

use fragdb_model::NodeId;
use fragdb_sim::SimTime;

use crate::partition::NetworkChange;
use crate::topology::Topology;
use crate::wire::{fifo_slot, Wire};

/// A message due for delivery.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Delivery<M> {
    /// Sender.
    pub from: NodeId,
    /// Receiver.
    pub to: NodeId,
    /// Payload.
    pub msg: M,
}

/// Counters describing transport activity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Messages handed to `send`.
    pub sent: u64,
    /// Messages scheduled for delivery at send time (connectivity existed).
    pub delivered_direct: u64,
    /// Messages parked in an outbox because the destination was unreachable.
    pub queued: u64,
    /// Parked messages released by a later connectivity change.
    pub released: u64,
}

/// The point-to-point network: topology + live link state + outboxes.
#[derive(Debug)]
pub struct Transport<M> {
    wire: Wire,
    /// Blocked messages per ordered `(from, to)` pair, FIFO.
    outbox: BTreeMap<(NodeId, NodeId), VecDeque<M>>,
    /// Last scheduled delivery time per ordered pair, for FIFO enforcement.
    last_sched: BTreeMap<(NodeId, NodeId), Option<SimTime>>,
    stats: TransportStats,
}

impl<M> Transport<M> {
    /// Build over a topology with all links up.
    pub fn new(topo: Topology) -> Self {
        Transport {
            wire: Wire::new(topo),
            outbox: BTreeMap::new(),
            last_sched: BTreeMap::new(),
            stats: TransportStats::default(),
        }
    }

    /// Are two nodes currently in the same connected component?
    pub fn connected(&self, a: NodeId, b: NodeId) -> bool {
        self.wire.connected(a, b)
    }

    /// Current partition groups.
    pub fn components(&self) -> Vec<std::collections::BTreeSet<NodeId>> {
        self.wire.components()
    }

    /// Activity counters.
    pub fn stats(&self) -> TransportStats {
        self.stats
    }

    /// Number of messages parked in outboxes.
    pub fn queued_count(&self) -> usize {
        self.outbox.values().map(VecDeque::len).sum()
    }

    /// Send `msg` from `from` to `to` at time `now`.
    ///
    /// Returns the scheduled delivery if the nodes are currently connected,
    /// or `None` if the message was parked awaiting connectivity.
    ///
    /// # Panics
    /// Panics if `from == to`; local loopback should not go through the
    /// network.
    pub fn send(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        msg: M,
    ) -> Option<(SimTime, Delivery<M>)> {
        assert!(from != to, "loopback send through the network");
        self.stats.sent += 1;
        match self.wire.path_delay(from, to) {
            Some(delay) => {
                let last = self.last_sched.entry((from, to)).or_default();
                let at = fifo_slot(last, now + delay);
                self.stats.delivered_direct += 1;
                Some((at, Delivery { from, to, msg }))
            }
            None => {
                // Pre-size: a partition that parks one message usually
                // parks a burst; skip the first few regrowths.
                self.outbox
                    .entry((from, to))
                    .or_insert_with(|| VecDeque::with_capacity(16))
                    .push_back(msg);
                self.stats.queued += 1;
                None
            }
        }
    }

    /// Apply a network change at time `now`, returning any parked messages
    /// whose destination became reachable (in per-pair FIFO order).
    pub fn apply_change(
        &mut self,
        now: SimTime,
        change: &NetworkChange,
    ) -> Vec<(SimTime, Delivery<M>)> {
        self.wire.apply_change(change);
        let mut released = Vec::new();
        self.outbox.retain(|&(from, to), queue| {
            let Some(delay) = self.wire.path_delay(from, to) else {
                return true; // still cut off
            };
            let last = self.last_sched.entry((from, to)).or_default();
            for msg in queue.drain(..) {
                let at = fifo_slot(last, now + delay);
                self.stats.released += 1;
                released.push((at, Delivery { from, to, msg }));
            }
            false
        });
        released
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fragdb_sim::SimDuration;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn ms(x: u64) -> SimDuration {
        SimDuration::from_millis(x)
    }

    fn mesh(nodes: u32) -> Transport<u32> {
        Transport::new(Topology::full_mesh(nodes, ms(10)))
    }

    #[test]
    fn connected_send_schedules_after_delay() {
        let mut t = mesh(3);
        let (at, d) = t.send(SimTime::from_secs(1), n(0), n(1), 42).unwrap();
        assert_eq!(at, SimTime::from_secs(1) + ms(10));
        assert_eq!(
            d,
            Delivery {
                from: n(0),
                to: n(1),
                msg: 42
            }
        );
        assert_eq!(t.stats().delivered_direct, 1);
    }

    #[test]
    #[should_panic(expected = "loopback")]
    fn loopback_send_panics() {
        mesh(2).send(SimTime::ZERO, n(0), n(0), 1);
    }

    #[test]
    fn disconnected_send_is_parked() {
        let mut t = mesh(2);
        t.apply_change(SimTime::ZERO, &NetworkChange::LinkDown(n(0), n(1)));
        assert!(t.send(SimTime::ZERO, n(0), n(1), 7).is_none());
        assert_eq!(t.queued_count(), 1);
        assert_eq!(t.stats().queued, 1);
    }

    #[test]
    fn heal_releases_parked_messages_in_fifo_order() {
        let mut t = mesh(2);
        t.apply_change(SimTime::ZERO, &NetworkChange::LinkDown(n(0), n(1)));
        for i in 0..5u32 {
            assert!(t.send(SimTime(i as u64), n(0), n(1), i).is_none());
        }
        let released = t.apply_change(SimTime::from_secs(60), &NetworkChange::HealAll);
        assert_eq!(released.len(), 5);
        let payloads: Vec<u32> = released.iter().map(|(_, d)| d.msg).collect();
        assert_eq!(payloads, vec![0, 1, 2, 3, 4]);
        // Delivery times strictly increase (FIFO preserved through the heal).
        for w in released.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
        assert_eq!(t.queued_count(), 0);
        assert_eq!(t.stats().released, 5);
    }

    #[test]
    fn fifo_per_pair_even_at_same_instant() {
        let mut t = mesh(2);
        let (at1, _) = t.send(SimTime::ZERO, n(0), n(1), 1).unwrap();
        let (at2, _) = t.send(SimTime::ZERO, n(0), n(1), 2).unwrap();
        assert!(at2 > at1, "same-instant sends must not tie");
    }

    #[test]
    fn distinct_pairs_do_not_interfere() {
        let mut t = mesh(3);
        let (a, _) = t.send(SimTime::ZERO, n(0), n(1), 1).unwrap();
        let (b, _) = t.send(SimTime::ZERO, n(0), n(2), 2).unwrap();
        // Different destinations: both can use the base delay slot.
        assert_eq!(a, b);
    }

    #[test]
    fn multihop_delivery_when_direct_link_down() {
        // Line 0-1-2: 0 and 2 communicate through 1.
        let topo = Topology::line(3, ms(10));
        let mut t: Transport<u32> = Transport::new(topo);
        let (at, _) = t.send(SimTime::ZERO, n(0), n(2), 9).unwrap();
        assert_eq!(at, SimTime::ZERO + ms(20));
    }

    #[test]
    fn partial_heal_releases_only_reconnected_pairs() {
        let mut t = mesh(3);
        t.apply_change(
            SimTime::ZERO,
            &NetworkChange::Split(vec![vec![n(0)], vec![n(1)], vec![n(2)]]),
        );
        t.send(SimTime::ZERO, n(0), n(1), 1);
        t.send(SimTime::ZERO, n(0), n(2), 2);
        // Reconnect only 0-1.
        let released = t.apply_change(SimTime::from_secs(1), &NetworkChange::LinkUp(n(0), n(1)));
        assert_eq!(released.len(), 1);
        assert_eq!(released[0].1.to, n(1));
        assert_eq!(t.queued_count(), 1);
    }

    #[test]
    fn release_through_indirect_route() {
        // 0 and 2 disconnected directly but a heal of 0-1 gives a route via 1.
        let mut t = mesh(3);
        t.apply_change(
            SimTime::ZERO,
            &NetworkChange::Split(vec![vec![n(0)], vec![n(1), n(2)]]),
        );
        t.send(SimTime::ZERO, n(0), n(2), 5);
        let released = t.apply_change(SimTime::from_secs(1), &NetworkChange::LinkUp(n(0), n(1)));
        assert_eq!(released.len(), 1, "0->2 should route through 1");
        assert_eq!(released[0].0, SimTime::from_secs(1) + ms(20));
    }

    #[test]
    fn components_exposed() {
        let mut t = mesh(3);
        assert_eq!(t.components().len(), 1);
        t.apply_change(
            SimTime::ZERO,
            &NetworkChange::Split(vec![vec![n(0)], vec![n(1), n(2)]]),
        );
        assert_eq!(t.components().len(), 2);
        assert!(!t.connected(n(0), n(1)));
        assert!(t.connected(n(1), n(2)));
    }

    #[test]
    fn stats_track_sends() {
        let mut t = mesh(2);
        t.send(SimTime::ZERO, n(0), n(1), 1);
        t.apply_change(SimTime::ZERO, &NetworkChange::LinkDown(n(0), n(1)));
        t.send(SimTime::ZERO, n(0), n(1), 2);
        let s = t.stats();
        assert_eq!(s.sent, 2);
        assert_eq!(s.delivered_direct, 1);
        assert_eq!(s.queued, 1);
        assert_eq!(s.released, 0);
    }
}
