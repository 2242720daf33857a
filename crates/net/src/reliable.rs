//! Ack/retransmit point-to-point delivery over faulty links.
//!
//! [`Transport`] realizes §3.2's "all messages are eventually delivered"
//! *by construction*: nothing is ever lost, parked messages wait out the
//! partition. [`ReliableNet`] earns the same guarantee the way a real
//! network stack does — every application message becomes a numbered
//! `Data` packet that stays in the sender's window until covered by a
//! **cumulative ack** (`Ack { upto }` acknowledges every id below `upto`,
//! and the same watermark piggybacks on reverse-direction `Data` when
//! there is any). Repair is **selective**. The sender stamps each packet
//! with when it last went on the wire; a packet is *overdue* once its
//! stamp is `RTO` old. One retransmission timer per ordered link — not
//! per packet — tracks the oldest stamp. When it expires, only the lowest
//! unacked id is resent (a *probe*: the packet the cumulative ack is stuck
//! on) and the timer re-arms one `RTO` later, with no backoff. When ack
//! progress answers a probe, every packet still overdue is resent at once
//! and the timer re-arms at the new oldest stamp; ack progress with no
//! probe outstanding resends nothing. Between retransmission and the
//! receiver's in-order reassembly buffer, the layer delivers every message
//! **exactly once, in per-pair send order**, under any mix of:
//!
//! * message loss ([`FaultPlan::drop`]), including total loss while the
//!   pair is partitioned (an unreachable destination just counts as a
//!   dropped attempt);
//! * duplication ([`FaultPlan::dup`]) — receiver-side id tracking drops
//!   the copies;
//! * reordering ([`FaultPlan::jitter`]) — per-packet extra delay lets
//!   packets overtake on the wire; the reassembly buffer re-sequences.
//!
//! Ack compression: the receiver sends a standalone ack only when its
//! in-order watermark *advances* or when a stale (already-covered) packet
//! arrives — an out-of-order packet parked in the reassembly buffer is
//! not acked (the ack that eventually closes the gap covers it). This is
//! safe because the sender's per-link timer stays armed while anything is
//! unacked, and every timeout retransmission is the lowest outstanding
//! id, whose arrival always triggers an ack that clears at least that
//! packet (see DESIGN.md §3f for the full argument).
//!
//! The layer is engine-agnostic like the rest of the crate: methods return
//! [`NetAction`]s (future packet arrivals and retransmission timers) that
//! the caller schedules on its own event loop, and packet arrivals are fed
//! back through [`ReliableNet::on_packet`]. All randomness comes from the
//! caller's seeded RNG, so runs are reproducible.
//!
//! Crash semantics: [`crash`] forgets the unacked sends of a dead node
//! (its volatile send buffer); [`resync_node`] — called at *recovery* —
//! cuts both directions of every stream touching the node to "now", so
//! packets numbered before recovery drain as duplicates (a stale probe
//! still draws a cumulative ack, which clears the sender's whole window
//! at once and stops its retransmit timer) and fresh traffic flows.
//! Message *content* lost to the crash is the application's to repair
//! (WAL replay + anti-entropy).
//!
//! This is the one FIFO in the message path (§3.2): nothing above it
//! numbers, re-orders or de-duplicates messages again. All of its state —
//! both ends of a directed stream — is one `Stream` record per ordered
//! pair.
//!
//! [`Transport`]: crate::transport::Transport
//! [`FaultPlan::drop`]: crate::fault::FaultPlan
//! [`FaultPlan::dup`]: crate::fault::FaultPlan
//! [`FaultPlan::jitter`]: crate::fault::FaultPlan
//! [`crash`]: ReliableNet::crash
//! [`resync_node`]: ReliableNet::resync_node

use std::collections::BTreeMap;

use fragdb_model::NodeId;
use fragdb_sim::{SimDuration, SimRng, SimTime};

use crate::fault::FaultConfig;
use crate::partition::NetworkChange;
use crate::topology::Topology;
use crate::transport::Delivery;
use crate::wire::{fifo_slot, Wire};

/// A packet on the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Pkt<M> {
    /// An application message, numbered densely per ordered node pair.
    Data {
        /// Per-pair packet id.
        id: u64,
        /// Piggybacked cumulative ack for the *reverse* stream: the sender
        /// has released every id below this from the receiver. `None` when
        /// the reverse stream has never delivered anything.
        ack: Option<u64>,
        /// The application payload.
        msg: M,
    },
    /// Cumulative acknowledgment: every `Data` id below `upto` (for the
    /// stream flowing toward this packet's sender) is acknowledged.
    Ack {
        /// One past the highest id released in order by the receiver.
        upto: u64,
    },
}

/// A packet due to arrive.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PktDelivery<M> {
    /// Transmitting node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// The packet.
    pub pkt: Pkt<M>,
}

/// A pending retransmission check for one ordered link. There is at most
/// one *live* timer per `(from, to)` pair; `gen` invalidates timers that
/// were superseded — the window fully drained, or ack progress answered a
/// probe and armed a fresh timer at the new oldest deadline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetransmitTimer {
    /// Original sender.
    pub from: NodeId,
    /// Destination.
    pub to: NodeId,
    /// Stream timer generation the timer was armed for.
    pub gen: u64,
}

/// Something the caller must schedule on its event loop.
#[derive(Clone, Debug)]
pub enum NetAction<M> {
    /// A packet arrives at the given time.
    Deliver(SimTime, PktDelivery<M>),
    /// A retransmission timer fires at the given time; feed it back through
    /// [`ReliableNet::on_timer`].
    Timer(SimTime, RetransmitTimer),
}

/// Age at which an unacked packet is overdue for retransmission, and the
/// interval between probes of a stuck window (200 ms).
const RTO: SimDuration = SimDuration(200_000);

/// Counters describing reliable-layer activity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReliableStats {
    /// Application messages handed to `send`.
    pub sent: u64,
    /// Data packets put on the wire (first transmissions + retransmissions
    /// + fault duplicates).
    pub transmissions: u64,
    /// Retransmissions of unacked packets: timer-driven probes, and the
    /// overdue packets resent when ack progress answers a probe.
    pub retransmissions: u64,
    /// Transmission attempts lost to an injected drop fault.
    pub fault_dropped: u64,
    /// Transmission attempts duplicated by an injected dup fault.
    pub fault_duplicated: u64,
    /// Transmission attempts lost because no route existed (partition).
    pub unreachable: u64,
    /// Application messages released to the caller (exactly once each).
    pub delivered: u64,
    /// Data packets discarded by the receiver as duplicates or stale.
    pub dup_dropped: u64,
    /// Standalone cumulative `Ack` packets put on the wire.
    pub acks_sent: u64,
    /// Arrivals that would have drawn a per-packet ack under the old
    /// scheme but were absorbed by ack compression (out-of-order packets
    /// parked in the reassembly buffer).
    pub acks_suppressed: u64,
    /// `Data` transmissions that carried a piggybacked cumulative ack for
    /// the reverse stream.
    pub acks_piggybacked: u64,
    /// Cumulative-ack applications (standalone or piggybacked) that
    /// cleared at least one pending packet from a sender window.
    pub cumulative_acks: u64,
}

/// Both ends of one directed stream `from -> to`: the sender's numbering,
/// window and timer, the receiver's watermark and reassembly buffer, and
/// the wire slot of the `from -> to` direction.
#[derive(Debug)]
struct Stream<M> {
    /// Next packet id the sender assigns. Survives crashes (conceptually
    /// re-negotiated by the recovery handshake).
    next_id: u64,
    /// Sender-side unacked packets: when each last went on the wire, and
    /// its message. Volatile.
    pending: BTreeMap<u64, (SimTime, M)>,
    /// Timer generation; bumped when the window drains or ack progress
    /// re-arms the link, so a still-scheduled older timer becomes a no-op.
    gen: u64,
    /// Is a timer currently scheduled for this generation?
    armed: bool,
    /// Has a timeout probed the window since the last ack progress?
    probing: bool,
    /// Receiver-side next id to release; `None` until the receiver has
    /// seen the stream or a resync cut it. Volatile.
    expected: Option<u64>,
    /// Receiver-side reassembly buffer. Volatile.
    inbuf: BTreeMap<u64, M>,
    /// Last arrival scheduled `from -> to` — this stream's data and the
    /// reverse stream's acks — which keeps jitter-free links FIFO on the
    /// wire, matching [`Transport`]'s timing.
    ///
    /// [`Transport`]: crate::transport::Transport
    last_sched: Option<SimTime>,
}

impl<M> Default for Stream<M> {
    fn default() -> Self {
        Stream {
            next_id: 0,
            pending: BTreeMap::new(),
            gen: 0,
            armed: false,
            probing: false,
            expected: None,
            inbuf: BTreeMap::new(),
            last_sched: None,
        }
    }
}

impl<M> Stream<M> {
    /// When the oldest unacked packet becomes overdue; `None` when the
    /// window is empty.
    fn deadline(&self) -> Option<SimTime> {
        let oldest = self.pending.values().map(|&(at, _)| at).min()?;
        Some(oldest + RTO)
    }
}

/// Reliable, in-order, exactly-once point-to-point delivery with
/// deterministic fault injection.
#[derive(Debug)]
pub struct ReliableNet<M> {
    wire: Wire,
    faults: FaultConfig,
    /// Every directed stream that has carried anything, keyed `(from, to)`.
    streams: BTreeMap<(NodeId, NodeId), Stream<M>>,
    stats: ReliableStats,
}

impl<M: Clone> ReliableNet<M> {
    /// Build over a topology with all links up and no faults.
    pub fn new(topo: Topology) -> Self {
        ReliableNet {
            wire: Wire::new(topo),
            faults: FaultConfig::clean(),
            streams: BTreeMap::new(),
            stats: ReliableStats::default(),
        }
    }

    /// Install a fault configuration (builder form).
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// The active fault configuration.
    pub fn faults(&self) -> &FaultConfig {
        &self.faults
    }

    /// Activity counters.
    pub fn stats(&self) -> ReliableStats {
        self.stats
    }

    /// Application messages accepted but not yet acknowledged.
    pub fn pending_count(&self) -> usize {
        self.streams.values().map(|s| s.pending.len()).sum()
    }

    /// Apply a network change. Unlike [`Transport`], nothing is parked and
    /// so nothing is released: blocked packets simply fail their
    /// transmission attempts and get through on a later retransmission.
    ///
    /// [`Transport`]: crate::transport::Transport
    pub fn apply_change(&mut self, change: &NetworkChange) {
        self.wire.apply_change(change);
    }

    /// Put one packet on the wire, rolling the link's fault dice.
    fn transmit(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        pkt: Pkt<M>,
        rng: &mut SimRng,
        out: &mut Vec<NetAction<M>>,
    ) {
        let plan = self.faults.plan_for(from, to);
        let Some(base) = self.wire.path_delay(from, to) else {
            self.stats.unreachable += 1;
            return;
        };
        let copies = if plan.dup > 0.0 && rng.chance(plan.dup) {
            self.stats.fault_duplicated += 1;
            2
        } else {
            1
        };
        for _ in 0..copies {
            if plan.drop > 0.0 && rng.chance(plan.drop) {
                self.stats.fault_dropped += 1;
                continue;
            }
            let at = if plan.jitter > SimDuration(0) {
                // Per-packet jitter: packets may overtake — real reordering.
                now + base + SimDuration(rng.gen_range(0..=plan.jitter.0))
            } else {
                // Jitter-free links stay FIFO on the wire, like Transport.
                let s = self.streams.entry((from, to)).or_default();
                fifo_slot(&mut s.last_sched, now + base)
            };
            out.push(NetAction::Deliver(
                at,
                PktDelivery {
                    from,
                    to,
                    pkt: pkt.clone(),
                },
            ));
        }
    }

    /// The cumulative-ack watermark `from` can piggyback on data to `to`:
    /// one past the highest id released in order from the `to -> from`
    /// stream, or `None` if that stream never delivered anything.
    fn reverse_ack(&self, from: NodeId, to: NodeId) -> Option<u64> {
        self.streams.get(&(to, from))?.expected
    }

    /// Put `Data { id, msg }` on the `from -> to` wire, piggybacking the
    /// reverse stream's cumulative ack when there is one.
    fn transmit_data(
        &mut self,
        now: SimTime,
        (from, to): (NodeId, NodeId),
        id: u64,
        msg: M,
        rng: &mut SimRng,
        out: &mut Vec<NetAction<M>>,
    ) {
        self.stats.transmissions += 1;
        let ack = self.reverse_ack(from, to);
        if ack.is_some() {
            self.stats.acks_piggybacked += 1;
        }
        self.transmit(now, from, to, Pkt::Data { id, ack, msg }, rng, out);
    }

    /// Apply a cumulative ack from `to` for the stream `from -> to`: clear
    /// every pending id below `upto`. On progress, a drained window
    /// invalidates the link's live timer; a window that is still open and
    /// was being probed gets its overdue packets resent (restamped `now`)
    /// and one fresh timer at its new oldest deadline.
    fn apply_cum_ack(
        &mut self,
        now: SimTime,
        (from, to): (NodeId, NodeId),
        upto: u64,
        rng: &mut SimRng,
        out: &mut Vec<NetAction<M>>,
    ) {
        let Some(s) = self.streams.get_mut(&(from, to)) else {
            return;
        };
        let keep = s.pending.split_off(&upto);
        let cleared = s.pending.len();
        s.pending = keep;
        if cleared == 0 {
            return;
        }
        self.stats.cumulative_acks += 1;
        let probing = std::mem::take(&mut s.probing);
        if s.pending.is_empty() {
            s.gen += 1;
            s.armed = false;
            return;
        }
        if !probing {
            return;
        }
        let mut overdue = Vec::new();
        for (&id, (at, msg)) in &mut s.pending {
            if *at + RTO <= now {
                *at = now;
                overdue.push((id, msg.clone()));
            }
        }
        s.gen += 1;
        let (gen, deadline) = (s.gen, s.deadline().expect("window is open"));
        for (id, msg) in overdue {
            self.stats.retransmissions += 1;
            self.transmit_data(now, (from, to), id, msg, rng, out);
        }
        out.push(NetAction::Timer(
            deadline,
            RetransmitTimer { from, to, gen },
        ));
    }

    /// Accept an application message for delivery. Returns the actions to
    /// schedule: the initial transmission attempt(s) and — only if the
    /// link had no live timer — one retransmission timer for the link.
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
        rng: &mut SimRng,
    ) -> Vec<NetAction<M>> {
        assert!(from != to, "loopback send through the network");
        self.stats.sent += 1;
        let s = self.streams.entry((from, to)).or_default();
        let id = s.next_id;
        s.next_id += 1;
        s.pending.insert(id, (now, msg.clone()));
        let (arm, gen) = (!s.armed, s.gen);
        s.armed = true;
        // At most the data transmission plus one timer arm.
        let mut out = Vec::with_capacity(2);
        self.transmit_data(now, (from, to), id, msg, rng, &mut out);
        if arm {
            out.push(NetAction::Timer(
                now + RTO,
                RetransmitTimer { from, to, gen },
            ));
        }
        out
    }

    /// A link's retransmission timer fired. A stale or empty-window firing
    /// is a no-op. Before the oldest unacked packet is overdue the timer
    /// re-arms at that deadline; once it is, only the lowest unacked id is
    /// resent (a probe), the stream is marked probing, and the timer
    /// re-arms one `RTO` later — there is no backoff.
    pub fn on_timer(
        &mut self,
        now: SimTime,
        timer: RetransmitTimer,
        rng: &mut SimRng,
    ) -> Vec<NetAction<M>> {
        let RetransmitTimer { from, to, gen } = timer;
        let Some(s) = self.streams.get_mut(&(from, to)) else {
            return Vec::new();
        };
        if s.gen != gen {
            return Vec::new(); // superseded by a drain or a re-arm
        }
        let Some(deadline) = s.deadline() else {
            // Nothing left to guard (e.g. a crash dropped the sends).
            s.armed = false;
            return Vec::new();
        };
        if now < deadline {
            return vec![NetAction::Timer(deadline, timer)];
        }
        s.probing = true;
        let (&id, (at, msg)) = s.pending.iter_mut().next().expect("window is open");
        *at = now;
        let msg = msg.clone();
        // The probe (twice under a dup fault) plus the re-armed timer.
        let mut out = Vec::with_capacity(3);
        self.stats.retransmissions += 1;
        self.transmit_data(now, (from, to), id, msg, rng, &mut out);
        out.push(NetAction::Timer(now + RTO, timer));
        out
    }

    /// A packet arrived. Returns the application messages released (in
    /// per-pair id order, possibly several when a gap closes, possibly none)
    /// and follow-up actions to schedule: the ack, and — when the packet's
    /// ack answers a probe — the overdue resends and their timer. Every
    /// one of them travels `d.to -> d.from`.
    pub fn on_packet(
        &mut self,
        now: SimTime,
        d: PktDelivery<M>,
        rng: &mut SimRng,
    ) -> (Vec<Delivery<M>>, Vec<NetAction<M>>) {
        let mut actions = Vec::new();
        let mut released = Vec::new();
        match d.pkt {
            Pkt::Data { id, ack, msg } => {
                if let Some(upto) = ack {
                    // Piggybacked ack for the reverse stream (d.to -> d.from).
                    self.apply_cum_ack(now, (d.to, d.from), upto, rng, &mut actions);
                }
                let s = self.streams.entry((d.from, d.to)).or_default();
                let expected = s.expected.get_or_insert(0);
                // Decide whether this arrival draws a standalone ack:
                // stale packets always do (so post-resync windows drain),
                // watermark advances do; out-of-order parks are absorbed.
                let ack_upto = if id < *expected {
                    self.stats.dup_dropped += 1;
                    Some(*expected)
                } else {
                    if s.inbuf.insert(id, msg).is_some() {
                        self.stats.dup_dropped += 1;
                    }
                    let before = *expected;
                    while let Some(m) = s.inbuf.remove(expected) {
                        self.stats.delivered += 1;
                        released.push(Delivery {
                            from: d.from,
                            to: d.to,
                            msg: m,
                        });
                        *expected += 1;
                    }
                    (*expected > before).then_some(*expected)
                };
                match ack_upto {
                    Some(upto) => {
                        self.stats.acks_sent += 1;
                        self.transmit(now, d.to, d.from, Pkt::Ack { upto }, rng, &mut actions);
                    }
                    None => self.stats.acks_suppressed += 1,
                }
            }
            Pkt::Ack { upto } => {
                // The acked stream is (original sender = d.to) -> (acker =
                // d.from).
                self.apply_cum_ack(now, (d.to, d.from), upto, rng, &mut actions);
            }
        }
        (released, actions)
    }

    /// `node` crashed: its volatile send buffer is gone (its links' live
    /// timers fire once more as no-ops and disarm). Packets other nodes
    /// have pending toward it keep being probed — after
    /// [`ReliableNet::resync_node`] at recovery, the first probe to arrive
    /// is stale and its cumulative ack drains the whole window.
    pub fn crash(&mut self, node: NodeId) {
        let outbound = (node, NodeId(0))..=(node, NodeId(u32::MAX));
        for (_, s) in self.streams.range_mut(outbound) {
            s.pending.clear();
        }
    }

    /// `node` recovered: cut both directions of every stream pair it has
    /// taken part in to "now". The node expects from each peer exactly
    /// what the peer will number next (so everything sent to the node
    /// before recovery — including packets a peer is still retransmitting
    /// — drains as acked duplicates), and each peer expects from the node
    /// what it will number next (so ids lost with the node's send buffer
    /// leave no permanent gap). Reassembly buffers on both sides are
    /// discarded. Pairs that never exchanged a packet have nothing to cut
    /// and get no record.
    pub fn resync_node(&mut self, node: NodeId) {
        let peers: std::collections::BTreeSet<NodeId> = self
            .streams
            .keys()
            .filter(|&&(a, b)| a == node || b == node)
            .map(|&(a, b)| if a == node { b } else { a })
            .collect();
        for p in peers {
            for key in [(p, node), (node, p)] {
                let s = self.streams.entry(key).or_default();
                s.expected = Some(s.next_id);
                s.inbuf.clear();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn ms(x: u64) -> SimDuration {
        SimDuration::from_millis(x)
    }

    /// Tiny deterministic event loop driving one ReliableNet.
    struct Loop<M> {
        net: ReliableNet<M>,
        rng: SimRng,
        queue: BTreeMap<(SimTime, u64), NetAction<M>>,
        seq: u64,
        delivered: Vec<Delivery<M>>,
        /// When each entry of `delivered` was released.
        released_at: Vec<SimTime>,
        /// A crashed host: packets addressed to it are dropped unseen.
        down: Option<NodeId>,
    }

    impl<M: Clone> Loop<M> {
        fn new(net: ReliableNet<M>, seed: u64) -> Self {
            Loop {
                net,
                rng: SimRng::new(seed),
                queue: BTreeMap::new(),
                seq: 0,
                delivered: Vec::new(),
                released_at: Vec::new(),
                down: None,
            }
        }

        fn push(&mut self, actions: Vec<NetAction<M>>) {
            for a in actions {
                let at = match &a {
                    NetAction::Deliver(t, _) => *t,
                    NetAction::Timer(t, _) => *t,
                };
                self.queue.insert((at, self.seq), a);
                self.seq += 1;
            }
        }

        fn send(&mut self, now: SimTime, from: NodeId, to: NodeId, msg: M) {
            let acts = self.net.send(now, from, to, msg, &mut self.rng);
            self.push(acts);
        }

        /// Run until the queue is empty or `limit` is reached.
        fn run(&mut self, limit: SimTime) {
            while let Some((&(at, s), _)) = self.queue.iter().next() {
                if at > limit {
                    break;
                }
                let action = self.queue.remove(&(at, s)).unwrap();
                match action {
                    NetAction::Deliver(_, pd) if self.down == Some(pd.to) => {}
                    NetAction::Deliver(_, pd) => {
                        let (rel, acts) = self.net.on_packet(at, pd, &mut self.rng);
                        self.released_at.extend(rel.iter().map(|_| at));
                        self.delivered.extend(rel);
                        self.push(acts);
                    }
                    NetAction::Timer(_, t) => {
                        let acts = self.net.on_timer(at, t, &mut self.rng);
                        self.push(acts);
                    }
                }
            }
        }
    }

    #[test]
    fn clean_link_delivers_once_in_order() {
        let net: ReliableNet<u64> = ReliableNet::new(Topology::full_mesh(2, ms(10)));
        let mut l = Loop::new(net, 1);
        for i in 0..10u64 {
            l.send(SimTime(i), n(0), n(1), i);
        }
        l.run(SimTime::from_secs(60));
        let got: Vec<u64> = l.delivered.iter().map(|d| d.msg).collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        assert_eq!(l.net.stats().retransmissions, 0);
        assert_eq!(l.net.pending_count(), 0);
    }

    #[test]
    fn lossy_link_still_delivers_everything_in_order() {
        let net: ReliableNet<u64> = ReliableNet::new(Topology::full_mesh(2, ms(10)))
            .with_faults(FaultConfig::uniform(FaultPlan::lossy(0.4)));
        let mut l = Loop::new(net, 7);
        for i in 0..50u64 {
            l.send(SimTime::from_millis(i * 3), n(0), n(1), i);
        }
        l.run(SimTime::from_secs(600));
        let got: Vec<u64> = l.delivered.iter().map(|d| d.msg).collect();
        assert_eq!(got, (0..50).collect::<Vec<_>>(), "loss broke delivery");
        assert!(l.net.stats().retransmissions > 0, "loss must cause retries");
        assert_eq!(l.net.pending_count(), 0, "everything must get acked");
    }

    #[test]
    fn duplication_is_absorbed() {
        let net: ReliableNet<u64> = ReliableNet::new(Topology::full_mesh(2, ms(10))).with_faults(
            FaultConfig::uniform(FaultPlan::new(0.0, 0.8, SimDuration(0))),
        );
        let mut l = Loop::new(net, 3);
        for i in 0..30u64 {
            l.send(SimTime::from_millis(i * 2), n(0), n(1), i);
        }
        l.run(SimTime::from_secs(60));
        let got: Vec<u64> = l.delivered.iter().map(|d| d.msg).collect();
        assert_eq!(got, (0..30).collect::<Vec<_>>(), "dups leaked or lost");
        assert!(l.net.stats().fault_duplicated > 0);
        assert!(l.net.stats().dup_dropped > 0);
    }

    #[test]
    fn jitter_reorders_on_wire_but_not_at_the_app() {
        let net: ReliableNet<u64> = ReliableNet::new(Topology::full_mesh(2, ms(10))).with_faults(
            FaultConfig::uniform(FaultPlan::new(
                0.0,
                0.0,
                ms(30), // far larger than the 1ms send spacing: heavy reorder
            )),
        );
        let mut l = Loop::new(net, 11);
        for i in 0..40u64 {
            l.send(SimTime::from_millis(i), n(0), n(1), i);
        }
        l.run(SimTime::from_secs(60));
        let got: Vec<u64> = l.delivered.iter().map(|d| d.msg).collect();
        assert_eq!(got, (0..40).collect::<Vec<_>>(), "app saw reordering");
    }

    #[test]
    fn partition_heals_into_delivery() {
        let net: ReliableNet<u64> = ReliableNet::new(Topology::full_mesh(2, ms(10)));
        let mut l = Loop::new(net, 5);
        l.net.apply_change(&NetworkChange::LinkDown(n(0), n(1)));
        l.send(SimTime::ZERO, n(0), n(1), 42);
        l.run(SimTime::from_secs(5));
        assert!(l.delivered.is_empty(), "nothing can get through a cut");
        assert!(l.net.stats().unreachable > 0);
        l.net.apply_change(&NetworkChange::HealAll);
        l.run(SimTime::from_secs(60));
        assert_eq!(l.delivered.len(), 1, "retransmission must get through");
        assert_eq!(l.delivered[0].msg, 42);
        assert_eq!(l.net.pending_count(), 0);
    }

    #[test]
    fn crash_then_resync_drains_and_resumes() {
        let net: ReliableNet<u64> = ReliableNet::new(Topology::full_mesh(2, ms(10)));
        let mut l = Loop::new(net, 9);
        // Node 1 is "down": packets to it are dropped by the driver, so we
        // just never feed them in — sender keeps retransmitting.
        l.send(SimTime::ZERO, n(0), n(1), 1);
        l.send(SimTime::ZERO, n(0), n(1), 2);
        // Drop the two initial Deliver actions (node 1 is down), keep timers.
        l.queue.retain(|_, a| matches!(a, NetAction::Timer(..)));
        // Node 1 had also sent something that is now lost with its buffer.
        let _ = l.net.send(SimTime::ZERO, n(1), n(0), 99, &mut l.rng);
        l.net.crash(n(1));
        assert_eq!(l.net.pending_count(), 2, "only node 0's sends remain");

        // Recovery: cut streams. One stale probe (the lowest id) arrives,
        // is dropped as a duplicate, and its ack drains the whole window —
        // without reaching the app.
        l.net.resync_node(n(1));
        l.run(SimTime::from_secs(60));
        assert!(l.delivered.is_empty(), "pre-recovery packets must be stale");
        assert_eq!(l.net.pending_count(), 0, "dup-acks must drain pending");
        assert_eq!(l.net.stats().retransmissions, 1, "one probe");
        assert_eq!(l.net.stats().dup_dropped, 1, "one stale arrival");

        // Fresh traffic flows both ways.
        l.send(SimTime::from_secs(61), n(0), n(1), 7);
        l.send(SimTime::from_secs(61), n(1), n(0), 8);
        l.run(SimTime::from_secs(120));
        let got: Vec<u64> = l.delivered.iter().map(|d| d.msg).collect();
        assert_eq!(got, vec![7, 8]);
    }

    #[test]
    fn one_link_arms_one_timer() {
        let net: ReliableNet<u64> = ReliableNet::new(Topology::full_mesh(2, ms(10)));
        let mut l = Loop::new(net, 1);
        let mut timers = 0;
        for i in 0..10u64 {
            let acts = l.net.send(SimTime(i), n(0), n(1), i, &mut l.rng);
            timers += acts
                .iter()
                .filter(|a| matches!(a, NetAction::Timer(..)))
                .count();
            l.push(acts);
        }
        assert_eq!(timers, 1, "a busy link keeps exactly one live timer");
        l.run(SimTime::from_secs(60));
        assert_eq!(l.delivered.len(), 10);
        assert_eq!(l.net.pending_count(), 0);
    }

    #[test]
    fn out_of_order_arrivals_suppress_acks() {
        // Heavy jitter reorders arrivals; parked packets must not each
        // draw a standalone ack, and one cumulative ack must clear a
        // multi-packet window when the gap closes.
        let net: ReliableNet<u64> = ReliableNet::new(Topology::full_mesh(2, ms(10)))
            .with_faults(FaultConfig::uniform(FaultPlan::new(0.0, 0.0, ms(30))));
        let mut l = Loop::new(net, 11);
        for i in 0..40u64 {
            l.send(SimTime::from_millis(i), n(0), n(1), i);
        }
        l.run(SimTime::from_secs(60));
        let got: Vec<u64> = l.delivered.iter().map(|d| d.msg).collect();
        assert_eq!(got, (0..40).collect::<Vec<_>>());
        let s = l.net.stats();
        assert!(s.acks_suppressed > 0, "reordering must absorb some acks");
        assert!(s.cumulative_acks > 0, "acks must clear pending packets");
        assert!(
            s.acks_sent < s.delivered,
            "compression: fewer standalone acks ({}) than deliveries ({})",
            s.acks_sent,
            s.delivered
        );
        assert_eq!(l.net.pending_count(), 0);
    }

    #[test]
    fn reverse_data_piggybacks_cumulative_ack() {
        let net: ReliableNet<u64> = ReliableNet::new(Topology::full_mesh(2, ms(10)));
        let mut l = Loop::new(net, 2);
        l.send(SimTime::ZERO, n(0), n(1), 1);
        l.run(SimTime::from_secs(1));
        // Node 1 has received from node 0, so its own data carries an ack.
        l.send(SimTime::from_secs(2), n(1), n(0), 2);
        l.run(SimTime::from_secs(60));
        assert_eq!(l.delivered.len(), 2);
        assert!(l.net.stats().acks_piggybacked > 0);
        assert_eq!(l.net.pending_count(), 0);
    }

    #[test]
    fn same_seed_same_schedule() {
        let mk = || {
            let net: ReliableNet<u64> = ReliableNet::new(Topology::full_mesh(3, ms(10)))
                .with_faults(FaultConfig::uniform(FaultPlan::new(0.3, 0.3, ms(20))));
            let mut l = Loop::new(net, 1234);
            for i in 0..30u64 {
                l.send(SimTime::from_millis(i * 5), n((i % 2) as u32), n(2), i);
            }
            l.run(SimTime::from_secs(600));
            (
                l.delivered
                    .iter()
                    .map(|d| (d.from, d.msg))
                    .collect::<Vec<_>>(),
                l.net.stats(),
            )
        };
        let (a, sa) = mk();
        let (b, sb) = mk();
        assert_eq!(a, b, "same seed must give the same delivery sequence");
        assert_eq!(sa, sb, "same seed must give the same stats");
    }

    /// Regression: `resync_node` used to build its peer set from every
    /// node appearing in any pair and insert receiver state for each, so
    /// a recovery left phantom records for pairs that never talked and
    /// their first `Data` piggybacked a meaningless `ack: Some(0)`.
    #[test]
    fn resync_leaves_silent_pairs_untouched() {
        let net: ReliableNet<u64> = ReliableNet::new(Topology::full_mesh(4, ms(10)));
        let mut l = Loop::new(net, 9);
        // Only 0 <-> 1 ever talk; node 1 is down for node 0's two sends.
        l.send(SimTime::ZERO, n(0), n(1), 1);
        l.send(SimTime::ZERO, n(0), n(1), 2);
        l.queue.retain(|_, a| matches!(a, NetAction::Timer(..)));
        let _ = l.net.send(SimTime::ZERO, n(1), n(0), 99, &mut l.rng);
        l.net.crash(n(1));
        l.net.resync_node(n(1));
        for silent in [n(2), n(3)] {
            assert!(!l.net.streams.contains_key(&(n(1), silent)));
            assert!(!l.net.streams.contains_key(&(silent, n(1))));
        }
        let piggybacked = l.net.stats().acks_piggybacked;
        let first = l.net.send(SimTime::from_secs(1), n(1), n(2), 6, &mut l.rng);
        assert!(
            matches!(&first[0], NetAction::Deliver(_, pd) if matches!(pd.pkt, Pkt::Data { ack: None, .. })),
            "a pair that never talked has nothing to acknowledge: {first:?}"
        );
        assert_eq!(l.net.stats().acks_piggybacked, piggybacked);
        // 0 <-> 1 drains the stale window and resumes, as before.
        l.run(SimTime::from_secs(60));
        assert!(l.delivered.is_empty(), "pre-recovery packets must be stale");
        assert_eq!(l.net.pending_count(), 1, "all but the undriven 1 -> 2");
        l.send(SimTime::from_secs(61), n(0), n(1), 7);
        l.send(SimTime::from_secs(61), n(1), n(0), 8);
        l.run(SimTime::from_secs(120));
        let got: Vec<u64> = l.delivered.iter().map(|d| d.msg).collect();
        assert_eq!(got, vec![7, 8]);
    }

    /// Refactor guard: one seeded schedule over lossy, duplicating links
    /// (jittered, except the jitter-free 0 <-> 2), every pair talking
    /// before node 1 crashes and resyncs. Counters and the released
    /// sequence were re-recorded when go-back-N gave way to selective
    /// repair. Messages 7, 13 and 19 (1 -> 2) were still unrepaired in
    /// node 1's window at its 450 ms crash, and the crash and resync cut
    /// them: the layer's contract allows this, and anti-entropy repairs
    /// such sends in the system. Message 18 (0 -> 1), the one go-back-N
    /// lost to the crash, now gets through before it.
    #[test]
    fn seeded_crash_schedule_matches_recorded_run() {
        let still = FaultPlan::new(0.2, 0.2, SimDuration(0));
        let faults = FaultConfig::uniform(FaultPlan::new(0.2, 0.2, ms(15)))
            .with_link(n(0), n(2), still)
            .with_link(n(2), n(0), still);
        let net: ReliableNet<u64> =
            ReliableNet::new(Topology::full_mesh(3, ms(10))).with_faults(faults);
        let mut l = Loop::new(net, 4242);
        let pairs = [(0, 1), (1, 2), (2, 0), (1, 0), (2, 1), (0, 2)];
        for i in 0..24u64 {
            let (from, to) = pairs[i as usize % 6];
            l.send(SimTime::from_millis(i * 4), n(from), n(to), i);
        }
        l.run(SimTime::from_millis(450));
        l.net.crash(n(1));
        l.down = Some(n(1));
        l.run(SimTime::from_secs(2));
        l.down = None;
        l.net.resync_node(n(1));
        for i in 24..36u64 {
            let (from, to) = pairs[i as usize % 6];
            l.send(SimTime::from_secs(2) + ms(i * 4), n(from), n(to), i);
        }
        l.run(SimTime::from_secs(600));
        assert_eq!(l.net.pending_count(), 0);
        assert_eq!(
            l.net.stats(),
            ReliableStats {
                sent: 36,
                transmissions: 50,
                retransmissions: 14,
                fault_dropped: 26,
                fault_duplicated: 16,
                unreachable: 0,
                delivered: 33,
                dup_dropped: 10,
                acks_sent: 35,
                acks_suppressed: 10,
                acks_piggybacked: 26,
                cumulative_acks: 27,
            }
        );
        let released: Vec<(u32, u32, u64)> = l
            .delivered
            .iter()
            .map(|d| (d.from.0, d.to.0, d.msg))
            .collect();
        #[rustfmt::skip]
        let recorded = vec![
            (2, 0, 2), (1, 0, 3), (0, 2, 5), (2, 1, 4), (2, 0, 8), (0, 2, 11), (1, 0, 9),
            (1, 0, 15), (0, 2, 17), (0, 2, 23), (0, 1, 0), (0, 1, 6), (0, 1, 12), (1, 2, 1),
            (2, 1, 10), (2, 1, 16), (2, 1, 22), (1, 0, 21), (0, 1, 18), (2, 0, 14), (2, 0, 20),
            (1, 2, 25), (2, 0, 26), (0, 1, 24), (1, 0, 27), (0, 2, 29), (0, 1, 30), (2, 1, 28),
            (1, 2, 31), (0, 2, 35), (1, 0, 33), (2, 1, 34), (2, 0, 32),
        ];
        assert_eq!(released, recorded);
        // Whatever a crash cuts, each pair still releases an in-order
        // subsequence of what it sent.
        for (i, &(from, to)) in pairs.iter().enumerate() {
            let mut sent = (i as u64..36).step_by(6);
            let got = released.iter().filter(|r| (r.0, r.1) == (from, to));
            for &(_, _, m) in got {
                assert!(
                    sent.any(|s| s == m),
                    "{from} -> {to} released {m} out of order"
                );
            }
        }
    }

    /// Drive `0 -> 1` with one message every `every` from time zero until
    /// `until`, each message being its send instant in µs. The loop runs up
    /// to each send, and each `(at, change)` is applied once the clock
    /// reaches `at`.
    fn paced(
        l: &mut Loop<u64>,
        every: SimDuration,
        until: SimTime,
        changes: &[(SimTime, NetworkChange)],
    ) {
        let mut changes = changes.iter().peekable();
        let mut t = SimTime::ZERO;
        while t < until {
            l.run(t);
            while let Some((_, c)) = changes.next_if(|(at, _)| *at <= t) {
                l.net.apply_change(c);
            }
            l.send(t, n(0), n(1), t.micros());
            t += every;
        }
    }

    /// A window that never empties is no reason to resend: the timer
    /// tracks the oldest unacked packet, which on a lossless link is
    /// always younger than `RTO`.
    #[test]
    fn busy_lossless_link_never_retransmits() {
        let net: ReliableNet<u64> = ReliableNet::new(Topology::full_mesh(2, ms(10)));
        let mut l = Loop::new(net, 1);
        paced(&mut l, ms(5), SimTime::from_secs(2), &[]);
        l.run(SimTime::from_secs(60));
        assert_eq!(l.delivered.len(), 400);
        let s = l.net.stats();
        assert_eq!(s.retransmissions, 0, "a lossless link resent packets");
        assert_eq!(s.transmissions, 400);
        assert_eq!(s.dup_dropped, 0);
        assert_eq!(l.net.pending_count(), 0);
    }

    /// One packet lost inside a busy window costs one retransmission: the
    /// timeout probes the lowest unacked id, whose ack covers everything
    /// parked behind it, so nothing else is overdue.
    #[test]
    fn one_loss_in_a_busy_window_costs_one_retransmission() {
        let net: ReliableNet<u64> = ReliableNet::new(Topology::full_mesh(2, ms(10)));
        let mut l = Loop::new(net, 1);
        let lost = SimTime::from_millis(500);
        let mut t = SimTime::ZERO;
        while t < SimTime::from_secs(1) {
            l.run(t);
            let mut acts = l.net.send(t, n(0), n(1), t.micros(), &mut l.rng);
            if t == lost {
                // The wire loses this one packet.
                acts.retain(|a| matches!(a, NetAction::Timer(..)));
            }
            l.push(acts);
            t += ms(5);
        }
        l.run(SimTime::from_secs(60));
        let got: Vec<u64> = l.delivered.iter().map(|d| d.msg).collect();
        assert_eq!(got, (0..200).map(|i| i * 5_000).collect::<Vec<_>>());
        let s = l.net.stats();
        assert_eq!(s.retransmissions, 1, "the window was resent, not the hole");
        assert_eq!(s.transmissions, 201);
        assert_eq!(s.dup_dropped, 0);
    }

    /// A loaded link cut for 2 s drains its whole backlog within `RTO` +
    /// four link delays of the heal: the next probe (at most `RTO` away),
    /// its ack, then every overdue packet at once.
    #[test]
    fn backlog_drains_one_probe_after_a_heal() {
        let net: ReliableNet<u64> = ReliableNet::new(Topology::full_mesh(2, ms(10)));
        let mut l = Loop::new(net, 1);
        let heal = SimTime::from_secs(3);
        let changes = [
            (SimTime::from_secs(1), NetworkChange::LinkDown(n(0), n(1))),
            (heal, NetworkChange::HealAll),
        ];
        paced(&mut l, ms(10), SimTime::from_secs(4), &changes);
        l.run(SimTime::from_secs(60));
        assert_eq!(l.delivered.len(), 400);
        let bound = heal + RTO + ms(4 * 10);
        let last_backlog = l
            .delivered
            .iter()
            .zip(&l.released_at)
            .filter(|(d, _)| d.msg < heal.micros())
            .map(|(_, &at)| at)
            .max()
            .unwrap();
        assert!(
            last_backlog <= bound,
            "backlog drained at {last_backlog:?}, past {bound:?}"
        );
    }

    /// The worst send-to-release delay, over 20 seeds, of `0 -> 1` every
    /// 10 ms for 8 s across a 10 ms link with 2 ms jitter and 20 % loss,
    /// cut over [1 s, 3 s). Without backoff a lost probe or a lost ack
    /// costs one `RTO`, not a doubled interval, so it stays under 5 s.
    #[test]
    fn lossy_outage_worst_delay_stays_bounded() {
        let mut worst = SimDuration::ZERO;
        for seed in 1..=20 {
            let net: ReliableNet<u64> = ReliableNet::new(Topology::full_mesh(2, ms(10)))
                .with_faults(FaultConfig::uniform(FaultPlan::new(0.2, 0.0, ms(2))));
            let mut l = Loop::new(net, seed);
            let changes = [
                (SimTime::from_secs(1), NetworkChange::LinkDown(n(0), n(1))),
                (SimTime::from_secs(3), NetworkChange::HealAll),
            ];
            paced(&mut l, ms(10), SimTime::from_secs(8), &changes);
            l.run(SimTime::from_secs(600));
            assert_eq!(l.delivered.len(), 800, "seed {seed}");
            let sent = l.delivered.iter().map(|d| SimTime(d.msg));
            let delays = l.released_at.iter().zip(sent).map(|(&at, s)| at - s);
            worst = worst.max(delays.max().unwrap());
        }
        assert!(
            worst < SimDuration::from_secs(5),
            "worst delay {worst:?} at 20 % loss"
        );
    }
}
