//! Ack/retransmit point-to-point delivery over faulty links.
//!
//! §3.2 requires that "all messages are eventually delivered", and
//! [`ReliableNet`] earns that the way a real network stack does — every
//! application message becomes a numbered `Data` packet that stays in
//! the sender's window until covered by a **cumulative ack**
//! (`Ack { upto }` acknowledges every id below `upto`, and the same
//! watermark piggybacks on reverse-direction `Data` when there is any).
//! Repair is **selective**. The sender stamps each packet with when it
//! last went on the wire; a packet is *overdue* once its stamp is `RTO`
//! old. One retransmission timer per ordered link — not per packet —
//! tracks the oldest stamp. When it expires, only the lowest unacked id is
//! resent (a *probe*: the packet the cumulative ack is stuck on) and the
//! timer re-arms one `RTO` later, with no backoff. When ack progress
//! answers a probe, every packet still overdue is resent at once and the
//! timer re-arms at the new oldest stamp; ack progress with no probe
//! outstanding resends nothing. Between retransmission and the receiver's
//! in-order reassembly buffer, the layer delivers every message
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
//! back through [`ReliableNet::on_packet`]. Each method has an `_into`
//! form that appends its actions and released messages to buffers the
//! caller owns and reuses, so a caller on the per-message path allocates
//! no fresh `Vec` per call. All randomness comes from the caller's seeded
//! RNG, so runs are reproducible.
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
//! This is the one FIFO in the message path (§3.2) of fragdb-core and of
//! both §1 baselines: nothing above it numbers, re-orders or de-duplicates
//! messages again. All of its state — both ends of a directed stream, and
//! its direction's wire slot and route, memoized per link-state epoch — is
//! one `Stream` record. A node pair's two records sit side by side (the
//! reverse of record `i` is `i ^ 1`), found through a hashed [`IdMap`]
//! keyed by the unordered pair: each packet, ack and timer finds its pair
//! with one hash probe and hands the index down, and the passes over every
//! stream ([`crash`], [`resync_node`], [`pending_count`]) do not depend on
//! the map's order.
//! Neither end searches for an order it already knows: the sender's window
//! is a FIFO holding a contiguous id range, which a cumulative ack trims
//! from the front by subtraction, and
//! the arrival the receiver's watermark waits for is released without
//! touching the reassembly buffer.
//!
//! [`FaultPlan::drop`]: crate::fault::FaultPlan
//! [`FaultPlan::dup`]: crate::fault::FaultPlan
//! [`FaultPlan::jitter`]: crate::fault::FaultPlan
//! [`crash`]: ReliableNet::crash
//! [`resync_node`]: ReliableNet::resync_node
//! [`pending_count`]: ReliableNet::pending_count

use std::collections::VecDeque;

use fragdb_model::NodeId;
use fragdb_sim::{IdMap, SimDuration, SimRng, SimTime};

use crate::fault::FaultConfig;
use crate::partition::NetworkChange;
use crate::topology::Topology;
use crate::wire::{fifo_slot, Route, Wire};

/// An application message released to its receiver.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Delivery<M> {
    /// Sender.
    pub from: NodeId,
    /// Receiver.
    pub to: NodeId,
    /// Payload.
    pub msg: M,
}

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
/// the wire slot and route of the `from -> to` direction. Neither end
/// searches for an order it knows: the window is trimmed and probed at its
/// front, and only an arrival past the watermark enters the reassembly
/// buffer.
#[derive(Debug)]
struct Stream<M> {
    /// Next packet id the sender assigns. Survives crashes (conceptually
    /// re-negotiated by the recovery handshake).
    next_id: u64,
    /// Sender-side unacked packets in id order: the id, when it last went
    /// on the wire, and its message. Ids are assigned in order and a
    /// cumulative ack clears a prefix, so this is a FIFO. Volatile.
    pending: VecDeque<(u64, SimTime, M)>,
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
    /// Receiver-side reassembly buffer, in id order: every id in it is
    /// past the watermark. It keeps its capacity once emptied. Volatile.
    inbuf: VecDeque<(u64, M)>,
    /// Last arrival scheduled `from -> to` — this stream's data and the
    /// reverse stream's acks — which keeps jitter-free links FIFO on the
    /// wire.
    last_sched: Option<SimTime>,
    /// The `from -> to` route.
    route: Route,
}

impl<M> Default for Stream<M> {
    fn default() -> Self {
        Stream {
            next_id: 0,
            pending: VecDeque::new(),
            gen: 0,
            armed: false,
            probing: false,
            expected: None,
            inbuf: VecDeque::new(),
            last_sched: None,
            route: (0, None),
        }
    }
}

impl<M> Stream<M> {
    /// When the oldest unacked packet becomes overdue; `None` when the
    /// window is empty.
    fn deadline(&self) -> Option<SimTime> {
        let oldest = self.pending.iter().map(|&(_, at, _)| at).min()?;
        Some(oldest + RTO)
    }
}

/// One direction of a node pair: its endpoints and its record's index.
#[derive(Clone, Copy, Debug)]
struct Link {
    from: NodeId,
    to: NodeId,
    i: usize,
}

impl Link {
    /// `from -> to` in the pair whose `lo -> hi` record is `k`.
    fn new(from: NodeId, to: NodeId, k: u32) -> Link {
        let i = k as usize + usize::from(from > to);
        Link { from, to, i }
    }

    /// The opposite direction, whose record sits beside this one.
    fn reverse(self) -> Link {
        let (from, to, i) = (self.to, self.from, self.i ^ 1);
        Link { from, to, i }
    }
}

/// Both directions' records of every pair `lo < hi` that has carried
/// anything, side by side in a `Vec` in first-use order (`lo -> hi` first),
/// and an `IdMap` from `(lo, hi)` to the first: the hash table's spare
/// buckets hold a key and an index, not whole records.
#[derive(Debug)]
struct Streams<M> {
    index: IdMap<(NodeId, NodeId), u32>,
    records: Vec<Stream<M>>,
}

impl<M> Streams<M> {
    fn new() -> Self {
        Streams {
            index: IdMap::default(),
            records: Vec::new(),
        }
    }

    /// The direction `from -> to`, if its pair has records.
    fn find(&self, from: NodeId, to: NodeId) -> Option<Link> {
        let &k = self.index.get(&(from.min(to), from.max(to)))?;
        Some(Link::new(from, to, k))
    }

    /// The direction `from -> to`, its pair's records made on first use.
    fn link(&mut self, from: NodeId, to: NodeId) -> Link {
        let records = &mut self.records;
        let pair = self.index.entry((from.min(to), from.max(to)));
        let &mut k = pair.or_insert_with(|| {
            records.extend([Stream::default(), Stream::default()]);
            u32::try_from(records.len() - 2).expect("fewer than 2^32 streams")
        });
        Link::new(from, to, k)
    }
}

/// Reliable, in-order, exactly-once point-to-point delivery with
/// deterministic fault injection.
#[derive(Debug)]
pub struct ReliableNet<M> {
    wire: Wire,
    faults: FaultConfig,
    /// Both directions of every node pair that has carried anything.
    streams: Streams<M>,
    stats: ReliableStats,
}

impl<M: Clone> ReliableNet<M> {
    /// Build over a topology with all links up and no faults.
    pub fn new(topo: Topology) -> Self {
        ReliableNet {
            wire: Wire::new(topo),
            faults: FaultConfig::clean(),
            streams: Streams::new(),
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
        self.streams.records.iter().map(|s| s.pending.len()).sum()
    }

    /// Apply a network change. Nothing is parked and so nothing is
    /// released: blocked packets simply fail their transmission attempts
    /// and get through on a later retransmission.
    pub fn apply_change(&mut self, change: &NetworkChange) {
        self.wire.apply_change(change);
    }

    /// Can `a` reach `b` under the current link state?
    pub fn connected(&self, a: NodeId, b: NodeId) -> bool {
        self.wire.connected(a, b)
    }

    /// Put one packet on the `link` wire, rolling its fault dice. A
    /// duplicated packet is cloned once and the original moves into the
    /// last copy.
    fn transmit(
        &mut self,
        now: SimTime,
        link: Link,
        pkt: Pkt<M>,
        rng: &mut SimRng,
        out: &mut Vec<NetAction<M>>,
    ) {
        let Link { from, to, i } = link;
        let plan = self.faults.plan_for(from, to);
        let s = &mut self.streams.records[i];
        let Some(base) = self.wire.route(&mut s.route, from, to) else {
            self.stats.unreachable += 1;
            return;
        };
        let duplicated = plan.dup > 0.0 && rng.chance(plan.dup);
        if duplicated {
            self.stats.fault_duplicated += 1;
        }
        let stats = &mut self.stats;
        let mut put = |pkt: Pkt<M>| {
            if plan.drop > 0.0 && rng.chance(plan.drop) {
                stats.fault_dropped += 1;
                return;
            }
            let at = if plan.jitter > SimDuration(0) {
                // Per-packet jitter: packets may overtake — real reordering.
                now + base + SimDuration(rng.gen_range(0..=plan.jitter.0))
            } else {
                // Jitter-free links stay FIFO on the wire.
                fifo_slot(&mut s.last_sched, now + base)
            };
            out.push(NetAction::Deliver(at, PktDelivery { from, to, pkt }));
        };
        if duplicated {
            put(pkt.clone());
        }
        put(pkt);
    }

    /// Put `Data { id, msg }` on the `link` wire, piggybacking the reverse
    /// stream's cumulative ack — one past the highest id it released in
    /// order — when it has delivered anything.
    fn transmit_data(
        &mut self,
        now: SimTime,
        link: Link,
        id: u64,
        msg: M,
        rng: &mut SimRng,
        out: &mut Vec<NetAction<M>>,
    ) {
        self.stats.transmissions += 1;
        let ack = self.streams.records[link.reverse().i].expected;
        if ack.is_some() {
            self.stats.acks_piggybacked += 1;
        }
        self.transmit(now, link, Pkt::Data { id, ack, msg }, rng, out);
    }

    /// Apply a cumulative ack for the stream `link`: clear every pending id
    /// below `upto`. On progress, a drained window invalidates the link's
    /// live timer; a window that is still open and was being probed gets
    /// its overdue packets resent (restamped `now`) and one fresh timer at
    /// its new oldest deadline.
    fn apply_cum_ack(
        &mut self,
        now: SimTime,
        link: Link,
        upto: u64,
        rng: &mut SimRng,
        out: &mut Vec<NetAction<M>>,
    ) {
        let s = &mut self.streams.records[link.i];
        // The window holds a contiguous id range — ids are assigned in
        // order, acks clear a prefix and a crash clears it all — so the
        // ids below `upto` are its first `upto - front` entries.
        let cleared = s.pending.front().map_or(0, |&(front, ..)| {
            let below = usize::try_from(upto.saturating_sub(front)).unwrap_or(usize::MAX);
            below.min(s.pending.len())
        });
        debug_assert_eq!(cleared, s.pending.partition_point(|&(id, ..)| id < upto));
        s.pending.drain(..cleared);
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
        s.gen += 1;
        // Resend the overdue packets in id order, restamped `now`, where
        // they stand: a transmission touches neither the window nor the
        // generation.
        for k in 0..s.pending.len() {
            let (id, at, msg) = &mut self.streams.records[link.i].pending[k];
            if *at + RTO > now {
                continue;
            }
            *at = now;
            let (id, msg) = (*id, msg.clone());
            self.stats.retransmissions += 1;
            self.transmit_data(now, link, id, msg, rng, out);
        }
        let s = &self.streams.records[link.i];
        let (gen, deadline) = (s.gen, s.deadline().expect("window is open"));
        let (from, to) = (link.from, link.to);
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
        // At most the data transmission plus one timer arm.
        let mut out = Vec::with_capacity(2);
        self.send_into(now, from, to, msg, rng, &mut out);
        out
    }

    /// [`ReliableNet::send`], appending the actions to `out`.
    pub fn send_into(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        msg: M,
        rng: &mut SimRng,
        out: &mut Vec<NetAction<M>>,
    ) {
        assert!(from != to, "loopback send through the network");
        self.stats.sent += 1;
        let link = self.streams.link(from, to);
        let s = &mut self.streams.records[link.i];
        let id = s.next_id;
        s.next_id += 1;
        s.pending.push_back((id, now, msg.clone()));
        let (arm, gen) = (!s.armed, s.gen);
        s.armed = true;
        self.transmit_data(now, link, id, msg, rng, out);
        if arm {
            out.push(NetAction::Timer(
                now + RTO,
                RetransmitTimer { from, to, gen },
            ));
        }
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
        let mut out = Vec::new();
        self.on_timer_into(now, timer, rng, &mut out);
        out
    }

    /// [`ReliableNet::on_timer`], appending the actions to `out`.
    pub fn on_timer_into(
        &mut self,
        now: SimTime,
        timer: RetransmitTimer,
        rng: &mut SimRng,
        out: &mut Vec<NetAction<M>>,
    ) {
        let Some(link) = self.streams.find(timer.from, timer.to) else {
            return;
        };
        let s = &mut self.streams.records[link.i];
        if s.gen != timer.gen {
            return; // superseded by a drain or a re-arm
        }
        let Some(deadline) = s.deadline() else {
            // Nothing left to guard (e.g. a crash dropped the sends).
            s.armed = false;
            return;
        };
        if now < deadline {
            out.push(NetAction::Timer(deadline, timer));
            return;
        }
        s.probing = true;
        let (id, at, msg) = s.pending.front_mut().expect("window is open");
        let id = *id;
        *at = now;
        let msg = msg.clone();
        self.stats.retransmissions += 1;
        self.transmit_data(now, link, id, msg, rng, out);
        out.push(NetAction::Timer(now + RTO, timer));
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
        let (mut released, mut actions) = (Vec::new(), Vec::new());
        self.on_packet_into(now, d, rng, &mut released, &mut actions);
        (released, actions)
    }

    /// [`ReliableNet::on_packet`], appending the released messages to
    /// `released` and the actions to `actions`.
    pub fn on_packet_into(
        &mut self,
        now: SimTime,
        d: PktDelivery<M>,
        rng: &mut SimRng,
        released: &mut Vec<Delivery<M>>,
        actions: &mut Vec<NetAction<M>>,
    ) {
        match d.pkt {
            Pkt::Data { id, ack, msg } => {
                let link = self.streams.link(d.from, d.to);
                if let Some(upto) = ack {
                    // Piggybacked ack for the reverse stream (d.to -> d.from).
                    self.apply_cum_ack(now, link.reverse(), upto, rng, actions);
                }
                let s = &mut self.streams.records[link.i];
                let expected = s.expected.get_or_insert(0);
                // Decide whether this arrival draws a standalone ack:
                // stale packets always do (so post-resync windows drain),
                // watermark advances do; out-of-order parks are absorbed.
                let ack_upto = if id < *expected {
                    self.stats.dup_dropped += 1;
                    Some(*expected)
                } else {
                    let before = *expected;
                    // Only ids past the watermark are parked, so the one
                    // it waits for skips the reassembly buffer.
                    let mut next = if id == before {
                        Some(msg)
                    } else {
                        // Parked ids mostly arrive in order: past the last.
                        let at = match s.inbuf.back() {
                            Some(&(last, _)) if last < id => Err(s.inbuf.len()),
                            _ => s.inbuf.binary_search_by_key(&id, |&(parked, _)| parked),
                        };
                        match at {
                            Ok(k) => {
                                s.inbuf[k].1 = msg;
                                self.stats.dup_dropped += 1;
                            }
                            Err(k) => s.inbuf.insert(k, (id, msg)),
                        }
                        None
                    };
                    while let Some(m) = next {
                        self.stats.delivered += 1;
                        released.push(Delivery {
                            from: d.from,
                            to: d.to,
                            msg: m,
                        });
                        *expected += 1;
                        next = s
                            .inbuf
                            .pop_front_if(|(parked, _)| *parked == *expected)
                            .map(|(_, m)| m);
                    }
                    (*expected > before).then_some(*expected)
                };
                match ack_upto {
                    Some(upto) => {
                        self.stats.acks_sent += 1;
                        self.transmit(now, link.reverse(), Pkt::Ack { upto }, rng, actions);
                    }
                    None => self.stats.acks_suppressed += 1,
                }
            }
            Pkt::Ack { upto } => {
                // The acked stream is (original sender = d.to) -> (acker =
                // d.from).
                if let Some(link) = self.streams.find(d.to, d.from) {
                    self.apply_cum_ack(now, link, upto, rng, actions);
                }
            }
        }
    }

    /// `node` crashed: its volatile send buffer is gone (its links' live
    /// timers fire once more as no-ops and disarm). Packets other nodes
    /// have pending toward it keep being probed — after
    /// [`ReliableNet::resync_node`] at recovery, the first probe to arrive
    /// is stale and its cumulative ack drains the whole window.
    pub fn crash(&mut self, node: NodeId) {
        for (&(lo, hi), &k) in &self.streams.index {
            let k = k as usize;
            for (from, i) in [(lo, k), (hi, k + 1)] {
                if from == node {
                    self.streams.records[i].pending.clear();
                }
            }
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
        for (&(lo, hi), &k) in &self.streams.index {
            if lo == node || hi == node {
                let k = k as usize;
                for s in &mut self.streams.records[k..k + 2] {
                    s.expected = Some(s.next_id);
                    s.inbuf.clear();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use std::collections::BTreeMap;

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
    #[should_panic(expected = "loopback")]
    fn loopback_send_panics() {
        let mut net: ReliableNet<u64> = ReliableNet::new(Topology::full_mesh(2, ms(10)));
        net.send(SimTime::ZERO, n(0), n(0), 1, &mut SimRng::new(1));
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
    fn crash_empties_only_the_crashed_senders_windows() {
        let (a, b, c) = (n(0), n(1), n(2));
        let net: ReliableNet<u64> = ReliableNet::new(Topology::full_mesh(3, ms(10)));
        let mut l = Loop::new(net, 5);
        l.send(SimTime::ZERO, a, b, 1);
        l.send(SimTime::ZERO, a, c, 2);
        l.send(SimTime::ZERO, c, a, 3);
        l.net.crash(a);
        let window = |l: &Loop<u64>, from, to| {
            let link = l.net.streams.find(from, to).unwrap();
            l.net.streams.records[link.i].pending.len()
        };
        assert_eq!((window(&l, a, b), window(&l, a, c)), (0, 0));
        assert_eq!(window(&l, c, a), 1, "sends toward the crashed node stay");
        // With `a` down, C→A keeps probing and stays unacked.
        l.down = Some(a);
        l.run(SimTime::from_secs(2));
        assert_eq!(l.net.pending_count(), 1);
        assert!(l.net.stats().retransmissions >= 5, "C→A keeps probing");
    }

    /// The sender window is a contiguous id range through acks, a crash
    /// and a resync, so a cumulative ack clears `upto - front` entries; the
    /// trim's `debug_assert` checks each against a search of the window.
    #[test]
    fn cumulative_ack_trims_a_contiguous_window_across_crash_and_resync() {
        let mut net: ReliableNet<u64> = ReliableNet::new(Topology::full_mesh(2, ms(10)));
        let mut rng = SimRng::new(3);
        let ack = |net: &mut ReliableNet<u64>, rng: &mut SimRng, upto: u64| {
            let pkt = PktDelivery {
                from: n(1),
                to: n(0),
                pkt: Pkt::Ack { upto },
            };
            net.on_packet(SimTime(5), pkt, rng);
            net.pending_count()
        };
        for i in 0..5 {
            net.send(SimTime(i), n(0), n(1), i, &mut rng); // ids 0..=4
        }
        assert_eq!(ack(&mut net, &mut rng, 0), 5, "nothing below 0");
        assert_eq!(ack(&mut net, &mut rng, 2), 3, "ids 0 and 1");
        assert_eq!(ack(&mut net, &mut rng, 1), 3, "stale ack");
        net.crash(n(0));
        assert_eq!(net.pending_count(), 0, "the crash clears the window");
        assert_eq!(ack(&mut net, &mut rng, 4), 0, "ack of an empty window");
        net.resync_node(n(0));
        for i in 0..4 {
            net.send(SimTime(10 + i), n(0), n(1), i, &mut rng); // ids 5..=8
        }
        assert_eq!(ack(&mut net, &mut rng, 4), 4, "ack below the new front");
        assert_eq!(ack(&mut net, &mut rng, 7), 2, "ids 5 and 6");
        assert_eq!(ack(&mut net, &mut rng, 1 << 40), 0, "ack past the window");
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

    /// A pair's two records are created together, so a one-way stream's
    /// reverse record exists from its first packet on; it has nothing to
    /// acknowledge until the reverse direction has delivered something.
    #[test]
    fn a_reverse_record_piggybacks_nothing_until_it_delivers() {
        let net: ReliableNet<u64> = ReliableNet::new(Topology::full_mesh(2, ms(10)));
        let mut l = Loop::new(net, 2);
        let piggybacked = |acts: &[NetAction<u64>]| match &acts[0] {
            NetAction::Deliver(_, pd) => match pd.pkt {
                Pkt::Data { ack, .. } => ack,
                Pkt::Ack { .. } => panic!("not data: {pd:?}"),
            },
            NetAction::Timer(..) => panic!("not a delivery"),
        };
        l.send(SimTime::ZERO, n(0), n(1), 1);
        l.run(SimTime::from_secs(1));
        assert!(
            l.net.streams.find(n(1), n(0)).is_some(),
            "made with its pair"
        );
        let second = l.net.send(SimTime::from_secs(1), n(0), n(1), 2, &mut l.rng);
        assert_eq!(piggybacked(&second), None, "1 -> 0 delivered nothing");
        assert_eq!(l.net.stats().acks_piggybacked, 0);
        l.push(second);
        l.run(SimTime::from_secs(2));
        let reply = l.net.send(SimTime::from_secs(2), n(1), n(0), 3, &mut l.rng);
        assert_eq!(piggybacked(&reply), Some(2), "0 -> 1 released ids 0 and 1");
        l.push(reply);
        l.run(SimTime::from_secs(3));
        let third = l.net.send(SimTime::from_secs(3), n(0), n(1), 4, &mut l.rng);
        assert_eq!(piggybacked(&third), Some(1), "1 -> 0 released id 0");
        assert_eq!(l.net.stats().acks_piggybacked, 2);
    }

    /// Each record memoizes its direction's route for one link-state
    /// epoch: after a change, a stream that already carried traffic is
    /// rerouted, counts a send over a cut as unreachable, and after the
    /// heal delivers at the original delay again.
    #[test]
    fn a_link_change_retires_memoized_routes() {
        let mut net: ReliableNet<u64> = ReliableNet::new(Topology::full_mesh(3, ms(10)));
        let mut rng = SimRng::new(1);
        let mut arrival = |net: &mut ReliableNet<u64>, secs: u64| {
            let now = SimTime::from_secs(secs);
            let acts = net.send(now, n(0), n(1), secs, &mut rng);
            let at = acts.iter().find_map(|a| match a {
                NetAction::Deliver(at, _) => Some(*at - now),
                NetAction::Timer(..) => None,
            });
            (at, net.stats().unreachable)
        };
        assert_eq!(arrival(&mut net, 0), (Some(ms(10)), 0));
        net.apply_change(&NetworkChange::LinkDown(n(0), n(1)));
        assert_eq!(arrival(&mut net, 1), (Some(ms(20)), 0), "through node 2");
        net.apply_change(&NetworkChange::LinkDown(n(0), n(2)));
        assert_eq!(
            arrival(&mut net, 2),
            (None, 1),
            "stale route survived the cut"
        );
        net.apply_change(&NetworkChange::HealAll);
        assert_eq!(arrival(&mut net, 3), (Some(ms(10)), 1));
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
            assert!(l.net.streams.find(n(1), silent).is_none());
            assert!(l.net.streams.find(silent, n(1)).is_none());
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
