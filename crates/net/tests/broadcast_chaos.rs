//! Chaos property tests for the §3.2 broadcast stack: random
//! drop/duplicate/reorder schedules must never break per-sender FIFO
//! processing, lose a message, or leak a duplicate to the application.
//! The property belongs to [`ReliableNet`]: the full-stack loop asserts it
//! on what `on_packet` releases, before `BroadcastLayer::accept` sees it.
//!
//! Implemented as seeded randomized loops over [`SimRng`] (same style as
//! `proptest_net.rs`) so the suite builds with no external dependencies;
//! every case is reproducible from the printed seed.
//!
//! Two layers are attacked:
//!
//! 1. [`BroadcastLayer::accept`] directly, against an adversarial
//!    scheduler that duplicates and arbitrarily reorders arrivals;
//! 2. the full stack — `BroadcastLayer` stamping over [`ReliableNet`]
//!    with random per-link fault plans — driven by a miniature event
//!    loop.

use std::collections::BTreeMap;

use fragdb_model::NodeId;
use fragdb_net::{
    BroadcastLayer, FaultConfig, FaultPlan, NetAction, ReliableNet, RetransmitTimer, Topology,
};
use fragdb_sim::{SimDuration, SimRng, SimTime};

fn n(i: u32) -> NodeId {
    NodeId(i)
}

fn shuffle<T>(rng: &mut SimRng, xs: &mut [T]) {
    for i in (1..xs.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        xs.swap(i, j);
    }
}

/// An adversarial scheduler feeds every stamped message to `accept` in a
/// random order, with every message presented 1–3 times (duplication).
/// Whatever the schedule: each receiver processes each sender's stream
/// exactly once, in stamp order — nothing lost, nothing duplicated, and
/// at quiescence nothing still held back.
#[test]
fn random_reorder_and_duplication_never_break_fifo() {
    for case in 0..256u64 {
        let mut rng = SimRng::new(0xB_CA57_0000 + case);
        let nodes = rng.gen_range(2..6u32);
        let msgs_per_sender = rng.gen_range(1..40u64);

        // Stamp: every sender broadcasts `msgs_per_sender` messages to all
        // other nodes. Payload identifies (sender, k).
        let mut layer: BroadcastLayer<(u32, u64)> = BroadcastLayer::new();
        let mut arrivals: Vec<(NodeId, NodeId, u64, (u32, u64))> = Vec::new();
        for s in 0..nodes {
            for k in 0..msgs_per_sender {
                for r in 0..nodes {
                    if r == s {
                        continue;
                    }
                    let seq = layer.stamp_for(n(s), n(r));
                    arrivals.push((n(r), n(s), seq, (s, k)));
                }
            }
        }

        // Duplicate each arrival 1-3 times, then shuffle the lot.
        let mut schedule: Vec<(NodeId, NodeId, u64, (u32, u64))> = Vec::new();
        for a in &arrivals {
            for _ in 0..rng.gen_range(1..4u32) {
                schedule.push(*a);
            }
        }
        shuffle(&mut rng, &mut schedule);

        let mut processed: BTreeMap<(NodeId, NodeId), Vec<u64>> = BTreeMap::new();
        for (recv, send, seq, payload) in schedule {
            for (_, (s, k)) in layer.accept(recv, send, seq, payload) {
                assert_eq!(s, send.0, "case {case}: payload from wrong sender");
                processed.entry((recv, send)).or_default().push(k);
            }
        }

        // Exactly once, in send order, on every (receiver, sender) stream.
        for s in 0..nodes {
            for r in 0..nodes {
                if r == s {
                    continue;
                }
                let got = processed.get(&(n(r), n(s))).cloned().unwrap_or_default();
                let want: Vec<u64> = (0..msgs_per_sender).collect();
                assert_eq!(got, want, "case {case}: stream {s}->{r} broken");
            }
        }
        assert_eq!(layer.held_back(), 0, "case {case}: messages stuck");
    }
}

/// Miniature event loop driving `BroadcastLayer` stamping over a
/// `ReliableNet` with random faults — the same composition the `System`
/// uses. Payloads carry their broadcast stamp; the loop runs `accept` on
/// every released delivery.
/// `(broadcast stamp, (sender, k))` — the wire message of the chaos loop.
type Wire = (u64, (u32, u64));

struct ChaosLoop {
    net: ReliableNet<Wire>,
    layer: BroadcastLayer<(u32, u64)>,
    rng: SimRng,
    queue: BTreeMap<(SimTime, u64), NetAction<Wire>>,
    seq: u64,
    /// What `ReliableNet::on_packet` released, per `(receiver, sender)`:
    /// `(k, release instant)`. The §3.2 property is asserted here.
    released: BTreeMap<(NodeId, NodeId), Vec<(u64, SimTime)>>,
    /// The same stream after `BroadcastLayer::accept`.
    processed: BTreeMap<(NodeId, NodeId), Vec<u64>>,
    /// A crashed host: packets addressed to it are dropped unseen.
    down: Option<NodeId>,
    /// `Timer` actions handed to the loop by the reliable layer (armed)
    /// vs fed back through `on_timer` (fired). Conservation — armed ==
    /// fired at quiescence — is the timer hygiene law: a timer that never
    /// fires is a leak in the caller's event queue, and a firing that was
    /// never armed is a phantom.
    timers_armed: u64,
    timers_fired: u64,
    /// Every timer ever armed, for the stale-replay hygiene test.
    timer_log: Vec<RetransmitTimer>,
}

impl ChaosLoop {
    fn new(net: ReliableNet<Wire>, seed: u64) -> Self {
        ChaosLoop {
            net,
            layer: BroadcastLayer::new(),
            rng: SimRng::new(seed),
            queue: BTreeMap::new(),
            seq: 0,
            released: BTreeMap::new(),
            processed: BTreeMap::new(),
            down: None,
            timers_armed: 0,
            timers_fired: 0,
            timer_log: Vec::new(),
        }
    }

    fn push(&mut self, actions: Vec<NetAction<Wire>>) {
        for a in actions {
            let at = match &a {
                NetAction::Deliver(t, _) => *t,
                NetAction::Timer(t, tm) => {
                    self.timers_armed += 1;
                    self.timer_log.push(*tm);
                    *t
                }
            };
            self.queue.insert((at, self.seq), a);
            self.seq += 1;
        }
    }

    fn broadcast(&mut self, now: SimTime, from: NodeId, payload: (u32, u64), nodes: u32) {
        for r in 0..nodes {
            if n(r) == from {
                continue;
            }
            let bseq = self.layer.stamp_for(from, n(r));
            let acts = self
                .net
                .send(now, from, n(r), (bseq, payload), &mut self.rng);
            self.push(acts);
        }
    }

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
                    for d in rel {
                        let (bseq, payload) = d.msg;
                        assert_eq!(payload.0, d.from.0);
                        let stream = self.released.entry((d.to, d.from)).or_default();
                        stream.push((payload.1, at));
                        for (_, (snd, k)) in self.layer.accept(d.to, d.from, bseq, payload) {
                            assert_eq!(snd, d.from.0);
                            self.processed.entry((d.to, d.from)).or_default().push(k);
                        }
                    }
                    self.push(acts);
                }
                NetAction::Timer(_, t) => {
                    self.timers_fired += 1;
                    let acts = self.net.on_timer(at, t, &mut self.rng);
                    self.push(acts);
                }
            }
        }
    }

    /// The `k`s the reliable layer released at `r` from `s`, in order.
    fn released_ks(&self, r: u32, s: u32) -> Vec<u64> {
        let stream = self.released.get(&(n(r), n(s)));
        stream.map_or(Vec::new(), |v| v.iter().map(|&(k, _)| k).collect())
    }
}

fn random_plan(rng: &mut SimRng) -> FaultPlan {
    FaultPlan::new(
        rng.gen_range(0..35u64) as f64 / 100.0,
        rng.gen_range(0..35u64) as f64 / 100.0,
        SimDuration::from_millis(rng.gen_range(0..60u64)),
    )
}

/// Broadcasts through the full faulty stack: whatever the random fault
/// plan (loss + duplication + reordering jitter), every stream is
/// processed exactly once in send order once the retransmission loops
/// drain.
#[test]
fn faulty_stack_preserves_fifo_exactly_once() {
    for case in 0..24u64 {
        let mut rng = SimRng::new(0xB_CA57_1000 + case);
        let nodes = rng.gen_range(2..5u32);
        let msgs_per_sender = rng.gen_range(1..20u64);
        let plan = random_plan(&mut rng);

        let net = ReliableNet::new(Topology::full_mesh(nodes, SimDuration::from_millis(10)))
            .with_faults(FaultConfig::uniform(plan));
        let mut l = ChaosLoop::new(net, 0xB_CA57_2000 + case);
        for k in 0..msgs_per_sender {
            for s in 0..nodes {
                let at = SimTime::from_millis(k * 40 + s as u64);
                l.broadcast(at, n(s), (s, k), nodes);
            }
        }
        l.run(SimTime::from_secs(3_600));

        for s in 0..nodes {
            for r in 0..nodes {
                if r == s {
                    continue;
                }
                let want: Vec<u64> = (0..msgs_per_sender).collect();
                assert_eq!(
                    l.released_ks(r, s),
                    want,
                    "case {case} (plan {plan:?}): stream {s}->{r} broken at release"
                );
                let got = l.processed.get(&(n(r), n(s))).cloned().unwrap_or_default();
                assert_eq!(
                    got, want,
                    "case {case} (plan {plan:?}): stream {s}->{r} broken"
                );
            }
        }
        assert_eq!(l.net.pending_count(), 0, "case {case}: unacked packets");
        assert_eq!(l.layer.held_back(), 0, "case {case}: messages stuck");
        // Timer conservation: the loop drained, so every retransmission
        // timer the layer armed must have fired exactly once — a deficit
        // is a leaked queue entry, a surplus a phantom firing.
        assert_eq!(
            l.timers_armed, l.timers_fired,
            "case {case}: timers armed != timers fired at quiescence"
        );
    }
}

/// A node crashes mid-run and resyncs at recovery, under the same random
/// fault plans. On every stream touching it, the reliable layer releases
/// an in-order prefix of what was sent before the cut, nothing stamped
/// before the cut once the cut is made, and everything stamped after it;
/// streams between the other nodes never notice. Windows drain.
#[test]
fn crash_and_resync_cut_streams_at_the_release_point() {
    for case in 0..24u64 {
        let mut rng = SimRng::new(0xB_CA57_5000 + case);
        let nodes = rng.gen_range(3..5u32);
        let (before, after) = (rng.gen_range(1..12u64), rng.gen_range(1..12u64));
        let victim = rng.gen_range(0..nodes);
        let plan = random_plan(&mut rng);
        let net = ReliableNet::new(Topology::full_mesh(nodes, SimDuration::from_millis(10)))
            .with_faults(FaultConfig::uniform(plan));
        let mut l = ChaosLoop::new(net, 0xB_CA57_6000 + case);
        let broadcast_round = |l: &mut ChaosLoop, base: SimTime, k: u64| {
            for s in 0..nodes {
                let at = base + SimDuration::from_millis(k * 40 + s as u64);
                l.broadcast(at, n(s), (s, k), nodes);
            }
        };
        for k in 0..before {
            broadcast_round(&mut l, SimTime::ZERO, k);
        }
        // Crash with traffic still in flight and windows still open.
        l.run(SimTime::from_millis(before * 40 / 2 + 15));
        l.net.crash(n(victim));
        l.down = Some(n(victim));
        let cut = SimTime::from_secs(30);
        l.run(cut);
        l.down = None;
        l.net.resync_node(n(victim));
        l.layer.resync_node(n(victim));
        for k in before..before + after {
            broadcast_round(&mut l, cut, k);
        }
        l.run(SimTime::from_secs(3_600));

        let fresh: Vec<u64> = (before..before + after).collect();
        for s in 0..nodes {
            for r in 0..nodes {
                if r == s {
                    continue;
                }
                let ctx = format!("case {case} (plan {plan:?}, victim {victim}): {s}->{r}");
                let got = l.released_ks(r, s);
                if s != victim && r != victim {
                    let all: Vec<u64> = (0..before + after).collect();
                    assert_eq!(got, all, "{ctx}: bystander stream disturbed");
                    continue;
                }
                let stale = got.len() - after as usize;
                assert_eq!(
                    got[..stale],
                    (0..stale as u64).collect::<Vec<_>>()[..],
                    "{ctx}: pre-cut releases are not an in-order prefix"
                );
                assert_eq!(got[stale..], fresh[..], "{ctx}: post-cut stream broken");
                let late_stale = l.released[&(n(r), n(s))]
                    .iter()
                    .any(|&(k, at)| k < before && at >= cut);
                assert!(
                    !late_stale,
                    "{ctx}: released a pre-cut message after the cut"
                );
            }
        }
        // The hold-back layer on top saw an already-clean stream.
        for (pair, stream) in &l.released {
            let ks: Vec<u64> = stream.iter().map(|&(k, _)| k).collect();
            assert_eq!(l.processed[pair], ks, "case {case}: accept re-ordered");
        }
        assert_eq!(l.net.pending_count(), 0, "case {case}: unacked packets");
        assert_eq!(l.layer.held_back(), 0, "case {case}: messages stuck");
    }
}

/// Timer hygiene: once every window has drained, re-firing any timer the
/// layer ever armed is a generation-checked no-op — no retransmissions,
/// no new actions, no stat movement. A regression here means a stale
/// timer can resurrect acked traffic or re-arm itself forever.
#[test]
fn stale_timers_are_no_ops_after_quiescence() {
    let mut rng = SimRng::new(0xB_CA57_4000);
    let plan = random_plan(&mut rng);
    let net = ReliableNet::new(Topology::full_mesh(3, SimDuration::from_millis(10)))
        .with_faults(FaultConfig::uniform(plan));
    let mut l = ChaosLoop::new(net, 0xB_CA57_4001);
    for k in 0..10u64 {
        for s in 0..3u32 {
            l.broadcast(SimTime::from_millis(k * 30 + s as u64), n(s), (s, k), 3);
        }
    }
    l.run(SimTime::from_secs(3_600));
    assert_eq!(l.net.pending_count(), 0, "loop must quiesce first");
    assert!(!l.timer_log.is_empty(), "the plan must have armed timers");

    let before = l.net.stats();
    let late = SimTime::from_secs(7_200);
    for &t in &l.timer_log {
        let acts = l.net.on_timer(late, t, &mut l.rng);
        assert!(
            acts.is_empty(),
            "stale timer {t:?} produced actions after quiescence"
        );
    }
    let after = l.net.stats();
    assert_eq!(
        before.retransmissions, after.retransmissions,
        "stale timers must not retransmit"
    );
    assert_eq!(
        before.transmissions, after.transmissions,
        "stale timers must not put packets on the wire"
    );
}

/// Chaos runs are deterministic: the same seed yields byte-identical
/// processing logs and fault statistics.
#[test]
fn same_seed_identical_chaos_run() {
    let run = |seed: u64| {
        let mut rng = SimRng::new(seed);
        let plan = random_plan(&mut rng);
        let net = ReliableNet::new(Topology::full_mesh(3, SimDuration::from_millis(10)))
            .with_faults(FaultConfig::uniform(plan));
        let mut l = ChaosLoop::new(net, seed ^ 0xFEED);
        for k in 0..15u64 {
            for s in 0..3u32 {
                l.broadcast(SimTime::from_millis(k * 30 + s as u64), n(s), (s, k), 3);
            }
        }
        l.run(SimTime::from_secs(3_600));
        (l.processed, l.net.stats())
    };
    let (p1, s1) = run(0xB_CA57_3000);
    let (p2, s2) = run(0xB_CA57_3000);
    assert_eq!(p1, p2);
    assert_eq!(s1.retransmissions, s2.retransmissions);
    assert_eq!(s1.fault_dropped, s2.fault_dropped);
    assert_eq!(s1.dup_dropped, s2.dup_dropped);
}
