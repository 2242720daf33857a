//! Property tests for the network substrate: eventual, exactly-once,
//! per-pair FIFO delivery under arbitrary link-flap/send interleavings,
//! and connected components under arbitrary link failures.
//!
//! Implemented as seeded randomized loops over [`SimRng`] rather than a
//! proptest harness so the suite builds with no external dependencies;
//! every case is reproducible from the printed seed.

use std::collections::{BTreeMap, BTreeSet};

use fragdb_model::NodeId;
use fragdb_net::{LinkState, NetAction, NetworkChange, ReliableNet, Topology};
use fragdb_sim::{SimDuration, SimRng, SimTime};

/// One step of a randomized delivery scenario.
#[derive(Debug, Clone)]
enum Step {
    Send { from: u32, to: u32, tag: u64 },
    LinkDown { a: u32, b: u32 },
    LinkUp { a: u32, b: u32 },
}

fn random_steps(rng: &mut SimRng, n: u32, count: usize) -> Vec<Step> {
    let mut steps = Vec::with_capacity(count);
    while steps.len() < count {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a == b {
            continue;
        }
        steps.push(match rng.gen_range(0..3u32) {
            0 => Step::Send {
                from: a,
                to: b,
                tag: rng.next_u64(),
            },
            1 => Step::LinkDown { a, b },
            _ => Step::LinkUp { a, b },
        });
    }
    steps
}

/// A miniature event loop driving one [`ReliableNet`]: packet arrivals
/// and retransmission timers in time order, every release recorded per
/// ordered pair.
struct Loop {
    net: ReliableNet<u64>,
    rng: SimRng,
    queue: BTreeMap<(SimTime, u64), NetAction<u64>>,
    seq: u64,
    released: BTreeMap<(NodeId, NodeId), Vec<u64>>,
}

impl Loop {
    fn push(&mut self, actions: Vec<NetAction<u64>>) {
        for a in actions {
            let at = match &a {
                NetAction::Deliver(t, _) | NetAction::Timer(t, _) => *t,
            };
            self.queue.insert((at, self.seq), a);
            self.seq += 1;
        }
    }

    /// Handle every action due at or before `limit`.
    fn run(&mut self, limit: SimTime) {
        while let Some((&(at, s), _)) = self.queue.iter().next() {
            if at > limit {
                break;
            }
            let acts = match self.queue.remove(&(at, s)).unwrap() {
                NetAction::Deliver(_, pd) => {
                    let (rel, acts) = self.net.on_packet(at, pd, &mut self.rng);
                    for d in rel {
                        self.released.entry((d.from, d.to)).or_default().push(d.msg);
                    }
                    acts
                }
                NetAction::Timer(_, t) => self.net.on_timer(at, t, &mut self.rng),
            };
            self.push(acts);
        }
    }
}

/// Whatever the interleaving of sends and link flaps, once all links
/// heal and the retransmission loops drain, every message is released
/// exactly once, per ordered pair in send order, and nothing is left
/// unacknowledged.
#[test]
fn reliable_net_delivers_everything_after_heal() {
    let mut repaired = 0;
    for case in 0..128u64 {
        let mut rng = SimRng::new(0x4E45_5400 + case);
        let count = rng.gen_range(1..80);
        let steps = random_steps(&mut rng, 4, count);

        let mut l = Loop {
            net: ReliableNet::new(Topology::full_mesh(4, SimDuration::from_millis(5))),
            rng,
            queue: BTreeMap::new(),
            seq: 0,
            released: BTreeMap::new(),
        };
        let mut now = SimTime::ZERO;
        let mut sent: BTreeMap<(NodeId, NodeId), Vec<u64>> = BTreeMap::new();

        for step in &steps {
            now += SimDuration::from_millis(1);
            l.run(now);
            match *step {
                Step::Send { from, to, tag } => {
                    let (f, t) = (NodeId(from), NodeId(to));
                    sent.entry((f, t)).or_default().push(tag);
                    let acts = l.net.send(now, f, t, tag, &mut l.rng);
                    l.push(acts);
                }
                Step::LinkDown { a, b } => l
                    .net
                    .apply_change(&NetworkChange::LinkDown(NodeId(a), NodeId(b))),
                Step::LinkUp { a, b } => l
                    .net
                    .apply_change(&NetworkChange::LinkUp(NodeId(a), NodeId(b))),
            }
        }
        now += SimDuration::from_millis(1);
        l.run(now);
        l.net.apply_change(&NetworkChange::HealAll);
        // Run until no action is left. The bound only turns a
        // retransmission loop that never stops into a failure, not a hang.
        l.run(now + SimDuration::from_secs(60));
        assert!(
            l.queue.is_empty(),
            "case {case}: the layer was still busy 60 s after the heal"
        );

        assert_eq!(
            l.released, sent,
            "case {case}: a pair lost, duplicated or reordered"
        );
        assert_eq!(
            l.net.pending_count(),
            0,
            "case {case}: nothing may stay unacknowledged"
        );
        repaired += l.net.stats().retransmissions;
    }
    assert!(
        repaired > 0,
        "no flap ever cut a send off: the property is vacuous"
    );
}

/// Components always partition the node set (every node in exactly one
/// component), whatever the link state.
#[test]
fn components_partition_the_nodes() {
    for case in 0..128u64 {
        let mut rng = SimRng::new(0x434F_4D50 + case);
        let topo = Topology::full_mesh(5, SimDuration::from_millis(1));
        let mut state = LinkState::all_up();
        for _ in 0..rng.gen_range(0..12usize) {
            let a = rng.gen_range(0..5u32);
            let b = rng.gen_range(0..5u32);
            if a != b {
                NetworkChange::LinkDown(NodeId(a), NodeId(b)).apply(&mut state);
            }
        }
        let comps = topo.components(&state);
        let mut seen = BTreeSet::new();
        for comp in &comps {
            for &n in comp {
                assert!(seen.insert(n), "case {case}: node {n} in two components");
            }
        }
        assert_eq!(seen.len(), 5, "case {case}");
        // Connectivity is consistent with the components.
        for comp in &comps {
            for &a in comp {
                for &b in comp {
                    assert!(topo.connected(a, b, &state), "case {case}");
                }
            }
        }
    }
}
