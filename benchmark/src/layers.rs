//! Layer drivers: the per-layer ledger, measured from outside.
//!
//! `System::handle` calls the engine, the route cache, the reliable layer,
//! the broadcast layer, storage, the history and telemetry with no boundary
//! a benchmark can time. Each driver here replays the operation counts a
//! workload was observed to make through that one layer's public API, at the
//! workload's shape (node count, links in use, pending population, fault
//! plan), and times the real calls. What the loop took beyond the sum of the
//! drivers is `core.residual_s`: the estimate of `core`'s own glue. It is an
//! estimate; an in-program ledger replaces the drivers later and keeps the
//! names.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

use fragdb_model::{
    FragmentId, History, NodeId, ObjectId, OpKind, QuasiTransaction, TxnId, TxnType, Updates, Value,
};
use fragdb_net::{BroadcastLayer, NetAction, NetworkChange, ReliableNet, RouteCache, Topology};
use fragdb_sim::telemetry::{CausalId, TelemetryEvent};
use fragdb_sim::{Engine, Metrics, SimDuration, SimRng, SimTime, Telemetry};
use fragdb_storage::{LockManager, LockMode, Replica};

use crate::rep::{get, Record};
use crate::spec::{self, Shape, Workload};

/// The directed links that carry the workload's data, in the order a
/// broadcast walks them: home → each replica, home by home. Acks flow back
/// along their reverses.
fn links(workload: Workload, shape: &Shape) -> Vec<(NodeId, NodeId)> {
    let n = shape.nodes;
    let mut out = Vec::new();
    match workload {
        Workload::WideMesh | Workload::DenseFew => {
            for f in 0..shape.fragments.min(n) {
                out.extend(
                    (0..n)
                        .filter(|&to| to != f)
                        .map(|to| (NodeId(f), NodeId(to))),
                );
            }
        }
        // Replica sets of three: the home feeds its two neighbours.
        Workload::Rf3Wide => {
            for f in 0..shape.fragments {
                out.extend((1..3).map(|k| (NodeId(f % n), NodeId((f + k) % n))));
            }
        }
        // Mostly full replication, and heartbeats between every pair.
        Workload::ChaosObserved => {
            for from in 0..n {
                out.extend(
                    (0..n)
                        .filter(|&to| to != from)
                        .map(|to| (NodeId(from), NodeId(to))),
                );
            }
        }
    }
    out
}

fn count(rec: &Record, key: &str) -> u64 {
    get(rec, key) as u64
}

/// Seconds one call took; its result is kept from the optimizer.
fn timed<T>(f: impl FnOnce() -> T) -> f64 {
    let t = Instant::now();
    black_box(f());
    t.elapsed().as_secs_f64()
}

fn per(busy_s: f64, ops: u64) -> f64 {
    if ops == 0 {
        0.0
    } else {
        busy_s * 1e9 / ops as f64
    }
}

/// Run every driver for one workload. `rec` is an untraced repetition's
/// record (the operation counts); `telemetry_records` is how many telemetry
/// events the run emits with telemetry on. Returns the drivers' metrics.
pub fn drive(
    workload: Workload,
    shape: &Shape,
    seed: u64,
    rec: &Record,
    telemetry_records: u64,
) -> Record {
    let mut out = Record::new();
    let mut put = |k: &str, v: f64| {
        out.insert(k.to_string(), v);
    };
    let horizon = SimDuration((shape.arrivals as f64 / shape.rate * 1e6) as u64);
    let links = links(workload, shape);
    let commits = count(rec, "commits");
    let installs = count(rec, "installs");

    // sim.engine
    let events = count(rec, "events");
    let population = shape.arrivals.max(count(rec, "peak_pending") / 2);
    let busy = timed(|| engine(seed, events, population, horizon));
    put("sim.engine.busy_s", busy);
    put("sim.engine.ns_per_event", per(busy, events));

    // net.topology: one route lookup per packet put on the wire.
    let lookups = count(rec, "net.transmissions") + count(rec, "net.acks_sent");
    let topo = Topology::jittered_mesh(
        shape.nodes,
        spec::LINK_BASE,
        spec::LINK_JITTER,
        seed ^ spec::TOPOLOGY_SALT,
    );
    let mut cache = RouteCache::new();
    let routes_s = timed(|| routes(&mut cache, &topo, &links, lookups));
    let warm_routes_s = timed(|| routes(&mut cache, &topo, &links, lookups));
    put("net.topology.lookups", lookups as f64);
    put("net.topology.busy_s", routes_s);
    put("net.topology.ns_per_lookup", per(routes_s, lookups));

    // net.reliable
    let sent = count(rec, "net.sent");
    let fanout = (sent / commits.max(1)).max(1);
    // The timed pass of the replay finds its routes cached; what those
    // lookups still cost is the topology layer's, already counted above.
    let busy = (reliable(workload, shape, seed, topo, &links, sent, fanout, horizon)
        - warm_routes_s)
        .max(0.0);
    let msgs = count(rec, "net.transmissions");
    put("net.reliable.busy_s", busy);
    put("net.reliable.ns_per_msg", per(busy, msgs));

    // net.broadcast
    let delivered = count(rec, "net.delivered");
    let busy = timed(|| broadcast(&links, delivered));
    put("net.broadcast.busy_s", busy);
    put("net.broadcast.ns_per_msg", per(busy, delivered));

    // storage.replica
    let (commit_s, install_s) = storage(shape, commits, installs);
    put("storage.replica.busy_s", commit_s + install_s);
    put("storage.replica.ns_per_commit", per(commit_s, commits));
    put("storage.replica.ns_per_install", per(install_s, installs));

    // storage.locks: only the §4.1 fragment of chaos-observed takes any,
    // a shared one at the foreign home and an exclusive one at its own.
    let acquires = if workload == Workload::ChaosObserved {
        2 * commits / u64::from(shape.fragments)
    } else {
        0
    };
    let busy = timed(|| locks(shape, acquires.max(1_000)));
    let ns_per_acquire = per(busy, acquires.max(1_000));
    put("storage.locks.ns_per_acquire", ns_per_acquire);
    put(
        "storage.locks.busy_s",
        ns_per_acquire * acquires as f64 / 1e9,
    );

    // model.history
    let ops = count(rec, "history_len");
    let busy = timed(|| history(shape, ops, installs));
    put("model.history.busy_s", busy);
    put("model.history.ns_per_op", per(busy, ops));

    // sim.telemetry: what recording the run's events costs when it is on.
    let busy = timed(|| telemetry(shape, telemetry_records, commits));
    put("sim.telemetry.busy_s", busy);
    put("sim.telemetry.ns_per_record", per(busy, telemetry_records));

    out
}

/// `events` schedule/pop pairs around a pending population like the run's:
/// `population` events are scheduled up front over the horizon (the run
/// schedules every arrival before it starts), and every pop schedules
/// follow-ups one link delay out until the total is reached.
fn engine(seed: u64, events: u64, population: u64, horizon: SimDuration) -> u64 {
    let mut engine: Engine<u64> = Engine::new(seed);
    let population = population.min(events).max(1);
    for i in 0..population {
        engine.schedule_at(SimTime(i * horizon.0 / population), i);
    }
    let follow_ups = events.saturating_sub(population) as f64 / events.max(1) as f64;
    let (mut credit, mut sum) = (0.0, 0u64);
    while let Some((_, payload)) = engine.pop() {
        sum = sum.wrapping_add(payload);
        credit += follow_ups;
        while credit >= 1.0 {
            credit -= 1.0;
            engine.schedule(spec::LINK_BASE, payload);
        }
    }
    sum
}

/// `lookups` cached route lookups over the links in use, data direction and
/// ack direction alternating. On a fresh cache the Dijkstra fills are in the
/// time, as they are in the run; walked a second time, only the lookups are.
fn routes(
    cache: &mut RouteCache,
    topo: &Topology,
    links: &[(NodeId, NodeId)],
    lookups: u64,
) -> u64 {
    let state = fragdb_net::LinkState::all_up();
    let pairs = links
        .iter()
        .flat_map(|&(from, to)| [(from, to), (to, from)])
        .cycle()
        .take(if links.is_empty() {
            0
        } else {
            lookups as usize
        });
    let mut sum = 0u64;
    for (a, b) in pairs {
        if let Some(d) = cache.path_delay(topo, &state, a, b) {
            sum = sum.wrapping_add(d.0);
        }
    }
    sum
}

/// A network action waiting in the replay's own queue; `seq` keeps equal
/// instants in issue order.
struct Due {
    at: SimTime,
    seq: u64,
    action: NetAction<u64>,
}

impl PartialEq for Due {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for Due {}
impl PartialOrd for Due {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Due {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A `ReliableNet` of its own plus the queue that stands in for the engine.
/// Only the calls into the layer are timed (`busy_s`), never the queue.
struct ReliableReplay {
    net: ReliableNet<u64>,
    rng: SimRng,
    queue: BinaryHeap<Reverse<Due>>,
    seq: u64,
    busy_s: f64,
}

impl ReliableReplay {
    fn enqueue(&mut self, actions: Vec<NetAction<u64>>) {
        for action in actions {
            let at = match &action {
                NetAction::Deliver(at, _) | NetAction::Timer(at, _) => *at,
            };
            self.seq += 1;
            self.queue.push(Reverse(Due {
                at,
                seq: self.seq,
                action,
            }));
        }
    }

    /// Feed everything due up to `until` back into the layer: deliveries
    /// draw acks, acks drain windows, timers retransmit what is unacked.
    fn settle(&mut self, until: SimTime) {
        loop {
            let mut batch = Vec::new();
            while self.queue.peek().is_some_and(|Reverse(d)| d.at <= until) {
                batch.push(self.queue.pop().expect("peeked").0);
            }
            if batch.is_empty() {
                return;
            }
            let mut produced = Vec::new();
            let t = Instant::now();
            for due in batch {
                match due.action {
                    NetAction::Deliver(_, delivery) => {
                        let (released, actions) =
                            self.net.on_packet(due.at, delivery, &mut self.rng);
                        black_box(released);
                        produced.extend(actions);
                    }
                    NetAction::Timer(_, timer) => {
                        produced.extend(self.net.on_timer(due.at, timer, &mut self.rng));
                    }
                }
            }
            self.busy_s += t.elapsed().as_secs_f64();
            self.enqueue(produced);
        }
    }

    fn send_burst(&mut self, now: SimTime, pairs: &[(NodeId, NodeId)], payload: u64) {
        let mut produced = Vec::new();
        let t = Instant::now();
        for &(from, to) in pairs {
            produced.extend(self.net.send(now, from, to, payload, &mut self.rng));
        }
        self.busy_s += t.elapsed().as_secs_f64();
        self.enqueue(produced);
    }
}

/// `sent` messages through a reliable layer of its own, under the
/// workload's fault plan and (for chaos-observed) its partition: bursts of
/// `fanout` sends spread over the horizon, every delivery, ack and
/// retransmission timer fed back in time order.
///
/// The layer looks its routes up itself, one per packet, and on 1024 nodes
/// the cold fills of its route cache dwarf everything else it does. Those
/// belong to `net.topology`. So the replay runs twice over the same layer:
/// the first pass fills the cache and is not timed, the second is. What the
/// second pass still spends on (warm) lookups the caller subtracts.
#[allow(clippy::too_many_arguments)]
fn reliable(
    workload: Workload,
    shape: &Shape,
    seed: u64,
    topo: Topology,
    links: &[(NodeId, NodeId)],
    sent: u64,
    fanout: u64,
    horizon: SimDuration,
) -> f64 {
    if sent == 0 || links.is_empty() {
        return 0.0;
    }
    let mut replay = ReliableReplay {
        net: ReliableNet::new(topo).with_faults(spec::config(workload, shape, seed).faults),
        rng: SimRng::new(seed),
        queue: BinaryHeap::new(),
        seq: 0,
        busy_s: 0.0,
    };
    let bursts = sent.div_ceil(fanout);
    let chaos = workload == Workload::ChaosObserved;
    let pass_length = horizon + shape.drain;
    let mut start = SimTime::ZERO;
    for _pass in 0..2 {
        replay.busy_s = 0.0;
        let mut next_link = 0usize;
        let mut remaining = sent;
        let (mut split, mut healed) = (false, false);
        for burst in 0..bursts {
            let offset = SimDuration(burst * horizon.0 / bursts);
            let now = start + offset;
            if chaos && !split && SimTime::ZERO + offset >= spec::PARTITION_FROM {
                split = true;
                replay
                    .net
                    .apply_change(&NetworkChange::Split(spec::partition_groups(shape)));
            }
            if chaos && !healed && SimTime::ZERO + offset >= spec::PARTITION_UNTIL {
                healed = true;
                replay.net.apply_change(&NetworkChange::HealAll);
            }
            replay.settle(now);
            let this = fanout.min(remaining);
            remaining -= this;
            let pairs: Vec<(NodeId, NodeId)> = (0..this)
                .map(|k| links[(next_link + k as usize) % links.len()])
                .collect();
            next_link = (next_link + this as usize) % links.len();
            replay.send_burst(now, &pairs, burst);
        }
        if split && !healed {
            replay.net.apply_change(&NetworkChange::HealAll);
        }
        start += pass_length;
        replay.settle(start);
    }
    black_box(replay.net.stats());
    replay.busy_s
}

/// One stamp at the sender and one in-order accept at the receiver per
/// delivered message, over the links in use.
fn broadcast(links: &[(NodeId, NodeId)], delivered: u64) -> u64 {
    if links.is_empty() {
        return 0;
    }
    let mut layer: BroadcastLayer<u64> = BroadcastLayer::new();
    let mut released = 0u64;
    for i in 0..delivered {
        let (from, to) = links[(i % links.len() as u64) as usize];
        let stamp = layer.stamp_for(from, to);
        released += layer.accept(to, from, stamp, i).len() as u64;
    }
    released
}

/// `commits` local commits at the homes and `installs` remote installs
/// spread over one replica per node, one written object each. Returns
/// `(commit seconds, install seconds)`.
fn storage(shape: &Shape, commits: u64, installs: u64) -> (f64, f64) {
    let objects = u64::from(shape.fragments) * u64::from(shape.objects);
    let mut replicas: Vec<Replica> = (0..shape.nodes).map(|n| Replica::new(NodeId(n))).collect();
    let quasi = |i: u64| {
        let fragment = FragmentId((i % u64::from(shape.fragments)) as u32);
        let home = NodeId(fragment.0 % shape.nodes);
        QuasiTransaction {
            txn: TxnId::new(home, i),
            fragment,
            frag_seq: i / u64::from(shape.fragments),
            epoch: 0,
            updates: Updates::new(vec![(ObjectId(i % objects), Value::Int(i as i64))]),
        }
    };
    let at = SimTime::ZERO;
    let t = Instant::now();
    for i in 0..commits {
        let q = quasi(i);
        replicas[q.origin().0 as usize]
            .commit_local(q.txn, q.fragment, q.frag_seq, q.epoch, q.updates, at);
    }
    let commit_s = t.elapsed().as_secs_f64();
    // Installs of one commit go to different nodes; walk the nodes so each
    // replica's log grows as it does in the run.
    let per_commit = (installs / commits.max(1)).max(1);
    let t = Instant::now();
    let mut done = 0u64;
    let mut i = 0u64;
    while done < installs {
        let q = quasi(i);
        for k in 0..per_commit.min(installs - done) {
            let node = (u64::from(q.origin().0) + 1 + k) % u64::from(shape.nodes);
            replicas[node as usize].install_quasi(&q, at);
            done += 1;
        }
        i += 1;
    }
    let install_s = t.elapsed().as_secs_f64();
    black_box(replicas.len());
    (commit_s, install_s)
}

/// `acquires` lock acquisitions, a shared and an exclusive one per
/// transaction, each transaction releasing before the next begins.
fn locks(shape: &Shape, acquires: u64) -> u64 {
    let mut manager = LockManager::new();
    let mut released = 0u64;
    for i in 0..acquires / 2 {
        let txn = TxnId::new(NodeId(0), i);
        black_box(manager.acquire(txn, ObjectId(0), LockMode::Shared));
        let own = ObjectId(1 + i % u64::from(shape.objects));
        black_box(manager.acquire(txn, own, LockMode::Exclusive));
        released += manager.release_all(txn).len() as u64;
    }
    released
}

/// `ops` history records: `installs` install records, the rest local reads
/// and writes.
fn history(shape: &Shape, ops: u64, installs: u64) -> usize {
    let mut history = History::new();
    let objects = u64::from(shape.fragments) * u64::from(shape.objects);
    for i in 0..ops {
        let fragment = FragmentId((i % u64::from(shape.fragments)) as u32);
        let node = NodeId((i % u64::from(shape.nodes)) as u32);
        let txn = TxnId::new(node, i);
        let object = ObjectId(i % objects);
        let at = SimTime(i);
        if i < installs {
            history.record_install(node, txn, TxnType::Update(fragment), object, at);
        } else {
            let kind = if i % 2 == 0 {
                OpKind::Read
            } else {
                OpKind::Write
            };
            history.record_local(node, txn, TxnType::Update(fragment), kind, object, at);
        }
    }
    history.len()
}

/// `records` telemetry events into a ring as large as the run's: per
/// commit one `Committed`, the rest `Installed` joined to it by the probes.
fn telemetry(shape: &Shape, records: u64, commits: u64) -> usize {
    if records == 0 {
        return 0;
    }
    let mut telemetry = Telemetry::bounded(records as usize);
    let mut metrics = Metrics::new();
    let per_commit = (records / commits.max(1)).max(1);
    let mut done = 0u64;
    let mut i = 0u64;
    while done < records {
        let cause = CausalId {
            fragment: (i % u64::from(shape.fragments)) as u32,
            epoch: 0,
            frag_seq: i / u64::from(shape.fragments),
        };
        let at = SimTime(i * 10);
        let home = cause.fragment % shape.nodes;
        telemetry.record(
            at,
            TelemetryEvent::Committed {
                cause,
                node: home,
                txn_seq: i,
            },
            &mut metrics,
        );
        done += 1;
        for k in 1..per_commit.min(records - done + 1) {
            let node = ((u64::from(home) + k) % u64::from(shape.nodes)) as u32;
            telemetry.record(
                at + spec::LINK_BASE,
                TelemetryEvent::Installed { cause, node },
                &mut metrics,
            );
            done += 1;
        }
        i += 1;
    }
    telemetry.len()
}
