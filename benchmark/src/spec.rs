//! The four workloads: their shapes, how the system under test is built for
//! each, the client that turns arrivals into submissions, and the fault
//! schedule of `chaos-observed`.
//!
//! Everything the run seed reaches is here: the link jitter of the mesh, the
//! engine's RNG (which rolls the injected link faults) and the arrival
//! stream. Nothing else in the benchmark reads it.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use fragdb_check::{admit, AdmissionPolicy, CheckInput, ClassDecl, Code, Severity};
use fragdb_core::{
    AbortReason, BatchConfig, DetectorConfig, MovePolicy, StrategyKind, Submission, System,
    SystemConfig,
};
use fragdb_model::{AgentId, FragmentCatalog, FragmentId, NodeId, ObjectId, TxnId, UserId};
use fragdb_net::{FaultConfig, FaultPlan, PartitionSchedule, Topology};
use fragdb_sim::{SimDuration, SimRng, SimTime, Telemetry};
use fragdb_workloads::{OpenLoop, OpenLoopConfig};

use crate::trace::{SpanId, Tracer};

/// Injected link delay, stated once: a full mesh whose every link is
/// 10 ms ± 1 ms, drawn from a stream seeded by the run seed.
pub const LINK_BASE: SimDuration = SimDuration(10_000);
pub const LINK_JITTER: SimDuration = SimDuration(1_000);

/// The mesh draws its jitter from a stream of its own, so link layout never
/// perturbs the engine or the arrivals.
pub const TOPOLOGY_SALT: u64 = 0x11_77_e7_ed;
/// The arrival stream's own salt, likewise.
const ARRIVAL_SALT: u64 = 0x5ca1_ab1e;

/// Zipf population and skew of the issuing users.
const USERS: u64 = 1_000_000;
const THETA: f64 = 0.99;

/// How long the client waits before sending again an update that aborted as
/// unavailable (home down, no majority, lock wait timed out).
const RETRY_BACKOFF: SimDuration = SimDuration(250_000);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    WideMesh,
    DenseFew,
    Rf3Wide,
    ChaosObserved,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::WideMesh,
        Workload::DenseFew,
        Workload::Rf3Wide,
        Workload::ChaosObserved,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WideMesh => "wide-mesh",
            Workload::DenseFew => "dense-few",
            Workload::Rf3Wide => "rf3-wide",
            Workload::ChaosObserved => "chaos-observed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Admission errors the workload commits on purpose. `rf3-wide` turns
    /// the failure detector on with nothing for it to protect (FDB050): the
    /// heartbeats that buy nothing are the cost it is there to measure.
    pub fn admitted_errors(self) -> &'static [Code] {
        match self {
            Workload::Rf3Wide => &[Code::Fdb050],
            _ => &[],
        }
    }

    /// Sizes are for a 2-core box, one thread, whose host switches every ten
    /// to forty seconds between a state in which this simulator runs at full
    /// speed and one in which it runs a quarter slower. A timed section of
    /// about two seconds fits inside one state and a run of a dozen of them
    /// sees the fast one, which is why a run reports its second-best
    /// repetition and not the median. `wide-mesh` cannot be that short: its
    /// route cache takes eight seconds to fill whatever the load. The mini
    /// shapes are what `check` runs under the slower batch oracle.
    pub fn shape(self, mini: bool) -> Shape {
        match self {
            // Fan-out does the work: 1023 route lookups, reliable sends,
            // acks and installs per commit. 300 arrivals, not the issue's
            // 200: a replica's store grows with the distinct objects
            // written, 200 Zipf arrivals write 123 ± 5 of the 256, and the
            // seeds that pass 128 double the store of all 1024 replicas at
            // once (9 MB, one seed in six). 300 write 158 ± 6, always past
            // it, so peak memory is a function of the program, not of the
            // seed.
            Workload::WideMesh => Shape {
                nodes: if mini { 128 } else { 1024 },
                fragments: 8,
                objects: 32,
                rate: 50.0,
                arrivals: if mini { 64 } else { 300 },
                read_every: 0,
                drain: SimDuration::from_secs(5),
                telemetry: false,
            },
            // Engine density, exec, storage commit and history do the work;
            // fan-out almost none. Every fifth rank reads, so a write-path
            // gain that taxes reads shows.
            Workload::DenseFew => Shape {
                nodes: 4,
                fragments: 8,
                objects: 32,
                rate: 20_000.0,
                arrivals: if mini { 8_000 } else { 80_000 },
                read_every: 5,
                drain: SimDuration::from_secs(5),
                telemetry: false,
            },
            // The control for wide-mesh: same width, fan-out bypassed by
            // replica sets of three, and every off-by-default flag on.
            Workload::Rf3Wide => Shape {
                nodes: if mini { 128 } else { 1024 },
                fragments: 64,
                objects: 32,
                rate: 10_000.0,
                arrivals: if mini { 16_000 } else { 160_000 },
                read_every: 0,
                drain: SimDuration::from_secs(5),
                telemetry: false,
            },
            // The same layers used differently: retransmit, hold-back,
            // anti-entropy and election instead of the clean path, with
            // telemetry, span reconstruction and the verdict in the run.
            Workload::ChaosObserved => Shape {
                nodes: 16,
                fragments: 8,
                objects: 32,
                rate: if mini { 100.0 } else { 1_000.0 },
                arrivals: if mini { 3_000 } else { 30_000 },
                read_every: 4,
                // The two majority-commit fragments take one commit per
                // round trip, fewer than the 94/s they are offered, so their
                // queues grow while arrivals last and need about as long
                // again to empty; the drain runs to 150 s of virtual time.
                drain: SimDuration::from_secs(120),
                telemetry: true,
            },
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub nodes: u32,
    pub fragments: u32,
    /// Objects per fragment.
    pub objects: u32,
    /// Arrivals per second of virtual time (Poisson, open loop).
    pub rate: f64,
    /// The run takes exactly the first `arrivals` of the stream, so the
    /// amount of work does not vary with the seed.
    pub arrivals: u64,
    /// Ranks with `rank % read_every == read_every - 1` are read-only;
    /// 0 means every arrival is an update.
    pub read_every: u64,
    /// Virtual time the system is given after the last arrival.
    pub drain: SimDuration,
    /// Whether the timed repetitions run with telemetry on.
    pub telemetry: bool,
}

/// `chaos-observed`: when things break. Homes are nodes 0–7.
const CRASH_NODE: NodeId = NodeId(4);
const CRASH_AT: SimTime = SimTime(3_000_000);
pub const PARTITION_FROM: SimTime = SimTime(4_000_000);
pub const PARTITION_UNTIL: SimTime = SimTime(6_000_000);
const RECOVER_AT: SimTime = SimTime(8_000_000);
const MOVE_AT: SimTime = SimTime(12_000_000);
const MOVE_FRAGMENT: u32 = 6;
const MOVE_TO: NodeId = NodeId(8);
const LOCK_FRAGMENT: u32 = 7;

/// Is `n` an end of a lossy link? Links with both ends here drop 5 %,
/// duplicate 2 % and add up to 2 ms; every other link is clean.
fn lossy_end(n: u32) -> bool {
    n <= 3 || n >= 10
}

/// The two sides of the partition: the homes' half and the far half.
pub fn partition_groups(shape: &Shape) -> Vec<Vec<NodeId>> {
    let half = shape.nodes / 2;
    vec![
        (0..half).map(NodeId).collect(),
        (half..shape.nodes).map(NodeId).collect(),
    ]
}

/// The system under test plus what setting it up cost, part by part.
pub struct Built {
    pub sys: System,
    pub client: Client,
    /// The virtual instant of the last arrival.
    pub last_arrival: SimTime,
    /// How many of the arrivals read.
    pub read_arrivals: u64,
    pub topology_s: f64,
    pub admission_s: f64,
    pub build_s: f64,
    pub generate_s: f64,
}

/// Set up one repetition: topology, admission, `System::build`, arrival
/// generation and `submit_at`. `telemetry` overrides the shape's default
/// (the observed pass flips it).
pub fn build(
    workload: Workload,
    shape: &Shape,
    seed: u64,
    telemetry: bool,
    tracer: &mut Tracer,
    parent: SpanId,
) -> Built {
    let (topo, topology_s) = tracer.time("topology", Some(parent), || {
        Topology::jittered_mesh(shape.nodes, LINK_BASE, LINK_JITTER, seed ^ TOPOLOGY_SALT)
    });

    let mut b = FragmentCatalog::builder();
    let frags: Vec<(FragmentId, Vec<ObjectId>)> = (0..shape.fragments)
        .map(|f| b.add_fragment(format!("F{f}"), shape.objects as usize))
        .collect();
    let catalog = b.build();
    let home = |f: FragmentId| NodeId(f.0 % shape.nodes);
    let agents: Vec<(FragmentId, AgentId, NodeId)> = frags
        .iter()
        .map(|&(f, _)| {
            // A node agent cannot leave its node; the fragment that moves
            // belongs to a user.
            let agent = if workload == Workload::ChaosObserved && f.0 == MOVE_FRAGMENT {
                AgentId::User(UserId(0))
            } else {
                AgentId::Node(home(f))
            };
            (f, agent, home(f))
        })
        .collect();
    let config = config(workload, shape, seed);
    let classes = classes(workload, &frags);

    let (report, admission_s) = tracer.time("admission", Some(parent), || {
        admit(
            &CheckInput {
                topology: &topo,
                catalog: &catalog,
                agents: &agents,
                classes: &classes,
                config: &config,
            },
            AdmissionPolicy::Warn,
        )
        .expect("the Warn policy refuses nothing")
    });
    // Admission must find nothing wrong beyond what the workload states it
    // does on purpose.
    for d in report.diagnostics() {
        assert!(
            d.severity != Severity::Error || workload.admitted_errors().contains(&d.code),
            "{} must pass admission: {}: {}",
            workload.name(),
            d.code.as_str(),
            d.message
        );
    }

    let span = tracer.open("build", Some(parent));
    let mut sys = System::build(topo, catalog, agents, config)
        .unwrap_or_else(|e| panic!("{} must build: {e}", workload.name()));
    if telemetry {
        // Room for every event of the run: a commit fans out to about two
        // events per replica plus a handful of lifecycle events.
        let per_commit = 2 * u64::from(shape.nodes) + 16;
        sys.engine.telemetry = Telemetry::bounded((shape.arrivals * per_commit * 2) as usize);
    }
    if workload == Workload::ChaosObserved {
        sys.crash_at(CRASH_AT, CRASH_NODE);
        sys.recover_at(RECOVER_AT, CRASH_NODE);
        sys.schedule_partitions(&PartitionSchedule::none().split_between(
            PARTITION_FROM,
            PARTITION_UNTIL,
            partition_groups(shape),
        ));
        sys.move_agent_at(MOVE_AT, FragmentId(MOVE_FRAGMENT), MOVE_TO);
    }
    let build_s = tracer.close(span);

    let span = tracer.open("generate", Some(parent));
    let client = Client {
        workload,
        shape: *shape,
        frags,
        book: Rc::default(),
    };
    let mut rng = SimRng::new(seed ^ ARRIVAL_SALT);
    let mut open = OpenLoop::new(
        OpenLoopConfig {
            users: USERS,
            theta: THETA,
            rate_per_sec: shape.rate,
            start: SimTime::ZERO,
            // The stream is cut by count, not by time.
            horizon: SimTime(u64::MAX / 2),
        },
        &mut rng,
    );
    let (mut last_arrival, mut read_arrivals) = (SimTime::ZERO, 0);
    for _ in 0..shape.arrivals {
        let a = open
            .next_arrival(&mut rng)
            .expect("the stream has no horizon");
        // Every arrival is scheduled at its due instant before the loop
        // starts, so the generator is never late.
        sys.submit_at(a.at, client.arrival(a.user));
        last_arrival = a.at;
        read_arrivals += u64::from(client.reads(a.user));
    }
    let generate_s = tracer.close(span);

    Built {
        sys,
        client,
        last_arrival,
        read_arrivals,
        topology_s,
        admission_s,
        build_s,
        generate_s,
    }
}

pub fn config(workload: Workload, shape: &Shape, seed: u64) -> SystemConfig {
    let base = SystemConfig::unrestricted(seed);
    let detector = DetectorConfig::period(SimDuration::from_millis(500))
        .with_election_timeout(SimDuration::from_secs(2));
    match workload {
        Workload::WideMesh | Workload::DenseFew => base,
        Workload::Rf3Wide => (0..shape.fragments)
            .fold(base, |c, f| {
                c.with_replica_set(FragmentId(f), (0..3).map(|k| NodeId((f + k) % shape.nodes)))
            })
            .with_detector(detector)
            .with_batching(BatchConfig::window(8)),
        Workload::ChaosObserved => {
            let majority = MovePolicy::MajorityCommit {
                timeout: SimDuration::from_secs(5),
            };
            let plan = FaultPlan::new(0.05, 0.02, SimDuration::from_millis(2));
            let mut faults = FaultConfig::clean();
            for a in (0..shape.nodes).filter(|&n| lossy_end(n)) {
                for b in (0..shape.nodes).filter(|&n| lossy_end(n) && n != a) {
                    faults = faults.with_link(NodeId(a), NodeId(b), plan);
                }
            }
            base.with_fragment_move_policy(FragmentId(4), majority.clone())
                .with_replica_set(FragmentId(4), (4..=8).map(NodeId))
                .with_fragment_move_policy(FragmentId(5), majority)
                .with_replica_set(FragmentId(5), (5..=9).map(NodeId))
                .with_fragment_move_policy(FragmentId(MOVE_FRAGMENT), MovePolicy::WithSeqNo)
                .with_fragment_strategy(
                    FragmentId(LOCK_FRAGMENT),
                    StrategyKind::ReadLocks {
                        timeout: SimDuration::from_secs(2),
                    },
                )
                .with_detector(detector)
                .with_faults(faults)
        }
    }
}

fn classes(workload: Workload, frags: &[(FragmentId, Vec<ObjectId>)]) -> Vec<ClassDecl> {
    let mut out = Vec::new();
    for &(f, _) in frags {
        let reads = if workload == Workload::ChaosObserved && f.0 == LOCK_FRAGMENT {
            vec![f, FragmentId(0)]
        } else {
            vec![f]
        };
        out.push(ClassDecl::update(format!("bump({})", f.0), f, reads));
        out.push(ClassDecl::read_only(format!("peek({})", f.0), f, [f]));
    }
    out
}

/// An update the client has sent: which object of which fragment, as indices
/// into the catalog.
type Op = (usize, usize);

/// What the client remembers of the updates in flight, so that it can send
/// the same one again. `Aborted` names a transaction, not a submission: a
/// program that ran files its update under the id it ran as, and a program
/// the system dropped without running hands its update back as it is dropped.
#[derive(Default)]
struct InFlight {
    ran: BTreeMap<TxnId, Op>,
    unrun: Vec<Op>,
}

/// Travels inside an update's program.
struct Ticket {
    op: Op,
    ran: bool,
    book: Rc<RefCell<InFlight>>,
}

impl Ticket {
    fn ran_as(&mut self, txn: TxnId) {
        self.ran = true;
        self.book.borrow_mut().ran.insert(txn, self.op);
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        if !self.ran {
            self.book.borrow_mut().unrun.push(self.op);
        }
    }
}

/// Turns arrivals into submissions, and sends an update again when the
/// system answers that it was unavailable.
pub struct Client {
    workload: Workload,
    shape: Shape,
    frags: Vec<(FragmentId, Vec<ObjectId>)>,
    book: Rc<RefCell<InFlight>>,
}

impl Client {
    /// Whether the user with Zipf rank `rank` reads.
    pub fn reads(&self, rank: u64) -> bool {
        let every = self.shape.read_every;
        every > 0 && rank % every == every - 1
    }

    /// The submission of the user with Zipf rank `rank`. Ranks fold onto
    /// fragments round-robin first, so the hottest users land on distinct
    /// fragments and every fragment sees a skewed key space.
    pub fn arrival(&self, rank: u64) -> Submission {
        let fi = (rank % u64::from(self.shape.fragments)) as usize;
        let oi =
            ((rank / u64::from(self.shape.fragments)) % u64::from(self.shape.objects)) as usize;
        if self.reads(rank) {
            self.read(fi, oi, rank)
        } else {
            self.update((fi, oi))
        }
    }

    fn update(&self, op: Op) -> Submission {
        let (frag, ref objs) = self.frags[op.0];
        let obj = objs[op.1];
        let mut ticket = Ticket {
            op,
            ran: false,
            book: Rc::clone(&self.book),
        };
        if self.workload == Workload::ChaosObserved && frag.0 == LOCK_FRAGMENT {
            // §4.1: the read of another fragment is declared, locked at
            // that fragment's home, and only then does the update run.
            let foreign = self.frags[0].1[0];
            return Submission::update_reading(
                frag,
                vec![foreign],
                Box::new(move |ctx| {
                    ticket.ran_as(ctx.txn());
                    let seen = ctx.read_int(foreign, 0);
                    let v = ctx.read_int(obj, 0);
                    ctx.write(obj, v + 1 + (seen & 1))?;
                    Ok(())
                }),
            );
        }
        Submission::update(
            frag,
            Box::new(move |ctx| {
                ticket.ran_as(ctx.txn());
                let v = ctx.read_int(obj, 0);
                ctx.write(obj, v + 1)?;
                Ok(())
            }),
        )
    }

    fn read(&self, fi: usize, oi: usize, rank: u64) -> Submission {
        let (frag, ref objs) = self.frags[fi];
        let obj = objs[oi];
        let nodes = u64::from(self.shape.nodes);
        let node = match self.workload {
            // Readers sit on the far side of the partition, at nodes that
            // never crash: they read stale data while it lasts, which is
            // the paper's availability. The two partially replicated
            // fragments are read at the one far-side node that holds both.
            Workload::ChaosObserved if frag.0 == 4 || frag.0 == 5 => 8,
            Workload::ChaosObserved => nodes / 2 + (rank / 7) % (nodes / 2),
            _ => (rank / 7) % nodes,
        };
        Submission::read_only(
            frag,
            Box::new(move |ctx| {
                ctx.read_int(obj, 0);
                Ok(())
            }),
        )
        .at(NodeId(node as u32))
    }

    /// The update that ran as `txn` committed: it is no longer in flight.
    pub fn on_commit(&self, txn: TxnId) {
        self.book.borrow_mut().ran.remove(&txn);
    }

    /// What the client does about an abort: `Some((delay, submission))` to
    /// send the same update again, `None` when the abort is final (a refusal
    /// no retry can cure, or a read: the run then counts a failed operation).
    pub fn on_abort(&self, txn: TxnId, reason: &AbortReason) -> Option<(SimDuration, Submission)> {
        let op = {
            let mut book = self.book.borrow_mut();
            book.ran.remove(&txn).or_else(|| book.unrun.pop())
        }?;
        match reason {
            AbortReason::Unavailable | AbortReason::Deadlock => {
                Some((RETRY_BACKOFF, self.update(op)))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_aborted_update_is_sent_again_as_it_was() {
        let workload = Workload::DenseFew;
        let client = Client {
            workload,
            shape: workload.shape(true),
            frags: vec![(FragmentId(0), vec![ObjectId(0), ObjectId(1)])],
            book: Rc::default(),
        };
        let txn = TxnId::new(NodeId(0), 0);
        // The system drops an update it cannot run and says which
        // transaction that would have been; the client sends the same one.
        drop(client.update((0, 1)));
        let (delay, again) = client
            .on_abort(txn, &AbortReason::Unavailable)
            .expect("an unavailable update is sent again");
        assert_eq!((delay, again.fragment), (RETRY_BACKOFF, FragmentId(0)));
        drop(again);
        assert_eq!(client.book.borrow().unrun, [(0, 1)]);
        // Nothing of the client's is in flight: the abort was a read's.
        client.book.borrow_mut().unrun.clear();
        assert!(client.on_abort(txn, &AbortReason::Unavailable).is_none());
    }
}
