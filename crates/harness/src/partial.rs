//! Partial-replication proof harness: full fan-out vs allocator-converged
//! replica sets under the open-loop Zipf workload.
//!
//! One [`PartialSpec`] describes a skewed workload with a distinct access
//! pattern per fragment: updates arrive open-loop (Zipf over the user
//! population) but are *submitted* from a designated heavy-writer node,
//! and a small reader cluster issues periodic read-only transactions.
//! [`run_arm`] drives the workload under one of two [`Arm`]s over
//! identical arrival sequences:
//!
//! * **full** — every fragment fully replicated, the pre-§6 default: each
//!   commit broadcasts to all `n − 1` peers;
//! * **allocated** — the [`fragdb_alloc::Allocator`] consumes the
//!   driver-recorded access counts and converges the placement before the
//!   measurement window opens: tokens migrate to the heavy writers
//!   (§4.4.2 moves), replica sets shrink to the replication factor around
//!   the reader clusters (§6), and only then do arrivals start.
//!
//! Each arm's [`ArmStats`] carries messages/commit, commit→install lag
//! p50/p99, and read staleness — the evidence that partial replication
//! buys its fan-out reduction without giving up the workload: the tests
//! below assert the fan-out cut, and the equivalence tests
//! (`tests/partial_replication.rs`) assert both arms agree on
//! serializability and surviving-replica convergence. The fan-out saving
//! at 1024 nodes is measured by the benchmark of record (`wide-mesh` vs
//! `rf3-wide`, `msgs_per_commit`).

use fragdb_alloc::{AccessStats, AllocConfig, Allocator, Placement, Plan};
use fragdb_check::{check, CheckInput, ClassDecl, Report};
use fragdb_core::{MovePolicy, Notification, Submission, System, SystemConfig};
use fragdb_model::{AgentId, FragmentCatalog, FragmentId, NodeId, ObjectId};
use fragdb_net::Topology;
use fragdb_sim::{SimDuration, SimRng, SimTime, Telemetry};
use fragdb_workloads::{OpenLoop, OpenLoopConfig};

/// Parameters of one partial-replication comparison.
#[derive(Clone, Debug)]
pub struct PartialSpec {
    /// Node count of the (jittered) full-mesh topology.
    pub nodes: u32,
    /// Independent fragments; fragment `f` starts homed at `f % nodes`.
    pub fragments: u32,
    /// Objects per fragment.
    pub objects_per_fragment: u32,
    /// Zipf population.
    pub users: u64,
    /// Zipf skew θ.
    pub theta: f64,
    /// Offered update arrival rate, transactions per simulated second.
    pub rate_per_sec: f64,
    /// Length of the measured arrival window.
    pub phase: SimDuration,
    /// Per-link delay jitter around the 10 ms mesh base.
    pub link_jitter: SimDuration,
    /// Replica-set size the allocator shrinks toward in the allocated arm.
    pub replication_factor: u32,
    /// Reader-cluster size per fragment (readers issue one read-only
    /// transaction per simulated second each).
    pub readers_per_fragment: u32,
    /// Engine / workload / allocator seed.
    pub seed: u64,
}

impl PartialSpec {
    /// A small smoke shape: quick, still skewed and multi-fragment.
    pub fn smoke(nodes: u32, seed: u64) -> Self {
        PartialSpec {
            nodes,
            fragments: 4,
            objects_per_fragment: 16,
            users: 1_000_000,
            theta: 0.99,
            rate_per_sec: 30.0,
            phase: SimDuration::from_secs(4),
            link_jitter: SimDuration::from_millis(1),
            replication_factor: 3,
            readers_per_fragment: 2,
            seed,
        }
    }

    /// The designated heavy writer of `fragment` — deliberately *not* the
    /// initial home, so the allocator has a migration to find.
    pub fn writer_of(&self, fragment: u32) -> NodeId {
        NodeId((fragment * 3 + 1) % self.nodes)
    }

    /// The reader cluster of `fragment`: `readers_per_fragment` nodes
    /// adjacent to the heavy writer.
    pub fn readers_of(&self, fragment: u32) -> Vec<NodeId> {
        let w = self.writer_of(fragment).0;
        (1..=self.readers_per_fragment)
            .map(|k| NodeId((w + k) % self.nodes))
            .collect()
    }
}

/// Which placement regime an arm runs under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arm {
    /// Full replication: the pre-§6 default, broadcast to everyone.
    Full,
    /// Allocator-converged placement at the configured replication factor.
    Allocated,
}

/// What one arm observed over the measurement window.
#[derive(Clone, Copy, Debug, Default)]
pub struct ArmStats {
    /// Open-loop update arrivals submitted.
    pub arrivals: u64,
    /// Update transactions committed.
    pub commits: u64,
    /// Read-only transactions finished.
    pub reads: u64,
    /// Data packets put on the wire during the window.
    pub messages: u64,
    /// Broadcast messages per committed update, in milli-messages
    /// (`2000` = 2.0): `messages / commits` over the window.
    pub msgs_per_commit_milli: u64,
    /// Median commit→install propagation lag in µs.
    pub lag_p50_us: u64,
    /// 99th-percentile commit→install propagation lag in µs.
    pub lag_p99_us: u64,
    /// Worst staleness any read observed (updates behind the agent).
    pub staleness_max: u64,
    /// Token migrations the allocator ordered (0 in the full arm).
    pub migrations: u64,
    /// Replica-set shrinks the allocator ordered (0 in the full arm).
    pub shrinks: u64,
    /// Replica count of fragment 0 after convergence (`n` in the full arm).
    pub replica_count: u64,
}

/// The access profile the workload will exhibit, as the driver records it:
/// every update is submitted from the fragment's heavy writer, every
/// reader in the cluster reads once per second of the phase.
pub fn access_profile(spec: &PartialSpec) -> AccessStats {
    let mut stats = AccessStats::new();
    let secs = (spec.phase.micros() / 1_000_000).max(1);
    for f in 0..spec.fragments {
        let frag = FragmentId(f);
        // Weight writes by the offered share so the counts mirror what the
        // open loop will deliver; the exact magnitude is irrelevant to the
        // argmax, only the per-node ordering matters.
        let writes = ((spec.rate_per_sec * secs as f64) / spec.fragments as f64).ceil() as u64;
        for _ in 0..writes.max(1) {
            stats.record_write(frag, spec.writer_of(f));
        }
        for reader in spec.readers_of(f) {
            for _ in 0..secs {
                stats.record_read(frag, reader);
            }
        }
    }
    stats
}

/// Build the system under test for one arm: a jittered 10 ms mesh,
/// fragment `f` homed at `f % n`.
pub fn build_system(spec: &PartialSpec) -> (System, Vec<(FragmentId, Vec<ObjectId>)>) {
    assert!(spec.nodes >= 4, "partial-replication runs need ≥4 nodes");
    assert!(spec.fragments >= 1);
    assert!(
        spec.replication_factor >= 1 && spec.replication_factor <= spec.nodes,
        "replication factor must fit the cluster"
    );
    let mut b = FragmentCatalog::builder();
    let frags: Vec<(FragmentId, Vec<ObjectId>)> = (0..spec.fragments)
        .map(|f| b.add_fragment(format!("P{f}"), spec.objects_per_fragment as usize))
        .collect();
    let agents = frags
        .iter()
        .map(|(f, _)| {
            let home = NodeId(f.0 % spec.nodes);
            (*f, AgentId::Node(home), home)
        })
        .collect();
    let topo = Topology::jittered_mesh(
        spec.nodes,
        SimDuration::from_millis(10),
        spec.link_jitter,
        spec.seed ^ 0x11_77_e7_ed,
    );
    // §4.4.2B moves: only the last sequence number travels with the token,
    // which is all the allocator's migrations need.
    let config = SystemConfig::unrestricted(spec.seed).with_move_policy(MovePolicy::WithSeqNo);
    let sys = System::build(topo, b.build(), agents, config)
        .expect("partial-replication system must build");
    (sys, frags)
}

/// Converge the allocator against the recorded access profile and apply
/// every decision through the ordinary driver API, all before `ready`.
/// Returns the epoch plans, for fingerprinting and counting.
///
/// Per epoch the sequence is shrink-then-move: the epoch's replica set
/// always contains both the current and the target home, so the shrink is
/// valid immediately, the move lands inside the narrowed set, and the
/// next epoch's shrink (a subset, post-move) drops the old home.
pub fn converge(sys: &mut System, spec: &PartialSpec, stats: &AccessStats) -> Vec<Plan> {
    let mut placement = Placement::fully_replicated(
        spec.nodes,
        (0..spec.fragments).map(|f| (FragmentId(f), NodeId(f % spec.nodes))),
    );
    let mut allocator = Allocator::new(AllocConfig {
        replication_factor: spec.replication_factor,
        seed: spec.seed,
    });
    let mut plans = Vec::new();
    let mut t = SimTime::ZERO + SimDuration::from_millis(100);
    // Two epochs converge a migrating fragment (shrink+move, then drop the
    // old home); extra rounds are no-ops that prove quiescence.
    for _ in 0..4 {
        let plan = allocator.plan(&placement, stats);
        let done = plan.migrations() + plan.shrinks() == 0;
        for d in &plan.decisions {
            if d.shrink {
                sys.shrink_replica_set_at(t, d.fragment, d.replica_set.clone());
            }
            if d.migrate {
                sys.move_agent_at(t + SimDuration::from_millis(500), d.fragment, d.target_home);
            }
        }
        plan.publish(stats, &mut sys.engine.metrics);
        placement = placement.after(&plan);
        plans.push(plan);
        if done {
            break;
        }
        t += SimDuration::from_secs(1);
    }
    plans
}

/// Drive one arm to quiescence and collect [`ArmStats`].
pub fn run_arm(spec: &PartialSpec, arm: Arm) -> (System, ArmStats) {
    let (mut sys, frags) = build_system(spec);
    let expected = (spec.rate_per_sec * spec.phase.micros() as f64 / 1e6).ceil() as u64;
    let cap = (expected * (2 * spec.nodes as u64 + 16) * 2).max(200_000);
    sys.engine.telemetry = Telemetry::bounded(cap as usize);

    let mut migrations = 0;
    let mut shrinks = 0;
    if arm == Arm::Allocated {
        let profile = access_profile(spec);
        for plan in converge(&mut sys, spec, &profile) {
            migrations += plan.migrations();
            shrinks += plan.shrinks();
        }
    }
    // Both arms open the measurement window at the same instant, after the
    // allocated arm's convergence dance has settled.
    let ready = SimTime::ZERO + SimDuration::from_secs(5);
    let mut stale = sys.step_until(ready);
    while stale.is_some() {
        stale = sys.step_until(ready);
    }
    let messages_before = sys.net_stats().transmissions;

    // Update arrivals: open-loop Zipf over the object space, every update
    // submitted from its fragment's heavy-writer node.
    let mut wl_rng = SimRng::new(spec.seed ^ 0x5ca1_ab1e);
    let mut open = OpenLoop::new(
        OpenLoopConfig {
            users: spec.users,
            theta: spec.theta,
            rate_per_sec: spec.rate_per_sec,
            start: ready,
            horizon: ready + spec.phase,
        },
        &mut wl_rng,
    );
    let mut arrivals = 0u64;
    while let Some(a) = open.next_arrival(&mut wl_rng) {
        arrivals += 1;
        let fi = (a.user % spec.fragments as u64) as usize;
        let oi = ((a.user / spec.fragments as u64) % spec.objects_per_fragment as u64) as usize;
        let (frag, ref objs) = frags[fi];
        let obj = objs[oi];
        sys.submit_at(
            a.at,
            Submission::update(
                frag,
                Box::new(move |ctx| {
                    let v = ctx.read_int(obj, 0);
                    ctx.write(obj, v + 1)?;
                    Ok(())
                }),
            )
            .at(spec.writer_of(frag.0)),
        );
    }
    // Reader clusters: one read-only transaction per reader per second of
    // the phase, served from the reader's own replica.
    let secs = spec.phase.micros() / 1_000_000;
    for f in 0..spec.fragments {
        let (frag, ref objs) = frags[f as usize];
        let obj = objs[0];
        for (k, reader) in spec.readers_of(f).into_iter().enumerate() {
            for s in 0..secs {
                let at =
                    ready + SimDuration::from_millis(s * 1000 + 199 + 7 * (k as u64 + f as u64));
                sys.submit_at(
                    at,
                    Submission::read_only(
                        frag,
                        Box::new(move |ctx| {
                            ctx.read_int(obj, 0);
                            Ok(())
                        }),
                    )
                    .at(reader),
                );
            }
        }
    }

    let limit = ready + spec.phase + SimDuration::from_secs(60);
    let mut commits = 0u64;
    let mut reads = 0u64;
    while let Some((_, notes)) = sys.step_until(limit) {
        for note in notes {
            match note {
                Notification::Committed { .. } => commits += 1,
                Notification::ReadFinished { .. } => reads += 1,
                _ => {}
            }
        }
    }
    let messages = sys.net_stats().transmissions - messages_before;
    let lag = sys.engine.telemetry.probes().lag_sketch();
    let staleness_max = (0..spec.nodes)
        .filter_map(|n| {
            sys.engine
                .metrics
                .histogram(&format!("node.{n}.staleness"))
                .and_then(|h| h.max())
        })
        .max()
        .unwrap_or(0);
    let replica_count = match sys.replicas_of(FragmentId(0)) {
        Some(set) => set.len() as u64,
        None => u64::from(spec.nodes),
    };
    let stats = ArmStats {
        arrivals,
        commits,
        reads,
        messages,
        msgs_per_commit_milli: (messages * 1000).checked_div(commits).unwrap_or(0),
        lag_p50_us: lag.quantile(50.0).unwrap_or(0),
        lag_p99_us: lag.quantile(99.0).unwrap_or(0),
        staleness_max,
        migrations,
        shrinks,
        replica_count,
    };
    (sys, stats)
}

/// Static admission over the system's *current* (possibly evolved)
/// placement: reconstruct a `CheckInput`-shaped configuration from the
/// live token homes and replica sets and run every `FDB0xx` check. The
/// allocator must never steer the system into a placement the admission
/// analyzer would refuse.
pub fn admission_report(sys: &System, spec: &PartialSpec) -> Report {
    let mut b = FragmentCatalog::builder();
    let frags: Vec<FragmentId> = (0..spec.fragments)
        .map(|f| {
            b.add_fragment(format!("P{f}"), spec.objects_per_fragment as usize)
                .0
        })
        .collect();
    let catalog = b.build();
    let agents: Vec<(FragmentId, AgentId, NodeId)> = frags
        .iter()
        .map(|&f| {
            let home = sys.tokens().home(f);
            (f, AgentId::Node(home), home)
        })
        .collect();
    let mut config = SystemConfig::unrestricted(spec.seed).with_move_policy(MovePolicy::WithSeqNo);
    for &f in &frags {
        if let Some(set) = sys.replicas_of(f) {
            config = config.with_replica_set(f, set.iter().copied().collect::<Vec<_>>());
        }
    }
    let classes: Vec<ClassDecl> = frags
        .iter()
        .map(|&f| ClassDecl::update(format!("partial-bump({})", f.0), f, [f]))
        .collect();
    let topo = Topology::jittered_mesh(
        spec.nodes,
        SimDuration::from_millis(10),
        spec.link_jitter,
        spec.seed ^ 0x11_77_e7_ed,
    );
    check(&CheckInput {
        topology: &topo,
        catalog: &catalog,
        agents: &agents,
        classes: &classes,
        config: &config,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fragdb_sim::metrics::keys;

    fn spec() -> PartialSpec {
        PartialSpec::smoke(8, 42)
    }

    #[test]
    fn allocated_arm_converges_and_cuts_fan_out() {
        let (sys, full) = run_arm(&spec(), Arm::Full);
        assert!(full.commits > 20, "full arm must commit real load");
        assert!(full.reads > 0, "readers must be served");
        assert_eq!(full.migrations, 0);
        assert_eq!(full.replica_count, 8);
        assert!(sys.divergent_fragments().is_empty());

        let (sys, alloc) = run_arm(&spec(), Arm::Allocated);
        assert_eq!(alloc.arrivals, full.arrivals, "same arrival sequence");
        assert_eq!(alloc.commits, full.commits, "same commits both arms");
        assert_eq!(alloc.reads, full.reads, "readers live inside the sets");
        assert!(alloc.migrations > 0, "heavy writers differ from homes");
        assert!(alloc.shrinks > 0);
        assert_eq!(alloc.replica_count, 3, "converged at the RF");
        assert!(
            alloc.msgs_per_commit_milli * 2 < full.msgs_per_commit_milli,
            "RF3 on 8 nodes must at least halve the fan-out \
             (full={} alloc={})",
            full.msgs_per_commit_milli,
            alloc.msgs_per_commit_milli
        );
        assert!(alloc.lag_p99_us > alloc.lag_p50_us);
        assert!(sys.divergent_fragments().is_empty(), "replicas converge");
        assert!(
            sys.engine.metrics.counter(keys::ALLOC_MIGRATIONS) > 0,
            "allocator publishes its migrations"
        );
        assert!(
            sys.engine.metrics.counter(keys::ALLOC_MSGS_PER_COMMIT) > 0,
            "allocator publishes its cost model"
        );
        // Fragment 0's converged placement: token at the heavy writer,
        // replicas on the reader cluster.
        let w = spec().writer_of(0);
        assert_eq!(sys.tokens().home(FragmentId(0)), w);
        let set = sys.replicas_of(FragmentId(0)).expect("shrunk");
        for r in spec().readers_of(0) {
            assert!(set.contains(&r), "reader {r} must keep a replica");
        }
    }

    #[test]
    fn evolved_placement_passes_admission() {
        let (sys, _) = run_arm(&spec(), Arm::Allocated);
        let report = admission_report(&sys, &spec());
        assert!(
            report.is_admissible(),
            "allocator steered into an inadmissible placement:\n{report}"
        );
    }

    #[test]
    fn arms_are_deterministic() {
        let (_, a) = run_arm(&spec(), Arm::Allocated);
        let (_, b) = run_arm(&spec(), Arm::Allocated);
        assert_eq!(a.commits, b.commits);
        assert_eq!(a.messages, b.messages);
        assert_eq!(a.lag_p50_us, b.lag_p50_us);
        assert_eq!(a.lag_p99_us, b.lag_p99_us);
        assert_eq!(a.staleness_max, b.staleness_max);
    }
}
