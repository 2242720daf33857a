//! Differential test: group-commit batching is a pure wire-level
//! optimization.
//!
//! For each seeded chaos history (lossy links, a crash/recovery cycle,
//! home-local read-modify-write traffic on four fragments) the system is
//! run four times — batching off, window 2, window 8, and flush-on-idle —
//! and every observable outcome must be identical to the unbatched run:
//!
//! * the final store contents at every node (digests per fragment),
//! * the recorded history's fragmentwise-serializability verdict,
//! * telemetry's commit→install join: the same set of committed causal
//!   ids, each installed at exactly the same set of nodes (the full
//!   replica set once the run quiesces).
//!
//! Only message counts may differ: a batched run must put **fewer or
//! equal** quasi-bearing broadcast envelopes on the wire.

use std::collections::BTreeMap;

use fragdb::core::{BatchConfig, Submission, System, SystemConfig};
use fragdb::model::{AgentId, FragmentCatalog, NodeId, ObjectId, UserId};
use fragdb::net::{FaultConfig, FaultPlan, Topology};
use fragdb::sim::{CausalId, SimDuration, SimRng, SimTime, Telemetry, TelemetryEvent};

const SEEDS: u64 = 20;

fn secs(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

/// The chaos shape from `tests/chaos.rs` / the golden traces: 4 fragments
/// homed at nodes 0–3 of a 5-node lossy full mesh, 20 home-local RMW
/// updates per fragment, node 4 (agent-free) crashes and recovers. The
/// long horizon lets retransmissions and recovery anti-entropy quiesce, so
/// every commit reaches every replica regardless of batching delays.
fn chaos_system(seed: u64, batch: BatchConfig) -> (System, SimTime) {
    let mut plan_rng = SimRng::new(seed ^ 0xC4A0_5000);
    let plan = FaultPlan::new(
        plan_rng.gen_range(0..30u64) as f64 / 100.0,
        plan_rng.gen_range(0..30u64) as f64 / 100.0,
        SimDuration::from_millis(plan_rng.gen_range(0..50u64)),
    );
    let mut b = FragmentCatalog::builder();
    let frags: Vec<_> = (0..4).map(|i| b.add_fragment(format!("F{i}"), 3)).collect();
    let catalog = b.build();
    let agents = frags
        .iter()
        .enumerate()
        .map(|(i, &(f, _))| (f, AgentId::User(UserId(i as u32)), NodeId(i as u32)))
        .collect();
    let mut sys = System::build(
        Topology::full_mesh(5, SimDuration::from_millis(10)),
        catalog,
        agents,
        SystemConfig::unrestricted(seed)
            .with_faults(FaultConfig::uniform(plan))
            .with_batching(batch),
    )
    .unwrap();
    for (fi, (f, objs)) in frags.iter().enumerate() {
        let (f, objs) = (*f, objs.clone());
        for k in 0..20 {
            let obj = objs[k as usize % objs.len()];
            sys.submit_at(
                secs(3 * k + fi as u64 + 1),
                Submission::update(
                    f,
                    Box::new(move |ctx| {
                        let v = ctx.read_int(obj, 0);
                        ctx.write(obj, v + 1)?;
                        Ok(())
                    }),
                ),
            );
        }
    }
    sys.crash_at(secs(40), NodeId(4));
    sys.recover_at(secs(70), NodeId(4));
    (sys, secs(500))
}

/// Everything batching must leave untouched, extracted from one run.
#[derive(Debug, PartialEq, Eq)]
struct Observables {
    /// `(fragment, node) -> store digest` at quiescence.
    digests: BTreeMap<(u32, u32), u64>,
    /// Commit causal ids -> sorted, deduped installing nodes.
    join: BTreeMap<CausalId, Vec<u32>>,
    /// Fragmentwise-serializability verdict of the recorded history.
    serializable: bool,
}

/// What batching is allowed to change.
struct Costs {
    /// Quasi-bearing broadcast envelopes put on the wire (`msg.quasi` +
    /// `msg.batch` deliveries).
    quasi_envelopes: u64,
}

fn run(seed: u64, batch: BatchConfig) -> (Observables, Costs) {
    let (mut sys, limit) = chaos_system(seed, batch);
    sys.engine.telemetry = Telemetry::bounded(400_000);
    while sys.step_until(limit).is_some() {}
    assert_eq!(sys.engine.telemetry.dropped(), 0, "telemetry overflowed");
    assert!(
        sys.divergent_fragments().is_empty(),
        "seed {seed}: replicas diverged at quiescence"
    );

    let mut digests = BTreeMap::new();
    let fragments: Vec<(u32, Vec<ObjectId>)> = sys
        .catalog()
        .fragments()
        .iter()
        .map(|f| (f.id.0, f.objects.clone()))
        .collect();
    for node in 0..sys.node_count() {
        for (fid, objects) in &fragments {
            digests.insert((*fid, node), sys.replica(NodeId(node)).digest(objects));
        }
    }

    let mut join: BTreeMap<CausalId, Vec<u32>> = BTreeMap::new();
    let mut commits: Vec<CausalId> = Vec::new();
    for r in sys.engine.telemetry.events() {
        match &r.event {
            TelemetryEvent::Committed { cause, .. } => commits.push(*cause),
            TelemetryEvent::Installed { cause, node } => {
                join.entry(*cause).or_default().push(*node)
            }
            _ => {}
        }
    }
    assert_eq!(commits.len(), 80, "seed {seed}: every submission commits");
    for nodes in join.values_mut() {
        nodes.sort_unstable();
        nodes.dedup();
    }
    let replicas = sys.node_count() as usize;
    for cause in &commits {
        assert_eq!(
            join.get(cause).map_or(0, Vec::len),
            replicas,
            "seed {seed}: commit {cause:?} did not reach all {replicas} replicas"
        );
    }
    assert_eq!(join.len(), commits.len(), "install without a commit");

    let serializable = fragdb::graphs::analyze(&sys.history).fragmentwise_serializable();
    let quasi_envelopes =
        sys.engine.metrics.counter("msg.quasi") + sys.engine.metrics.counter("msg.batch");
    (
        Observables {
            digests,
            join,
            serializable,
        },
        Costs { quasi_envelopes },
    )
}

#[test]
fn batched_runs_match_unbatched_observables_across_seeds() {
    for seed in 0..SEEDS {
        let (baseline, base_cost) = run(seed, BatchConfig::off());
        assert!(
            baseline.serializable,
            "seed {seed}: home-local RMW history must be fragmentwise serializable"
        );
        for batch in [
            BatchConfig::window(2),
            BatchConfig::window(8),
            BatchConfig::flush_on_idle(),
        ] {
            let (obs, cost) = run(seed, batch);
            assert_eq!(
                obs, baseline,
                "seed {seed}, {batch:?}: batching changed observable behaviour"
            );
            assert!(
                cost.quasi_envelopes <= base_cost.quasi_envelopes,
                "seed {seed}, {batch:?}: batching must not add quasi envelopes \
                 ({} > {})",
                cost.quasi_envelopes,
                base_cost.quasi_envelopes
            );
        }
    }
}

/// Same-instant submissions coalesce: with flush-on-idle and a burst of
/// simultaneous commits on one fragment, the broadcast layer must emit
/// strictly fewer quasi-bearing envelopes than the unbatched run, the
/// batch-size histogram must record multi-element batches, and the wire
/// must carry at least five times fewer transmissions and acks.
#[test]
fn bursty_commits_actually_coalesce() {
    fn bursty(batch: BatchConfig) -> System {
        let mut b = FragmentCatalog::builder();
        let (f, objs) = b.add_fragment("F0", 2);
        let catalog = b.build();
        let mut sys = System::build(
            Topology::full_mesh(4, SimDuration::from_millis(10)),
            catalog,
            vec![(f, AgentId::User(UserId(0)), NodeId(0))],
            SystemConfig::unrestricted(7).with_batching(batch),
        )
        .unwrap();
        for burst in 0..5u64 {
            for k in 0..8u64 {
                let obj = objs[(k % 2) as usize];
                sys.submit_at(
                    secs(burst + 1),
                    Submission::update(
                        f,
                        Box::new(move |ctx| {
                            let v = ctx.read_int(obj, 0);
                            ctx.write(obj, v + 1)?;
                            Ok(())
                        }),
                    ),
                );
            }
        }
        sys.run_until(secs(60));
        sys
    }

    let off = bursty(BatchConfig::off());
    let on = bursty(BatchConfig::flush_on_idle());
    assert!(off.divergent_fragments().is_empty());
    assert!(on.divergent_fragments().is_empty());
    let off_envs =
        off.engine.metrics.counter("msg.quasi") + off.engine.metrics.counter("msg.batch");
    let on_envs = on.engine.metrics.counter("msg.quasi") + on.engine.metrics.counter("msg.batch");
    // 5 bursts × 8 commits × 3 receivers unbatched; batched, each burst
    // should travel as one envelope per receiver.
    assert_eq!(off_envs, 5 * 8 * 3);
    assert_eq!(on_envs, 5 * 3, "each burst must coalesce into one envelope");
    let sizes = on
        .engine
        .metrics
        .histograms()
        .find(|(k, _)| *k == "net.batch.size")
        .map(|(_, h)| (h.count(), h.max()))
        .expect("batch-size histogram recorded");
    assert_eq!(sizes, (5, Some(8)), "five 8-element batches flushed");
    // What the wire carries falls with the envelopes: data transmissions
    // plus standalone acks, at least fivefold on bursts of eight.
    let wire = |sys: &System| {
        let stats = sys.net_stats();
        stats.transmissions + stats.acks_sent
    };
    assert!(
        wire(&off) >= 5 * wire(&on),
        "group commit must cut transmissions + acks at least 5x (off={} on={})",
        wire(&off),
        wire(&on)
    );
}
