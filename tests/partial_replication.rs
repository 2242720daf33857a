//! Partial-replication acceptance: factor-3 replica sets are equivalent
//! to full replication under chaos.
//!
//! For a batch of 20 seeds, the same faulty workload (random per-link
//! drop/duplication/jitter plans, a replica crash/recovery cycle) runs
//! once fully replicated and once with every fragment on a 3-node
//! replica set. Both regimes must agree on the serializability verdict
//! and commit the same transactions, and in both the surviving replicas
//! must reconverge at quiescence — partial replication changes the
//! fan-out, never the outcome.

use fragdb::core::{Notification, Submission, System, SystemConfig};
use fragdb::model::{AgentId, FragmentCatalog, HistoryOp, NodeId, UserId};
use fragdb::net::{FaultConfig, FaultPlan, Topology};
use fragdb::sim::{SimDuration, SimRng, SimTime};

fn secs(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

struct Outcome {
    committed: u64,
    aborted: u64,
    divergent: usize,
    fragmentwise: bool,
    transmissions: u64,
    ops: Vec<HistoryOp>,
}

/// One chaos run at either replication regime: 3 fragments homed at
/// nodes 0–2 of a 6-node mesh; when `partial` each fragment keeps
/// replicas only on `{home, 3, 4}`, so node 4 is a non-home replica of
/// every fragment. Random fault plan on every link; node 4 crashes at
/// t=10s (losing volatile state) and recovers at t=20s via WAL replay
/// plus anti-entropy.
fn regime_run(seed: u64, partial: bool) -> Outcome {
    let mut plan_rng = SimRng::new(seed ^ 0x9A27_1A10);
    let plan = FaultPlan::new(
        plan_rng.gen_range(0..30u64) as f64 / 100.0,
        plan_rng.gen_range(0..30u64) as f64 / 100.0,
        SimDuration::from_millis(plan_rng.gen_range(0..50u64)),
    );

    let mut b = FragmentCatalog::builder();
    let frags: Vec<_> = (0..3).map(|i| b.add_fragment(format!("F{i}"), 3)).collect();
    let catalog = b.build();
    let agents = frags
        .iter()
        .enumerate()
        .map(|(i, &(f, _))| (f, AgentId::User(UserId(i as u32)), NodeId(i as u32)))
        .collect();
    let mut config = SystemConfig::unrestricted(seed).with_faults(FaultConfig::uniform(plan));
    if partial {
        for (i, &(f, _)) in frags.iter().enumerate() {
            config = config.with_replica_set(f, [NodeId(i as u32), NodeId(3), NodeId(4)]);
        }
    }
    let mut sys = System::build(
        Topology::full_mesh(6, SimDuration::from_millis(10)),
        catalog,
        agents,
        config,
    )
    .unwrap();

    // Updates every 3 seconds per fragment for 30s.
    let horizon = 30u64;
    for (fi, (f, objs)) in frags.iter().enumerate() {
        let (f, objs) = (*f, objs.clone());
        for k in 0..horizon / 3 {
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

    // The crash/recovery cycle on the shared non-home replica.
    sys.crash_at(secs(10), NodeId(4));
    sys.recover_at(secs(20), NodeId(4));

    let mut committed = 0u64;
    let mut aborted = 0u64;
    let limit = secs(horizon + 200);
    while let Some((_, notes)) = sys.step_until(limit) {
        for note in notes {
            match note {
                Notification::Committed { .. } => committed += 1,
                Notification::Aborted { .. } => aborted += 1,
                _ => {}
            }
        }
    }

    let verdict = fragdb::graphs::analyze(&sys.history);
    Outcome {
        committed,
        aborted,
        divergent: sys.divergent_fragments().len(),
        fragmentwise: verdict.fragmentwise_serializable(),
        transmissions: sys.net_stats().transmissions,
        ops: sys.history.ops().to_vec(),
    }
}

#[test]
fn factor_three_is_equivalent_to_full_replication_under_chaos() {
    for seed in 0..20u64 {
        let seed = 0x9A27_0000 + seed;
        let full = regime_run(seed, false);
        let part = regime_run(seed, true);
        assert_eq!(
            full.fragmentwise, part.fragmentwise,
            "seed {seed:#x}: regimes disagree on the serializability verdict"
        );
        assert!(
            full.fragmentwise,
            "seed {seed:#x}: history not fragmentwise"
        );
        assert_eq!(
            full.committed, part.committed,
            "seed {seed:#x}: regimes committed different workloads"
        );
        assert!(full.committed > 0, "seed {seed:#x}: nothing committed");
        assert_eq!(full.aborted, 0, "seed {seed:#x}: full regime aborted");
        assert_eq!(part.aborted, 0, "seed {seed:#x}: partial regime aborted");
        assert_eq!(
            full.divergent, 0,
            "seed {seed:#x}: full replicas diverged after crash + faults"
        );
        assert_eq!(
            part.divergent, 0,
            "seed {seed:#x}: surviving replicas diverged after crash + faults"
        );
        assert!(
            part.transmissions < full.transmissions,
            "seed {seed:#x}: 3-node sets must put fewer packets on the wire \
             (full={} partial={})",
            full.transmissions,
            part.transmissions
        );
    }
}

#[test]
fn partial_regime_is_deterministic() {
    let a = regime_run(0x9A27_00FF, true);
    let b = regime_run(0x9A27_00FF, true);
    assert_eq!(a.committed, b.committed);
    assert_eq!(a.transmissions, b.transmissions);
    assert_eq!(a.ops, b.ops, "same seed must yield the identical history");
}
