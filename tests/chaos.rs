//! Chaos acceptance: the full system survives random link faults plus a
//! node crash/recovery cycle.
//!
//! For a batch of seeds, a 5-node system runs a continuous update workload
//! over links with randomly drawn drop/duplication/jitter plans while one
//! non-agent node crashes mid-run (losing all volatile state) and later
//! recovers via WAL replay + anti-entropy. At quiescence:
//!
//! * every pair of replicas agrees on every fragment (mutual consistency,
//!   §3.1);
//! * the executed history is fragmentwise serializable (§4.3);
//! * the same seed reproduces the identical history, op for op.

use fragdb::core::{Notification, Submission, System, SystemConfig};
use fragdb::model::{AgentId, FragmentCatalog, HistoryOp, NodeId, UserId};
use fragdb::net::{FaultConfig, FaultPlan, Topology};
use fragdb::sim::{SimDuration, SimRng, SimTime};

fn secs(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

struct ChaosOutcome {
    submitted: u64,
    committed: u64,
    unavailable: u64,
    retransmissions: u64,
    divergent: usize,
    fragmentwise: bool,
    ops: Vec<HistoryOp>,
}

/// One chaos run: 4 fragments homed at nodes 0-3, node 4 agent-free;
/// random per-run fault plan on every link; node 4 crashes at t=40s and
/// recovers at t=70s.
fn chaos_run(seed: u64) -> ChaosOutcome {
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
        SystemConfig::unrestricted(seed).with_faults(FaultConfig::uniform(plan)),
    )
    .unwrap();

    // Updates every 3 seconds per fragment for 100s.
    let horizon = 100u64;
    let mut submitted = 0u64;
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
            submitted += 1;
        }
    }

    // The crash/recovery cycle on the agent-free node.
    sys.crash_at(secs(40), NodeId(4));
    sys.recover_at(secs(70), NodeId(4));

    let mut committed = 0u64;
    let mut unavailable = 0u64;
    let limit = secs(horizon + 400);
    while let Some((_, notes)) = sys.step_until(limit) {
        for note in notes {
            match note {
                Notification::Committed { .. } => committed += 1,
                Notification::Aborted { .. } => unavailable += 1,
                _ => {}
            }
        }
    }

    let verdict = fragdb::graphs::analyze(&sys.history);
    ChaosOutcome {
        submitted,
        committed,
        unavailable,
        retransmissions: sys.net_stats().retransmissions,
        divergent: sys.divergent_fragments().len(),
        fragmentwise: verdict.fragmentwise_serializable(),
        ops: sys.history.ops().collect(),
    }
}

#[test]
fn chaos_converges_and_stays_fragmentwise() {
    for seed in [0xC4A0u64, 0xC4A1, 0xC4A2, 0xC4A3] {
        let o = chaos_run(seed);
        assert_eq!(
            o.divergent, 0,
            "seed {seed:#x}: replicas diverged after crash + faults"
        );
        assert!(o.fragmentwise, "seed {seed:#x}: history not fragmentwise");
        assert!(o.committed > 0, "seed {seed:#x}: nothing committed");
        assert_eq!(
            o.submitted,
            o.committed + o.unavailable,
            "seed {seed:#x}: submissions unaccounted for"
        );
        assert_eq!(
            o.unavailable, 0,
            "seed {seed:#x}: node 4 homes no agent, nothing should abort"
        );
    }
}

#[test]
fn chaos_faults_actually_bite() {
    // At least one seed in the batch must have drawn a lossy enough plan
    // that the reliable layer had to retransmit — otherwise the test
    // proves nothing about fault tolerance.
    let any_retransmits = [0xC4A0u64, 0xC4A1, 0xC4A2, 0xC4A3]
        .iter()
        .any(|&s| chaos_run(s).retransmissions > 0);
    assert!(any_retransmits, "no seed exercised loss at all");
}

#[test]
fn chaos_is_deterministic() {
    let a = chaos_run(0xC4A7);
    let b = chaos_run(0xC4A7);
    assert_eq!(a.committed, b.committed);
    assert_eq!(a.retransmissions, b.retransmissions);
    assert_eq!(a.ops, b.ops, "same seed must yield the identical history");
}
