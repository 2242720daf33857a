//! Cross-crate integration tests exercising the public API end to end,
//! the way a downstream user would.

use fragdb::core::{MovePolicy, Notification, Submission, System, SystemConfig};
use fragdb::model::{AgentId, FragmentCatalog, NodeId, Value};
use fragdb::net::{NetworkChange, Topology};
use fragdb::sim::{SimDuration, SimTime};

fn secs(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

/// A mixed workload across three strategies must keep its per-strategy
/// guarantees, using only the facade crate's re-exports.
#[test]
fn facade_exposes_full_stack() {
    let mut b = FragmentCatalog::builder();
    let (f0, o0) = b.add_fragment("A", 2);
    let (f1, o1) = b.add_fragment("B", 2);
    let catalog = b.build();
    let agents = vec![
        (f0, AgentId::Node(NodeId(0)), NodeId(0)),
        (f1, AgentId::Node(NodeId(1)), NodeId(1)),
    ];
    let mut sys = System::build(
        Topology::ring(4, SimDuration::from_millis(5)),
        catalog,
        agents,
        SystemConfig::unrestricted(99),
    )
    .unwrap();
    let (a, bb) = (o0[0], o1[0]);
    sys.submit_at(
        secs(1),
        Submission::update(
            f0,
            Box::new(move |ctx| {
                ctx.write(a, 1i64)?;
                Ok(())
            }),
        ),
    );
    sys.submit_at(
        secs(2),
        Submission::update(
            f1,
            Box::new(move |ctx| {
                let v = ctx.read_int(a, 0);
                ctx.write(bb, v + 1)?;
                Ok(())
            }),
        ),
    );
    let notes = sys.run_until(secs(30));
    assert_eq!(
        notes
            .iter()
            .filter(|n| matches!(n, Notification::Committed { .. }))
            .count(),
        2
    );
    // Ring topology: updates propagate multi-hop.
    for node in 0..4u32 {
        assert_eq!(sys.replica(NodeId(node)).read(a), &Value::Int(1));
        assert_eq!(sys.replica(NodeId(node)).read(bb), &Value::Int(2));
    }
    assert!(fragdb::graphs::analyze(&sys.history).globally_serializable);
}

/// Off the mesh the route, not the link, sets when an update lands: the
/// install instant at each node is the commit instant plus the shortest
/// delay over the links that are up, and it follows the link state.
#[test]
fn multi_hop_routes_set_the_install_instant() {
    let mut b = FragmentCatalog::builder();
    let (f, objs) = b.add_fragment("A", 1);
    let obj = objs[0];
    let mut sys = System::build(
        Topology::ring(5, SimDuration::from_millis(5)),
        b.build(),
        vec![(f, AgentId::Node(NodeId(0)), NodeId(0))],
        SystemConfig::unrestricted(7),
    )
    .unwrap();
    let bump = move || {
        Submission::update(
            f,
            Box::new(move |ctx| {
                let v = ctx.read_int(obj, 0);
                ctx.write(obj, v + 1)?;
                Ok(())
            }),
        )
    };
    // Per node, how many µs after the (single) commit in `notes` it installed.
    let lags = |notes: &[Notification]| -> Vec<(u32, u64)> {
        let committed: Vec<SimTime> = notes
            .iter()
            .filter_map(|n| match n {
                Notification::Committed { at, .. } => Some(*at),
                _ => None,
            })
            .collect();
        assert_eq!(committed.len(), 1, "one commit per phase");
        let mut lags: Vec<(u32, u64)> = notes
            .iter()
            .filter_map(|n| match n {
                Notification::Installed { node, at, .. } => {
                    Some((node.0, at.since(committed[0]).micros()))
                }
                _ => None,
            })
            .collect();
        lags.sort_unstable();
        lags
    };

    // Every link up: one hop to the neighbours, two to the far side.
    sys.submit_at(secs(1), bump());
    let notes = sys.run_until(secs(2));
    assert_eq!(
        lags(&notes),
        [(1, 5_000), (2, 10_000), (3, 10_000), (4, 5_000)]
    );

    // 0–1 cut: node 1 is reached the long way round, 0–4–3–2–1.
    sys.net_change_at(secs(2), NetworkChange::LinkDown(NodeId(0), NodeId(1)));
    sys.submit_at(secs(3), bump());
    let notes = sys.run_until(secs(4));
    assert_eq!(
        lags(&notes),
        [(1, 20_000), (2, 15_000), (3, 10_000), (4, 5_000)]
    );

    // Node 2 isolated: nothing installs there — nor at node 1, whose only
    // remaining route ran through it.
    let rest = [0, 1, 3, 4].map(NodeId).to_vec();
    sys.net_change_at(secs(4), NetworkChange::Split(vec![vec![NodeId(2)], rest]));
    sys.submit_at(secs(5), bump());
    let notes = sys.run_until(secs(10));
    assert_eq!(lags(&notes), [(3, 10_000), (4, 5_000)]);
    assert_eq!(sys.replica(NodeId(2)).read(obj), &Value::Int(2));

    // Healed: the cut-off nodes catch up by retransmission, not before.
    sys.net_change_at(secs(10), NetworkChange::HealAll);
    let notes = sys.run_until(secs(30));
    let mut caught_up: Vec<(u32, bool)> = notes
        .iter()
        .filter_map(|n| match n {
            Notification::Installed { node, at, .. } => Some((node.0, *at >= secs(10))),
            _ => None,
        })
        .collect();
    caught_up.sort_unstable();
    assert_eq!(caught_up, [(1, true), (2, true)]);
    assert!(sys.divergent_fragments().is_empty());
    for node in 0..5u32 {
        assert_eq!(sys.replica(NodeId(node)).read(obj), &Value::Int(3));
    }
}

/// Tokens move through all four §4.4 protocols in one process; each policy
/// converges. (Smoke test that the policies don't share hidden state.)
#[test]
fn every_move_policy_round_trips() {
    for policy in [
        MovePolicy::MajorityCommit {
            timeout: SimDuration::from_secs(5),
        },
        MovePolicy::WithData {
            transfer_delay: SimDuration::from_millis(100),
        },
        MovePolicy::WithSeqNo,
        MovePolicy::NoPrep,
    ] {
        let mut b = FragmentCatalog::builder();
        let (f, objs) = b.add_fragment("M", 1);
        let catalog = b.build();
        let obj = objs[0];
        let mut sys = System::build(
            Topology::full_mesh(3, SimDuration::from_millis(10)),
            catalog,
            vec![(f, AgentId::Node(NodeId(0)), NodeId(0))],
            SystemConfig::unrestricted(1).with_move_policy(policy.clone()),
        )
        .unwrap();
        for (i, node) in [(0u64, 1u32), (1, 2), (2, 0)] {
            sys.move_agent_at(secs(i * 10 + 5), f, NodeId(node));
            sys.submit_at(
                secs(i * 10 + 7),
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
        sys.run_until(secs(300));
        assert!(
            sys.divergent_fragments().is_empty(),
            "{policy:?} failed to converge"
        );
        assert_eq!(
            sys.replica(NodeId(0)).read(obj),
            &Value::Int(3),
            "{policy:?} lost an update"
        );
    }
}

/// The three workload drivers coexist against one facade build.
#[test]
fn workload_drivers_compose() {
    use fragdb::workloads::{BankConfig, BankDriver, BankSchema};
    let cfg = BankConfig {
        accounts: 2,
        slots_per_account: 4,
        central: NodeId(0),
        account_homes: vec![NodeId(1), NodeId(1)],
        overdraft_fine: 25,
    };
    let (catalog, schema, agents) = BankSchema::build(&cfg);
    let mut sys = System::build(
        Topology::full_mesh(2, SimDuration::from_millis(10)),
        catalog,
        agents,
        SystemConfig::unrestricted(5),
    )
    .unwrap();
    let mut bank = BankDriver::new(schema, cfg);
    let d0 = bank.deposit(0, 100).unwrap();
    let d1 = bank.deposit(1, 200).unwrap();
    sys.submit_at(secs(1), d0);
    sys.submit_at(secs(1), d1);
    bank.run(&mut sys, secs(60));
    assert_eq!(
        sys.replica(NodeId(0)).read(bank.schema.bal_objs[0]),
        &Value::Int(100)
    );
    assert_eq!(
        sys.replica(NodeId(1)).read(bank.schema.bal_objs[1]),
        &Value::Int(200)
    );
}

/// Baselines remain usable alongside the core system.
#[test]
fn baselines_compose_with_core_types() {
    use fragdb::baselines::{MutexConfig, MutexSystem};
    use fragdb::model::ObjectId;
    let mut sys = MutexSystem::build(
        Topology::full_mesh(2, SimDuration::from_millis(10)),
        MutexConfig {
            primary: NodeId(0),
            seed: 3,
        },
    );
    sys.net_change_at(secs(5), NetworkChange::LinkDown(NodeId(0), NodeId(1)));
    sys.submit_at(
        secs(6),
        NodeId(1),
        false,
        std::rc::Rc::new(|ctx| {
            ctx.write(ObjectId(0), 1i64);
            Ok(())
        }),
    );
    let outcomes = sys.run_until(secs(30));
    assert!(outcomes
        .iter()
        .any(|(_, o)| matches!(o, fragdb::baselines::mutex::MxOutcome::Unavailable)));
}

/// The experiment harness is callable as a library — a downstream user can
/// rerun any figure programmatically.
#[test]
fn harness_experiments_run_programmatically() {
    let e5 = fragdb::harness::experiments::e5_gsg_cycle::run(1);
    assert!(e5.cycle.is_some());
    assert!(e5.fragmentwise);

    use fragdb::harness::experiments::e10_broadcast::{self, FaultLevel};
    let lossy = FaultLevel {
        label: "drop 30%",
        plan: fragdb::net::FaultPlan::lossy(0.3),
        crash: false,
    };
    let e10 = e10_broadcast::run(1, &[lossy]);
    assert!(e10.samples[0].converged);
    assert!(e10.samples[0].fragmentwise);
    assert!(e10.samples[0].retransmissions > 0);
}
