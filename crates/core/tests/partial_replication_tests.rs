//! Tests for partial replication (§6: "databases that are not fully
//! replicated").

use fragdb_core::{AbortReason, MovePolicy, Notification, Submission, System, SystemConfig};
use fragdb_model::{AgentId, FragmentCatalog, FragmentId, NodeId, ObjectId, Value};
use fragdb_net::{NetworkChange, Topology};
use fragdb_sim::{SimDuration, SimTime};

fn secs(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

/// Two fragments on 4 nodes: F0 replicated everywhere, F1 only at {1, 2}.
fn build(seed: u64, policy: MovePolicy) -> (System, Vec<ObjectId>, Vec<ObjectId>) {
    let mut b = FragmentCatalog::builder();
    let (f0, o0) = b.add_fragment("FULL", 2);
    let (f1, o1) = b.add_fragment("PARTIAL", 2);
    let catalog = b.build();
    let agents = vec![
        (f0, AgentId::Node(NodeId(0)), NodeId(0)),
        (f1, AgentId::Node(NodeId(1)), NodeId(1)),
    ];
    let sys = System::build(
        Topology::full_mesh(4, SimDuration::from_millis(10)),
        catalog,
        agents,
        SystemConfig::unrestricted(seed)
            .with_move_policy(policy)
            .with_replica_set(f1, [NodeId(1), NodeId(2)]),
    )
    .unwrap();
    (sys, o0, o1)
}

fn write_update(fragment: FragmentId, object: ObjectId, value: i64) -> Submission {
    Submission::update(
        fragment,
        Box::new(move |ctx| {
            ctx.write(object, value)?;
            Ok(())
        }),
    )
}

#[test]
fn partial_fragment_propagates_only_to_its_replicas() {
    let (mut sys, _, o1) = build(1, MovePolicy::Fixed);
    sys.submit_at(secs(1), write_update(FragmentId(1), o1[0], 7));
    let notes = sys.run_until(secs(30));
    let installs: Vec<NodeId> = notes
        .iter()
        .filter_map(|n| match n {
            Notification::Installed { node, .. } => Some(*node),
            _ => None,
        })
        .collect();
    assert_eq!(installs, vec![NodeId(2)], "only the other replica installs");
    assert_eq!(sys.replica(NodeId(1)).read(o1[0]), &Value::Int(7));
    assert_eq!(sys.replica(NodeId(2)).read(o1[0]), &Value::Int(7));
    assert!(sys.replica(NodeId(0)).read(o1[0]).is_null());
    assert!(sys.replica(NodeId(3)).read(o1[0]).is_null());
    assert!(
        sys.divergent_fragments().is_empty(),
        "divergence is judged over the replica set only"
    );
}

#[test]
fn message_traffic_shrinks_with_the_replica_set() {
    let (mut sys, o0, o1) = build(2, MovePolicy::Fixed);
    sys.submit_at(secs(1), write_update(FragmentId(0), o0[0], 1));
    sys.run_until(secs(30));
    let full = sys.net_stats().sent;
    sys.submit_at(secs(31), write_update(FragmentId(1), o1[0], 1));
    sys.run_until(secs(60));
    let partial = sys.net_stats().sent - full;
    assert_eq!(full, 3, "full replication: 3 copies");
    assert_eq!(partial, 1, "partial replication: 1 copy");
}

#[test]
fn read_at_non_replica_node_is_refused() {
    let (mut sys, o0, o1) = build(3, MovePolicy::Fixed);
    let src = o1[0];
    let dst = o0[0];
    // F0's agent (node 0, which holds no replica of F1) reads F1.
    sys.submit_at(
        secs(1),
        Submission::update(
            FragmentId(0),
            Box::new(move |ctx| {
                let v = ctx.read_int(src, 0);
                ctx.write(dst, v + 1)?;
                Ok(())
            }),
        ),
    );
    let notes = sys.run_until(secs(30));
    assert!(notes.iter().any(|n| matches!(
        n,
        Notification::Aborted {
            reason: AbortReason::Logic(m),
            ..
        } if m.contains("no replica")
    )));
    assert!(sys.replica(NodeId(0)).read(dst).is_null(), "no effects");
}

#[test]
fn read_locks_reach_unreplicated_fragments() {
    // §4.1 synergy: a node without a replica can still read the fragment
    // through a remote lock grant, which carries the value from the agent
    // home (always a replica).
    let mut b = FragmentCatalog::builder();
    let (f0, o0) = b.add_fragment("FULL", 1);
    let (f1, o1) = b.add_fragment("PARTIAL", 1);
    let catalog = b.build();
    let agents = vec![
        (f0, AgentId::Node(NodeId(0)), NodeId(0)),
        (f1, AgentId::Node(NodeId(1)), NodeId(1)),
    ];
    let mut sys = System::build(
        Topology::full_mesh(3, SimDuration::from_millis(10)),
        catalog,
        agents,
        SystemConfig::read_locks(4).with_replica_set(f1, [NodeId(1)]),
    )
    .unwrap();
    sys.submit_at(secs(1), write_update(f1, o1[0], 42));
    let (src, dst) = (o1[0], o0[0]);
    sys.submit_at(
        secs(5),
        Submission::update_reading(
            f0,
            vec![src],
            Box::new(move |ctx| {
                let v = ctx.read_int(src, -1);
                ctx.write(dst, v)?;
                Ok(())
            }),
        ),
    );
    let notes = sys.run_until(secs(60));
    let committed = notes
        .iter()
        .filter(|n| matches!(n, Notification::Committed { .. }))
        .count();
    assert_eq!(committed, 2);
    assert_eq!(
        sys.replica(NodeId(0)).read(dst),
        &Value::Int(42),
        "the lock grant carried the unreplicated fragment's value"
    );
    assert!(fragdb_graphs::analyze(&sys.history).globally_serializable);
}

#[test]
fn agent_moves_stay_within_the_replica_set() {
    let (mut sys, _, o1) = build(5, MovePolicy::WithSeqNo);
    sys.submit_at(secs(1), write_update(FragmentId(1), o1[0], 1));
    sys.move_agent_at(secs(5), FragmentId(1), NodeId(2));
    sys.submit_at(secs(6), write_update(FragmentId(1), o1[0], 2));
    sys.run_until(secs(60));
    assert_eq!(sys.replica(NodeId(1)).read(o1[0]), &Value::Int(2));
    assert_eq!(sys.replica(NodeId(2)).read(o1[0]), &Value::Int(2));
    assert!(sys.divergent_fragments().is_empty());
}

#[test]
#[should_panic(expected = "no replica there")]
fn moving_outside_the_replica_set_panics() {
    let (mut sys, _, _) = build(6, MovePolicy::WithSeqNo);
    sys.move_agent_at(secs(5), FragmentId(1), NodeId(3));
    sys.run_until(secs(30));
}

#[test]
fn majority_commit_uses_the_replica_set_majority() {
    // F1 replicated at {1, 2} of 4 nodes: a replica-set majority is 2.
    // Partition {1,2} away from {0,3}: the agent still reaches its replica
    // majority and commits, even though it cannot reach half the cluster.
    let (mut sys, _, o1) = build(
        7,
        MovePolicy::MajorityCommit {
            timeout: SimDuration::from_secs(5),
        },
    );
    sys.net_change_at(
        SimTime::ZERO,
        NetworkChange::Split(vec![vec![NodeId(1), NodeId(2)], vec![NodeId(0), NodeId(3)]]),
    );
    sys.submit_at(secs(1), write_update(FragmentId(1), o1[0], 9));
    let notes = sys.run_until(secs(60));
    let committed = notes
        .iter()
        .filter(|n| matches!(n, Notification::Committed { .. }))
        .count();
    assert_eq!(committed, 1, "replica-set majority {{1,2}} suffices");
    assert_eq!(sys.replica(NodeId(2)).read(o1[0]), &Value::Int(9));
}

#[test]
fn agent_home_outside_replica_set_is_rejected() {
    let mut b = FragmentCatalog::builder();
    let (f0, _) = b.add_fragment("F", 1);
    let catalog = b.build();
    let Err(err) = System::build(
        Topology::full_mesh(3, SimDuration::from_millis(1)),
        catalog,
        vec![(f0, AgentId::Node(NodeId(0)), NodeId(0))],
        SystemConfig::unrestricted(1).with_replica_set(f0, [NodeId(1), NodeId(2)]),
    ) else {
        panic!("home outside replica set must be rejected");
    };
    assert_eq!(
        err,
        fragdb_core::BuildError::HomeNotInReplicaSet {
            fragment: f0,
            home: NodeId(0),
        }
    );
    assert!(err.to_string().contains("must be in its replica set"));
}

#[test]
fn monitor_peers_follow_the_replica_sets() {
    // F0 fully replicated ⇒ everyone monitors everyone.
    let (sys, _, _) = build(8, MovePolicy::Fixed);
    assert_eq!(
        sys.monitor_peers(NodeId(0)),
        [NodeId(1), NodeId(2), NodeId(3)]
    );
    // With every fragment under an explicit replica set, only set-sharing
    // peers are monitored.
    let mut b = FragmentCatalog::builder();
    let (f0, _) = b.add_fragment("A", 1);
    let (f1, _) = b.add_fragment("B", 1);
    let catalog = b.build();
    let agents = vec![
        (f0, AgentId::Node(NodeId(0)), NodeId(0)),
        (f1, AgentId::Node(NodeId(2)), NodeId(2)),
    ];
    let sys = System::build(
        Topology::full_mesh(5, SimDuration::from_millis(10)),
        catalog,
        agents,
        SystemConfig::unrestricted(8)
            .with_replica_set(f0, [NodeId(0), NodeId(1)])
            .with_replica_set(f1, [NodeId(1), NodeId(2), NodeId(3)]),
    )
    .unwrap();
    assert_eq!(sys.monitor_peers(NodeId(0)), [NodeId(1)]);
    assert_eq!(
        sys.monitor_peers(NodeId(1)),
        [NodeId(0), NodeId(2), NodeId(3)]
    );
    assert!(
        sys.monitor_peers(NodeId(4)).is_empty(),
        "a node holding no replica monitors nobody"
    );
}

#[test]
fn mixed_agent_node_does_not_stall_fifo_at_non_replicas() {
    // Regression: a node that is agent of BOTH a partially replicated
    // fragment and a fully replicated one. Its subset-scoped broadcast
    // must not leave a sequence gap that stalls later full broadcasts at
    // the nodes outside the subset.
    let mut b = FragmentCatalog::builder();
    let (fp, op) = b.add_fragment("PARTIAL", 1);
    let (ff, of) = b.add_fragment("FULL", 1);
    let catalog = b.build();
    let agents = vec![
        (fp, AgentId::Node(NodeId(0)), NodeId(0)),
        (ff, AgentId::Node(NodeId(0)), NodeId(0)),
    ];
    let mut sys = System::build(
        Topology::full_mesh(3, SimDuration::from_millis(10)),
        catalog,
        agents,
        SystemConfig::unrestricted(11).with_replica_set(fp, [NodeId(0), NodeId(1)]),
    )
    .unwrap();
    // First a partial-fragment commit (reaches node 1 only)...
    sys.submit_at(secs(1), write_update(fp, op[0], 1));
    // ...then a full-fragment commit: node 2 must still install it.
    sys.submit_at(secs(2), write_update(ff, of[0], 2));
    sys.run_until(secs(60));
    assert_eq!(
        sys.replica(NodeId(2)).read(of[0]),
        &Value::Int(2),
        "node 2's hold-back must not stall on the skipped partial broadcast"
    );
    assert!(sys.replica(NodeId(2)).read(op[0]).is_null());
    assert!(sys.divergent_fragments().is_empty());
}
