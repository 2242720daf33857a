//! End-to-end tests of the fragments-and-agents engine: commit and
//! propagation, behavior under partitions, every control strategy and
//! every movement protocol.

use std::cell::Cell;
use std::rc::Rc;

use fragdb_core::{
    AbortReason, MovePolicy, Notification, StrategyKind, Submission, System, SystemConfig,
};
use fragdb_model::{
    AccessDecl, AgentId, FragmentCatalog, FragmentId, NodeId, ObjectId, UserId, Value,
};
use fragdb_net::{NetworkChange, Topology};
use fragdb_sim::{SimDuration, SimTime};

fn secs(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

fn ms(x: u64) -> SimDuration {
    SimDuration::from_millis(x)
}

/// Three fragments with two objects each, agents on nodes 0, 1, 2.
fn build(n: u32, config: SystemConfig) -> (System, Vec<Vec<ObjectId>>) {
    let mut b = FragmentCatalog::builder();
    let (f0, o0) = b.add_fragment("F0", 2);
    let (f1, o1) = b.add_fragment("F1", 2);
    let (f2, o2) = b.add_fragment("F2", 2);
    let catalog = b.build();
    let agents = vec![
        (f0, AgentId::Node(NodeId(0)), NodeId(0)),
        (f1, AgentId::User(UserId(1)), NodeId(1 % n)),
        (f2, AgentId::User(UserId(2)), NodeId(2 % n)),
    ];
    let sys = System::build(Topology::full_mesh(n, ms(10)), catalog, agents, config).unwrap();
    (sys, vec![o0, o1, o2])
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

fn committed_count(notes: &[Notification]) -> usize {
    notes
        .iter()
        .filter(|n| matches!(n, Notification::Committed { .. }))
        .count()
}

fn aborted_reasons(notes: &[Notification]) -> Vec<&AbortReason> {
    notes
        .iter()
        .filter_map(|n| match n {
            Notification::Aborted { reason, .. } => Some(reason),
            _ => None,
        })
        .collect()
}

// ---------------------------------------------------------------------
// Basic propagation
// ---------------------------------------------------------------------

#[test]
fn commit_propagates_to_all_replicas() {
    let (mut sys, objs) = build(3, SystemConfig::unrestricted(1));
    sys.submit_at(secs(1), write_update(FragmentId(0), objs[0][0], 42));
    let notes = sys.run_until(secs(10));
    assert_eq!(committed_count(&notes), 1);
    for node in 0..3u32 {
        assert_eq!(
            sys.replica(NodeId(node)).read(objs[0][0]),
            &Value::Int(42),
            "node {node} must hold the update"
        );
    }
    assert!(sys.divergent_fragments().is_empty());
    assert_eq!(sys.engine.metrics.counter("txn.committed"), 1);
    assert_eq!(sys.engine.metrics.counter("install.count"), 2);
}

#[test]
fn updates_remain_available_during_partition_and_heal() {
    let (mut sys, objs) = build(3, SystemConfig::unrestricted(2));
    // Isolate node 0 from t=0 to t=60.
    sys.net_change_at(
        SimTime::ZERO,
        NetworkChange::Split(vec![vec![NodeId(0)], vec![NodeId(1), NodeId(2)]]),
    );
    sys.submit_at(secs(1), write_update(FragmentId(0), objs[0][0], 7));
    let notes = sys.run_until(secs(30));
    // The agent at node 0 committed despite the partition — availability.
    assert_eq!(committed_count(&notes), 1);
    assert_eq!(sys.replica(NodeId(0)).read(objs[0][0]), &Value::Int(7));
    assert!(sys.replica(NodeId(1)).read(objs[0][0]).is_null());
    assert_eq!(sys.divergent_fragments(), vec![FragmentId(0)]);

    sys.net_change_at(secs(60), NetworkChange::HealAll);
    sys.run_until(secs(120));
    assert_eq!(sys.replica(NodeId(1)).read(objs[0][0]), &Value::Int(7));
    assert_eq!(sys.replica(NodeId(2)).read(objs[0][0]), &Value::Int(7));
    assert!(
        sys.divergent_fragments().is_empty(),
        "mutual consistency restored"
    );
}

#[test]
fn both_sides_of_a_partition_update_their_own_fragments() {
    let (mut sys, objs) = build(3, SystemConfig::unrestricted(3));
    sys.net_change_at(
        SimTime::ZERO,
        NetworkChange::Split(vec![vec![NodeId(0)], vec![NodeId(1), NodeId(2)]]),
    );
    sys.submit_at(secs(1), write_update(FragmentId(0), objs[0][0], 1));
    sys.submit_at(secs(1), write_update(FragmentId(1), objs[1][0], 2));
    let notes = sys.run_until(secs(30));
    assert_eq!(committed_count(&notes), 2, "both sides stay available");
    sys.net_change_at(secs(60), NetworkChange::HealAll);
    sys.run_until(secs(120));
    assert!(sys.divergent_fragments().is_empty());
    let verdict = fragdb_graphs::analyze(&sys.history);
    assert!(verdict.fragmentwise_serializable());
}

#[test]
fn installed_notifications_drive_triggers() {
    // The §2 pattern: when F1's update lands at node 0 (home of F0), the
    // driver submits a follow-up update on F0.
    let (mut sys, objs) = build(3, SystemConfig::unrestricted(4));
    sys.submit_at(secs(1), write_update(FragmentId(1), objs[1][0], 10));
    let mut triggered = false;
    while let Some((at, notes)) = sys.step_until(secs(30)) {
        for n in &notes {
            if let Notification::Installed { node, quasi, .. } = n {
                if *node == NodeId(0) && quasi.fragment == FragmentId(1) && !triggered {
                    triggered = true;
                    let target = objs[0][1];
                    sys.submit_at(
                        at + ms(1),
                        Submission::update(
                            FragmentId(0),
                            Box::new(move |ctx| {
                                let seen = ctx.read_int(ObjectId(2), 0);
                                ctx.write(target, seen + 5)?;
                                Ok(())
                            }),
                        ),
                    );
                }
            }
        }
    }
    assert!(triggered);
    for node in 0..3u32 {
        assert_eq!(sys.replica(NodeId(node)).read(objs[0][1]), &Value::Int(15));
    }
}

#[test]
fn logic_abort_leaves_no_trace() {
    let (mut sys, objs) = build(3, SystemConfig::unrestricted(5));
    sys.submit_at(
        secs(1),
        Submission::update(
            FragmentId(0),
            Box::new(move |ctx| {
                let bal = ctx.read_int(ObjectId(0), 0);
                if bal < 100 {
                    return Err(ctx.abort("insufficient funds"));
                }
                ctx.write(ObjectId(0), bal - 100)?;
                Ok(())
            }),
        ),
    );
    let notes = sys.run_until(secs(10));
    assert_eq!(
        aborted_reasons(&notes),
        vec![&AbortReason::Logic("insufficient funds".into())]
    );
    assert!(
        sys.history.is_empty(),
        "aborted reads must not pollute the history"
    );
    assert!(sys.replica(NodeId(0)).read(objs[0][0]).is_null());
}

#[test]
fn initiation_violation_is_aborted() {
    let (mut sys, objs) = build(3, SystemConfig::unrestricted(6));
    let foreign = objs[1][0];
    sys.submit_at(
        secs(1),
        Submission::update(
            FragmentId(0),
            Box::new(move |ctx| {
                ctx.write(foreign, 1i64)?;
                Ok(())
            }),
        ),
    );
    let notes = sys.run_until(secs(10));
    assert_eq!(aborted_reasons(&notes), vec![&AbortReason::Initiation]);
}

#[test]
fn read_only_transactions_run_anywhere() {
    let (mut sys, objs) = build(3, SystemConfig::unrestricted(7));
    sys.submit_at(secs(1), write_update(FragmentId(0), objs[0][0], 9));
    let seen = Rc::new(Cell::new(-1i64));
    let seen2 = seen.clone();
    let obj = objs[0][0];
    sys.submit_at(
        secs(10),
        Submission::read_only(
            FragmentId(1),
            Box::new(move |ctx| {
                seen2.set(ctx.read_int(obj, -99));
                Ok(())
            }),
        )
        .at(NodeId(2)),
    );
    let notes = sys.run_until(secs(30));
    assert!(notes
        .iter()
        .any(|n| matches!(n, Notification::ReadFinished { node, .. } if *node == NodeId(2))));
    assert_eq!(seen.get(), 9, "node 2's replica had the propagated value");
}

// ---------------------------------------------------------------------
// §4.1 read locks
// ---------------------------------------------------------------------

#[test]
fn read_locks_serve_fresh_values_from_lock_site() {
    let (mut sys, objs) = build(3, SystemConfig::read_locks(8));
    // F0's agent writes obj 0 at t=1 (propagates by ~t=1.01).
    sys.submit_at(secs(1), write_update(FragmentId(0), objs[0][0], 77));
    // Immediately after (before propagation lands at node 1), F1's agent
    // reads obj 0 under a remote lock: it must see 77, not the stale null.
    let seen = Rc::new(Cell::new(-1i64));
    let seen2 = seen.clone();
    let (src, dst) = (objs[0][0], objs[1][0]);
    sys.submit_at(
        secs(1) + ms(1),
        Submission::update_reading(
            FragmentId(1),
            vec![src],
            Box::new(move |ctx| {
                let v = ctx.read_int(src, -1);
                seen2.set(v);
                ctx.write(dst, v)?;
                Ok(())
            }),
        ),
    );
    let notes = sys.run_until(secs(30));
    assert_eq!(committed_count(&notes), 2);
    assert_eq!(seen.get(), 77, "lock grant must carry the fresh value");
    let verdict = fragdb_graphs::analyze(&sys.history);
    assert!(verdict.globally_serializable);
}

#[test]
fn read_locks_unavailable_during_partition() {
    let (mut sys, objs) = build(3, SystemConfig::read_locks(9));
    sys.net_change_at(
        SimTime::ZERO,
        NetworkChange::Split(vec![vec![NodeId(0)], vec![NodeId(1), NodeId(2)]]),
    );
    // F1's agent (node 1) needs a lock from node 0 — unreachable.
    let src = objs[0][0];
    let dst = objs[1][0];
    sys.submit_at(
        secs(1),
        Submission::update_reading(
            FragmentId(1),
            vec![src],
            Box::new(move |ctx| {
                let v = ctx.read_int(src, 0);
                ctx.write(dst, v + 1)?;
                Ok(())
            }),
        ),
    );
    let notes = sys.run_until(secs(120));
    assert_eq!(aborted_reasons(&notes), vec![&AbortReason::Unavailable]);
    assert_eq!(sys.engine.metrics.counter("abort.unavailable"), 1);
}

#[test]
fn read_locks_without_foreign_reads_commit_immediately() {
    let (mut sys, objs) = build(3, SystemConfig::read_locks(10));
    sys.net_change_at(
        SimTime::ZERO,
        NetworkChange::Split(vec![vec![NodeId(0)], vec![NodeId(1), NodeId(2)]]),
    );
    // No foreign reads: nothing to lock; even §4.1 stays available.
    sys.submit_at(secs(1), write_update(FragmentId(0), objs[0][0], 5));
    let notes = sys.run_until(secs(10));
    assert_eq!(committed_count(&notes), 1);
}

#[test]
fn distributed_deadlock_resolved_by_timeout() {
    // A(F0)@N0 reads F1's object while A(F1)@N1 reads F0's object; each
    // then needs an exclusive lock blocked by the other's shared lock. The
    // cycle spans two lock sites, so detection falls to the timeout.
    let config = SystemConfig::unrestricted(11).with_strategy(StrategyKind::ReadLocks {
        timeout: SimDuration::from_secs(5),
    });
    let (mut sys, objs) = build(3, config);
    let (a, b) = (objs[0][0], objs[1][0]);
    sys.submit_at(
        secs(1),
        Submission::update_reading(
            FragmentId(0),
            vec![b],
            Box::new(move |ctx| {
                let v = ctx.read_int(b, 0);
                ctx.write(a, v + 1)?;
                Ok(())
            }),
        ),
    );
    sys.submit_at(
        secs(1),
        Submission::update_reading(
            FragmentId(1),
            vec![a],
            Box::new(move |ctx| {
                let v = ctx.read_int(a, 0);
                ctx.write(b, v + 1)?;
                Ok(())
            }),
        ),
    );
    let notes = sys.run_until(secs(60));
    // At least one falls to the timeout; the other may then proceed or
    // also time out depending on interleaving.
    assert!(!aborted_reasons(&notes).is_empty());
    assert!(
        sys.engine.metrics.counter("abort.unavailable")
            + sys.engine.metrics.counter("abort.deadlock")
            >= 1
    );
}

// ---------------------------------------------------------------------
// §4.2 acyclic read-access graph
// ---------------------------------------------------------------------

fn acyclic_config(seed: u64) -> SystemConfig {
    SystemConfig::unrestricted(seed).with_strategy(StrategyKind::AcyclicRag {
        decls: vec![
            AccessDecl::update(FragmentId(0), [FragmentId(1), FragmentId(2)]),
            AccessDecl::update(FragmentId(1), [FragmentId(1)]),
            AccessDecl::update(FragmentId(2), [FragmentId(2)]),
        ],
        allow_violating_read_only: false,
    })
}

#[test]
fn acyclic_rag_admits_declared_classes() {
    let (mut sys, objs) = build(3, acyclic_config(12));
    sys.submit_at(secs(1), write_update(FragmentId(1), objs[1][0], 3));
    let (c, tgt) = (objs[1][0], objs[0][0]);
    sys.submit_at(
        secs(5),
        Submission::update(
            FragmentId(0),
            Box::new(move |ctx| {
                let v = ctx.read_int(c, 0);
                ctx.write(tgt, v * 2)?;
                Ok(())
            }),
        ),
    );
    let notes = sys.run_until(secs(30));
    assert_eq!(committed_count(&notes), 2);
    let verdict = fragdb_graphs::analyze(&sys.history);
    assert!(verdict.globally_serializable, "the §4.2 theorem holds");
}

#[test]
fn acyclic_rag_rejects_undeclared_class() {
    let (mut sys, objs) = build(3, acyclic_config(13));
    // F1's agent reading F2: not declared.
    let (src, dst) = (objs[2][0], objs[1][0]);
    sys.submit_at(
        secs(1),
        Submission::update(
            FragmentId(1),
            Box::new(move |ctx| {
                let v = ctx.read_int(src, 0);
                ctx.write(dst, v)?;
                Ok(())
            }),
        ),
    );
    let notes = sys.run_until(secs(10));
    assert_eq!(aborted_reasons(&notes), vec![&AbortReason::UndeclaredClass]);
}

#[test]
fn cyclic_rag_is_rejected_at_build_time() {
    let mut b = FragmentCatalog::builder();
    let (f0, _) = b.add_fragment("A", 1);
    let (f1, _) = b.add_fragment("B", 1);
    let catalog = b.build();
    let config = SystemConfig::unrestricted(14).with_strategy(StrategyKind::AcyclicRag {
        decls: vec![AccessDecl::update(f0, [f1]), AccessDecl::update(f1, [f0])],
        allow_violating_read_only: false,
    });
    let agents = vec![
        (f0, AgentId::Node(NodeId(0)), NodeId(0)),
        (f1, AgentId::Node(NodeId(1)), NodeId(1)),
    ];
    assert!(System::build(Topology::full_mesh(2, ms(1)), catalog, agents, config).is_err());
}

// ---------------------------------------------------------------------
// §4.4 movement
// ---------------------------------------------------------------------

#[test]
fn move_with_data_preserves_continuity() {
    let config = SystemConfig::unrestricted(15).with_move_policy(MovePolicy::WithData {
        transfer_delay: SimDuration::from_secs(2),
    });
    let (mut sys, objs) = build(3, config);
    let obj = objs[1][0];
    // Three updates at the original home (node 1)...
    for (i, v) in [(1u64, 10i64), (2, 20), (3, 30)] {
        sys.submit_at(secs(i), write_update(FragmentId(1), obj, v));
    }
    // ...then the agent moves to node 2 and immediately submits.
    sys.move_agent_at(secs(10), FragmentId(1), NodeId(2));
    sys.submit_at(secs(10) + ms(1), write_update(FragmentId(1), obj, 40));
    let notes = sys.run_until(secs(60));
    assert_eq!(committed_count(&notes), 4);
    assert!(notes
        .iter()
        .any(|n| matches!(n, Notification::MoveCompleted { node, .. } if *node == NodeId(2))));
    for node in 0..3u32 {
        assert_eq!(sys.replica(NodeId(node)).read(obj), &Value::Int(40));
    }
    assert!(sys.divergent_fragments().is_empty());
    let verdict = fragdb_graphs::analyze(&sys.history);
    assert!(verdict.fragmentwise_serializable());
}

#[test]
fn move_with_data_works_across_partition() {
    // The courier is physical: the copy reaches the new home even while the
    // network is split, and the new home keeps serving updates.
    let config = SystemConfig::unrestricted(16).with_move_policy(MovePolicy::WithData {
        transfer_delay: SimDuration::from_secs(1),
    });
    let (mut sys, objs) = build(3, config);
    let obj = objs[1][0];
    sys.submit_at(secs(1), write_update(FragmentId(1), obj, 10));
    sys.net_change_at(
        secs(5),
        NetworkChange::Split(vec![vec![NodeId(0), NodeId(1)], vec![NodeId(2)]]),
    );
    sys.move_agent_at(secs(10), FragmentId(1), NodeId(2));
    sys.submit_at(secs(12), write_update(FragmentId(1), obj, 20));
    let notes = sys.run_until(secs(30));
    assert_eq!(
        committed_count(&notes),
        2,
        "new home commits during partition"
    );
    assert_eq!(sys.replica(NodeId(2)).read(obj), &Value::Int(20));
    sys.net_change_at(secs(40), NetworkChange::HealAll);
    sys.run_until(secs(90));
    assert!(sys.divergent_fragments().is_empty());
}

#[test]
fn move_with_seqno_waits_for_catch_up() {
    let config = SystemConfig::unrestricted(17).with_move_policy(MovePolicy::WithSeqNo);
    let (mut sys, objs) = build(3, config);
    let obj = objs[1][0];
    // Partition node 2 away so node 1's update cannot reach it.
    sys.net_change_at(
        secs(0),
        NetworkChange::Split(vec![vec![NodeId(0), NodeId(1)], vec![NodeId(2)]]),
    );
    sys.submit_at(secs(1), write_update(FragmentId(1), obj, 10));
    // Agent moves to node 2 (token is out-of-band) and submits.
    sys.move_agent_at(secs(5), FragmentId(1), NodeId(2));
    sys.submit_at(secs(6), write_update(FragmentId(1), obj, 20));
    let notes = sys.run_until(secs(30));
    // The new home is still waiting: only the first commit happened.
    assert_eq!(committed_count(&notes), 1);
    assert_eq!(sys.queued_submissions(), 1);
    assert_eq!(sys.replica(NodeId(2)).read(obj), &Value::Null);

    sys.net_change_at(secs(40), NetworkChange::HealAll);
    let notes = sys.run_until(secs(120));
    assert_eq!(
        committed_count(&notes),
        1,
        "queued update commits after catch-up"
    );
    assert!(notes
        .iter()
        .any(|n| matches!(n, Notification::MoveCompleted { node, .. } if *node == NodeId(2))));
    for node in 0..3u32 {
        assert_eq!(sys.replica(NodeId(node)).read(obj), &Value::Int(20));
    }
    assert!(sys.divergent_fragments().is_empty());
    assert!(fragdb_graphs::analyze(&sys.history).fragmentwise_serializable());
}

#[test]
fn majority_commit_requires_majority() {
    let config = SystemConfig::unrestricted(18).with_move_policy(MovePolicy::MajorityCommit {
        timeout: SimDuration::from_secs(5),
    });
    let (mut sys, objs) = build(3, config);
    // Node 0 isolated: its agent cannot reach a majority.
    sys.net_change_at(
        secs(0),
        NetworkChange::Split(vec![vec![NodeId(0)], vec![NodeId(1), NodeId(2)]]),
    );
    sys.submit_at(secs(1), write_update(FragmentId(0), objs[0][0], 5));
    // Node 1's agent has a majority ({1, 2}).
    sys.submit_at(secs(1), write_update(FragmentId(1), objs[1][0], 6));
    let notes = sys.run_until(secs(60));
    assert_eq!(committed_count(&notes), 1, "only the majority side commits");
    assert_eq!(aborted_reasons(&notes), vec![&AbortReason::Unavailable]);
    assert!(sys.replica(NodeId(0)).read(objs[0][0]).is_null());
    assert_eq!(sys.replica(NodeId(1)).read(objs[1][0]), &Value::Int(6));
}

#[test]
fn majority_move_recovers_full_sequence() {
    let config = SystemConfig::unrestricted(19).with_move_policy(MovePolicy::MajorityCommit {
        timeout: SimDuration::from_secs(5),
    });
    let (mut sys, objs) = build(3, config);
    let obj = objs[1][0];
    sys.submit_at(secs(1), write_update(FragmentId(1), obj, 10));
    sys.submit_at(secs(2), write_update(FragmentId(1), obj, 20));
    // Move the agent to node 0; new home recovers from a majority first.
    sys.move_agent_at(secs(10), FragmentId(1), NodeId(0));
    sys.submit_at(secs(10) + ms(1), write_update(FragmentId(1), obj, 30));
    let notes = sys.run_until(secs(60));
    assert_eq!(committed_count(&notes), 3);
    assert!(notes
        .iter()
        .any(|n| matches!(n, Notification::MoveCompleted { node, .. } if *node == NodeId(0))));
    for node in 0..3u32 {
        assert_eq!(sys.replica(NodeId(node)).read(obj), &Value::Int(30));
    }
    assert!(sys.divergent_fragments().is_empty());
    assert!(fragdb_graphs::analyze(&sys.history).fragmentwise_serializable());
}

#[test]
fn noprep_move_is_immediately_available_and_converges() {
    let config = SystemConfig::unrestricted(20).with_move_policy(MovePolicy::NoPrep);
    let (mut sys, objs) = build(3, config);
    let obj = objs[1][0];
    // T1 commits at node 1 while it is cut off: nobody sees it.
    sys.net_change_at(
        secs(0),
        NetworkChange::Split(vec![vec![NodeId(1)], vec![NodeId(0), NodeId(2)]]),
    );
    sys.submit_at(secs(1), write_update(FragmentId(1), obj, 10));
    // The user (token in hand) walks to node 0 and keeps working.
    sys.move_agent_at(secs(5), FragmentId(1), NodeId(0));
    sys.submit_at(secs(6), write_update(FragmentId(1), obj, 20));
    let notes = sys.run_until(secs(30));
    assert_eq!(
        committed_count(&notes),
        2,
        "no-prep: updates continue immediately at the new home"
    );
    assert_eq!(sys.queued_submissions(), 0);
    assert_eq!(sys.replica(NodeId(0)).read(obj), &Value::Int(20));

    // Heal: T1 finally arrives, is detected as a missing transaction at
    // the new home, and its overwritten update is dropped.
    sys.net_change_at(secs(40), NetworkChange::HealAll);
    let notes = sys.run_until(secs(120));
    let repackaged: Vec<_> = notes
        .iter()
        .filter_map(|n| match n {
            Notification::MissingRepackaged { kept, dropped, .. } => Some((kept, dropped)),
            _ => None,
        })
        .collect();
    assert_eq!(repackaged.len(), 1, "T1 repackaged exactly once");
    let (kept, dropped) = &repackaged[0];
    assert!(kept.is_empty(), "T1's write to obj was overwritten by T2");
    assert_eq!(dropped.len(), 1);
    // Mutual consistency is the §4.4.3 guarantee.
    for node in 0..3u32 {
        assert_eq!(sys.replica(NodeId(node)).read(obj), &Value::Int(20));
    }
    assert!(sys.divergent_fragments().is_empty());
}

#[test]
fn noprep_late_transaction_with_surviving_updates_is_rebroadcast() {
    let config = SystemConfig::unrestricted(21).with_move_policy(MovePolicy::NoPrep);
    let (mut sys, objs) = build(3, config);
    let (obj_a, obj_b) = (objs[1][0], objs[1][1]);
    sys.net_change_at(
        secs(0),
        NetworkChange::Split(vec![vec![NodeId(1)], vec![NodeId(0), NodeId(2)]]),
    );
    // T1 writes obj_a (only) while cut off.
    sys.submit_at(secs(1), write_update(FragmentId(1), obj_a, 10));
    sys.move_agent_at(secs(5), FragmentId(1), NodeId(0));
    // T2 writes obj_b: T1's update to obj_a is NOT overwritten.
    sys.submit_at(secs(6), write_update(FragmentId(1), obj_b, 20));
    sys.run_until(secs(30));
    sys.net_change_at(secs(40), NetworkChange::HealAll);
    let notes = sys.run_until(secs(200));
    let repackaged: Vec<_> = notes
        .iter()
        .filter_map(|n| match n {
            Notification::MissingRepackaged { kept, .. } => Some(kept.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(repackaged.len(), 1);
    assert_eq!(repackaged[0], vec![(obj_a, Value::Int(10))]);
    // The surviving update reached everyone.
    for node in 0..3u32 {
        assert_eq!(sys.replica(NodeId(node)).read(obj_a), &Value::Int(10));
        assert_eq!(sys.replica(NodeId(node)).read(obj_b), &Value::Int(20));
    }
    assert!(sys.divergent_fragments().is_empty());
}

#[test]
fn moving_back_and_forth_stays_consistent() {
    let config = SystemConfig::unrestricted(22).with_move_policy(MovePolicy::WithData {
        transfer_delay: ms(100),
    });
    let (mut sys, objs) = build(3, config);
    let obj = objs[2][0];
    let mut expect = 0i64;
    for round in 0..4u64 {
        let to = NodeId(((round + 1) % 3) as u32);
        sys.move_agent_at(secs(round * 10 + 1), FragmentId(2), to);
        expect = (round + 1) as i64 * 100;
        sys.submit_at(
            secs(round * 10 + 5),
            write_update(FragmentId(2), obj, expect),
        );
    }
    let notes = sys.run_until(secs(120));
    assert_eq!(committed_count(&notes), 4);
    for node in 0..3u32 {
        assert_eq!(sys.replica(NodeId(node)).read(obj), &Value::Int(expect));
    }
    assert!(sys.divergent_fragments().is_empty());
    assert!(fragdb_graphs::analyze(&sys.history).fragmentwise_serializable());
}

#[test]
fn a_submission_parked_behind_a_crashed_homes_commit_runs_after_recovery() {
    // A §4.4.1 update parks behind its fragment's in-flight commit. The
    // home crashes, which aborts that commit, and recovers without an
    // election (the detector is off): the parked update must then run at
    // the recovered home instead of waiting forever.
    let mut b = FragmentCatalog::builder();
    let (fm, om) = b.add_fragment("M", 1);
    let config = SystemConfig::unrestricted(45).with_move_policy(MovePolicy::MajorityCommit {
        timeout: SimDuration::from_secs(5),
    });
    let agents = vec![(fm, AgentId::User(UserId(0)), NodeId(0))];
    let mut sys = System::build(Topology::full_mesh(3, ms(10)), b.build(), agents, config).unwrap();
    sys.submit_at(SimTime::from_millis(1), write_update(fm, om[0], 1));
    sys.submit_at(SimTime::from_millis(2), write_update(fm, om[0], 2));
    sys.crash_at(SimTime::from_millis(5), NodeId(0));
    sys.recover_at(SimTime::from_millis(100), NodeId(0));
    let notes = sys.run_until(secs(120));
    assert_eq!(aborted_reasons(&notes), vec![&AbortReason::Unavailable]);
    assert!(
        notes.iter().any(|n| matches!(
            n,
            Notification::Aborted { txn, .. } if *txn == fragdb_model::TxnId::new(NodeId(0), 0)
        )),
        "the in-flight commit T0.0 dies with its home"
    );
    assert_eq!(committed_count(&notes), 1, "the parked update is answered");
    assert_eq!(sys.queued_submissions(), 0);
    for node in 0..3u32 {
        assert_eq!(sys.replica(NodeId(node)).read(om[0]), &Value::Int(2));
    }
    assert!(sys.divergent_fragments().is_empty());
}

#[test]
fn a_crashed_home_sends_its_presumed_aborts_only_after_recovery() {
    // §4.1 fragment A at N0 reads B (homed at N1); §4.4.1 fragment M is
    // homed at N0. Both updates are in flight when N0 crashes: A holds a
    // lock request at N1, M's prepare is staged at N1 and N2. A dead node
    // cannot send, so the lock release and the abort commands wait for
    // its recovery, and then each goes out exactly once.
    let mut b = FragmentCatalog::builder();
    let (fa, oa) = b.add_fragment("A", 1);
    let (fb, ob) = b.add_fragment("B", 1);
    let (fm, om) = b.add_fragment("M", 1);
    let config = SystemConfig::unrestricted(44)
        .with_fragment_strategy(
            fa,
            StrategyKind::ReadLocks {
                timeout: SimDuration::from_secs(5),
            },
        )
        .with_fragment_move_policy(
            fm,
            MovePolicy::MajorityCommit {
                timeout: SimDuration::from_secs(5),
            },
        );
    let agents = vec![
        (fa, AgentId::Node(NodeId(0)), NodeId(0)),
        (fb, AgentId::Node(NodeId(1)), NodeId(1)),
        (fm, AgentId::User(UserId(2)), NodeId(0)),
    ];
    let mut sys = System::build(Topology::full_mesh(3, ms(10)), b.build(), agents, config).unwrap();
    let (a, src) = (oa[0], ob[0]);
    sys.submit_at(
        SimTime::from_millis(1),
        Submission::update_reading(
            fa,
            vec![src],
            Box::new(move |ctx| {
                let v = ctx.read_int(src, 0);
                ctx.write(a, v + 1)?;
                Ok(())
            }),
        ),
    );
    sys.submit_at(SimTime::from_millis(1), write_update(fm, om[0], 5));
    sys.crash_at(SimTime::from_millis(5), NodeId(0));
    sys.recover_at(secs(2), NodeId(0));
    let count = |sys: &System, key: &str| sys.engine.metrics.counter(key);

    let notes = sys.run_until(SimTime::from_millis(1_999));
    assert_eq!(
        aborted_reasons(&notes),
        vec![&AbortReason::Unavailable, &AbortReason::Unavailable],
        "both in-flight transactions die with their home"
    );
    assert_eq!(count(&sys, "msg.abort_cmd"), 0, "a down node sends nothing");
    assert_eq!(
        count(&sys, "msg.lock_release"),
        0,
        "a down node sends nothing"
    );

    sys.run_until(secs(60));
    assert_eq!(
        count(&sys, "msg.abort_cmd"),
        2,
        "one per other replica of M"
    );
    assert_eq!(
        count(&sys, "msg.lock_release"),
        1,
        "one to the lock site N1"
    );
    assert!(sys.divergent_fragments().is_empty());
}

// ---------------------------------------------------------------------
// §4.1 read-only transactions and per-fragment policy lookups
// ---------------------------------------------------------------------

#[test]
fn read_only_transaction_under_read_locks_sees_consistent_snapshot() {
    let (mut sys, objs) = build(3, SystemConfig::read_locks(30));
    // Fund two objects in different fragments.
    sys.submit_at(secs(1), write_update(FragmentId(0), objs[0][0], 10));
    sys.submit_at(secs(1), write_update(FragmentId(1), objs[1][0], 20));
    let seen = Rc::new(Cell::new(0i64));
    let seen2 = seen.clone();
    let (a, b) = (objs[0][0], objs[1][0]);
    // A read-only transaction by F2's agent reading both under locks.
    sys.submit_at(
        secs(5),
        Submission::read_only(
            FragmentId(2),
            Box::new(move |ctx| {
                seen2.set(ctx.read_int(a, -1) + ctx.read_int(b, -1));
                Ok(())
            }),
        )
        .with_foreign_reads(vec![a, b]),
    );
    let notes = sys.run_until(secs(60));
    assert!(notes
        .iter()
        .any(|n| matches!(n, Notification::ReadFinished { .. })));
    assert_eq!(seen.get(), 30, "grants carried both fresh values");
    // Locks were released: the agents can write again immediately.
    sys.submit_at(secs(61), write_update(FragmentId(0), objs[0][0], 11));
    let notes = sys.run_until(secs(120));
    assert_eq!(committed_count(&notes), 1, "no lingering read locks");
}

#[test]
fn per_fragment_policy_lookups_resolve_overrides() {
    use fragdb_core::StrategyKind;
    let mut b = fragdb_model::FragmentCatalog::builder();
    let (f0, _) = b.add_fragment("A", 1);
    let (f1, _) = b.add_fragment("B", 1);
    let catalog = b.build();
    let config = SystemConfig::unrestricted(1)
        .with_fragment_strategy(
            f1,
            StrategyKind::ReadLocks {
                timeout: SimDuration::from_secs(1),
            },
        )
        .with_fragment_move_policy(f0, MovePolicy::NoPrep);
    let sys = System::build(
        fragdb_net::Topology::full_mesh(2, ms(1)),
        catalog,
        vec![
            (f0, fragdb_model::AgentId::Node(NodeId(0)), NodeId(0)),
            (f1, fragdb_model::AgentId::Node(NodeId(1)), NodeId(1)),
        ],
        config,
    )
    .unwrap();
    assert!(!sys.strategy_for(f0).uses_read_locks());
    assert!(sys.strategy_for(f1).uses_read_locks());
    assert_eq!(*sys.move_policy_for(f0), MovePolicy::NoPrep);
    assert_eq!(*sys.move_policy_for(f1), MovePolicy::Fixed);
    assert!(sys.replicas_of(f0).is_none(), "fully replicated by default");
    assert!(sys.replicated_at(f0, NodeId(1)));
}

#[test]
fn per_fragment_readlocks_with_movement_is_rejected() {
    use fragdb_core::{BuildError, StrategyKind};
    let mut b = fragdb_model::FragmentCatalog::builder();
    let (f0, _) = b.add_fragment("A", 1);
    let catalog = b.build();
    let config = SystemConfig::unrestricted(1)
        .with_fragment_strategy(
            f0,
            StrategyKind::ReadLocks {
                timeout: SimDuration::from_secs(1),
            },
        )
        .with_fragment_move_policy(f0, MovePolicy::NoPrep);
    let Err(err) = System::build(
        fragdb_net::Topology::full_mesh(2, ms(1)),
        catalog,
        vec![(f0, fragdb_model::AgentId::Node(NodeId(0)), NodeId(0))],
        config,
    ) else {
        panic!("locks + movement must be rejected");
    };
    assert_eq!(err, BuildError::LocksRequireFixedAgents(f0));
    assert!(err
        .to_string()
        .contains("read locks are defined for fixed agents only"));
}

#[test]
fn update_submissions_ignore_at_node_pinning() {
    // Pinning is a read-only affordance; an update pinned to a non-home
    // node must still execute at the agent's home (§3.2).
    let (mut sys, objs) = build(3, SystemConfig::unrestricted(31));
    let obj = objs[0][0];
    sys.submit_at(
        secs(1),
        Submission::update(
            FragmentId(0),
            Box::new(move |ctx| {
                assert_eq!(ctx.node(), NodeId(0), "must run at the agent home");
                ctx.write(obj, 5i64)?;
                Ok(())
            }),
        )
        .at(NodeId(2)),
    );
    let notes = sys.run_until(secs(30));
    assert_eq!(committed_count(&notes), 1);
    assert_eq!(sys.replica(NodeId(2)).read(obj), &Value::Int(5));
    assert!(fragdb_graphs::analyze(&sys.history).globally_serializable);
}

#[test]
fn majority_move_recovers_commit_command_in_flight() {
    // The §4.4.1 race: a transaction reaches its majority and commits at
    // the old home, but the CommitCmds are parked behind a partition when
    // the agent moves. Recovery must still find it — staged shares count
    // as "seen by a majority".
    let config = SystemConfig::unrestricted(40).with_move_policy(MovePolicy::MajorityCommit {
        timeout: SimDuration::from_secs(5),
    });
    let (mut sys, objs) = build(3, config);
    let obj = objs[1][0];
    // Commit normally first so replicas have staged+committed state.
    sys.submit_at(secs(1), write_update(FragmentId(1), obj, 10));
    sys.run_until(secs(5));
    // Now isolate node 2 and commit again: prepare reaches node 2? No —
    // node 2 is isolated, so the majority is {1, 0}: node 0 stages and
    // acks, CommitCmd reaches node 0. Then isolate node 1 (old home)
    // BEFORE node 0 processes nothing further... simpler: cut node 1 away
    // right after the commit instant so its CommitCmd to node 2 is parked.
    sys.net_change_at(
        secs(6),
        NetworkChange::Split(vec![vec![NodeId(2)], vec![NodeId(0), NodeId(1)]]),
    );
    sys.submit_at(secs(7), write_update(FragmentId(1), obj, 20));
    sys.run_until(secs(9));
    // Cut the old home away entirely; move the agent to node 0, which has
    // the second txn only STAGED if its CommitCmd hasn't arrived — run
    // tightly so we exercise whatever state exists.
    sys.net_change_at(
        secs(10),
        NetworkChange::Split(vec![vec![NodeId(1)], vec![NodeId(0), NodeId(2)]]),
    );
    sys.move_agent_at(secs(11), FragmentId(1), NodeId(0));
    sys.submit_at(secs(12), write_update(FragmentId(1), obj, 30));
    sys.net_change_at(secs(40), NetworkChange::HealAll);
    sys.run_until(secs(300));
    // All three updates survive, in order, everywhere.
    for node in 0..3u32 {
        assert_eq!(
            sys.replica(NodeId(node)).read(obj),
            &Value::Int(30),
            "node {node}"
        );
    }
    assert!(sys.divergent_fragments().is_empty());
    assert!(fragdb_graphs::analyze(&sys.history).fragmentwise_serializable());
}

#[test]
fn rapid_successive_moves_are_serialized() {
    let config = SystemConfig::unrestricted(41).with_move_policy(MovePolicy::WithData {
        transfer_delay: SimDuration::from_secs(5),
    });
    let (mut sys, objs) = build(3, config);
    let obj = objs[1][0];
    // Second move issued while the first courier is still in the air.
    sys.move_agent_at(secs(1), FragmentId(1), NodeId(2));
    sys.move_agent_at(secs(2), FragmentId(1), NodeId(0));
    sys.submit_at(secs(3), write_update(FragmentId(1), obj, 7));
    let notes = sys.run_until(secs(120));
    let completed = notes
        .iter()
        .filter(|n| matches!(n, Notification::MoveCompleted { .. }))
        .count();
    assert_eq!(completed, 2, "both moves eventually complete");
    assert_eq!(committed_count(&notes), 1);
    for node in 0..3u32 {
        assert_eq!(sys.replica(NodeId(node)).read(obj), &Value::Int(7));
    }
    assert!(sys.divergent_fragments().is_empty());
}
