//! Transactions run in buffers the system lends them and takes back,
//! cleared, however they end. These tests pin what reuse must never do:
//! leak one transaction's reads or writes into the next. Each runs a
//! program that buffers reads and writes and then aborts, one test per
//! abort path, and checks that the clean update run after it has exactly
//! its own history, WAL entry and payload.

use fragdb_core::{AbortReason, Notification, StrategyKind, Submission, System, SystemConfig};
use fragdb_model::{
    AgentId, FragmentCatalog, FragmentId, NodeId, ObjectId, OpKind, TxnId, UserId, Value,
};
use fragdb_net::Topology;
use fragdb_sim::{SimDuration, SimTime};

const F0: FragmentId = FragmentId(0);
const F1: FragmentId = FragmentId(1);
const F3: FragmentId = FragmentId(3);

/// Four fragments of two objects on three nodes: F0 and F3 homed at node
/// 0, F1 at node 1, F2 at node 2.
fn build(config: SystemConfig) -> (System, Vec<Vec<ObjectId>>) {
    let mut b = FragmentCatalog::builder();
    let objs = (0..4)
        .map(|f| b.add_fragment(format!("F{f}"), 2).1)
        .collect();
    let agents = vec![
        (F0, AgentId::Node(NodeId(0)), NodeId(0)),
        (F1, AgentId::User(UserId(1)), NodeId(1)),
        (FragmentId(2), AgentId::User(UserId(2)), NodeId(2)),
        (F3, AgentId::User(UserId(3)), NodeId(0)),
    ];
    let topology = Topology::full_mesh(3, SimDuration::from_millis(10));
    (
        System::build(topology, b.build(), agents, config).unwrap(),
        objs,
    )
}

/// An update on F0 that reads `reads`, writes 1 and 2 to F0's objects and
/// then runs `tail`, which decides how it ends.
fn dirty(
    objs: &[Vec<ObjectId>],
    reads: Vec<ObjectId>,
    tail: impl FnOnce(&mut fragdb_core::TxnCtx<'_>) -> Result<(), fragdb_core::ProgramError> + 'static,
) -> Submission {
    let (a, b) = (objs[0][0], objs[0][1]);
    Submission::update(
        F0,
        Box::new(move |ctx| {
            for o in reads {
                ctx.read(o);
            }
            ctx.write(a, 1i64)?;
            ctx.write(b, 2i64)?;
            tail(ctx)
        }),
    )
}

/// Run `sys` to quiescence; the one abort of a transaction homed at node 0
/// must carry `reason`. Then one clean update on F0 reads F0's second
/// object and writes 77 to its first: the history, the WAL and every
/// installed payload hold exactly that, and nothing of the aborted
/// transaction appears anywhere.
fn assert_clean_after_abort(mut sys: System, objs: &[Vec<ObjectId>], reason: AbortReason) {
    let notes = sys.run_until(SimTime::from_secs(10));
    let aborted: Vec<TxnId> = notes
        .iter()
        .filter_map(|n| match n {
            Notification::Aborted { txn, reason: r, .. } if txn.origin == NodeId(0) => {
                assert_eq!(*r, reason);
                Some(*txn)
            }
            _ => None,
        })
        .collect();
    assert_eq!(aborted.len(), 1, "one abort: {notes:?}");

    let (a, b) = (objs[0][0], objs[0][1]);
    let clean = Submission::update(
        F0,
        Box::new(move |ctx| {
            let _ = ctx.read(b);
            ctx.write(a, 77i64)?;
            Ok(())
        }),
    );
    sys.submit_at(SimTime::from_secs(20), clean);
    let notes = sys.run_until(SimTime::from_secs(40));
    let txn = notes
        .iter()
        .find_map(|n| match n {
            Notification::Committed { txn, .. } => Some(*txn),
            _ => None,
        })
        .expect("the clean update commits");

    let home_ops: Vec<(OpKind, ObjectId)> = sys
        .history
        .ops()
        .filter(|op| op.txn == txn && !op.is_install)
        .map(|op| (op.kind, op.object))
        .collect();
    assert_eq!(home_ops, [(OpKind::Read, b), (OpKind::Write, a)]);
    assert!(sys.history.ops().all(|op| op.txn != aborted[0]));

    let payload = vec![(a, Value::Int(77))];
    for node in 0..sys.node_count() {
        let wal = sys.replica(NodeId(node)).wal();
        let entry = wal.entries().find(|e| e.txn == txn).expect("installed");
        assert_eq!(entry.updates.to_vec(), payload, "WAL at node {node}");
        assert!(wal.entries().all(|e| e.txn != aborted[0]));
    }
    let installs: Vec<_> = (notes.iter())
        .filter_map(|n| match n {
            Notification::Installed { quasi, .. } if quasi.txn == txn => Some(quasi),
            _ => None,
        })
        .collect();
    assert_eq!(installs.len(), 2, "one install per other replica");
    for quasi in installs {
        assert_eq!(quasi.updates.to_vec(), payload);
    }
}

#[test]
fn a_logic_abort_leaves_nothing_in_the_next_transaction() {
    let (mut sys, objs) = build(SystemConfig::unrestricted(1));
    let reads = vec![objs[0][1], objs[1][0]];
    let sub = dirty(&objs, reads, |ctx| Err(ctx.abort("changed its mind")));
    sys.submit_at(SimTime::from_secs(1), sub);
    let reason = AbortReason::Logic("changed its mind".into());
    assert_clean_after_abort(sys, &objs, reason);
}

#[test]
fn an_initiation_violation_leaves_nothing_in_the_next_transaction() {
    let (mut sys, objs) = build(SystemConfig::unrestricted(2));
    let foreign = objs[1][0];
    let sub = dirty(&objs, vec![objs[0][1]], move |ctx| ctx.write(foreign, 3i64));
    sys.submit_at(SimTime::from_secs(1), sub);
    assert_clean_after_abort(sys, &objs, AbortReason::Initiation);
}

#[test]
fn an_undeclared_class_leaves_nothing_in_the_next_transaction() {
    let decls = (0..4).map(|f| fragdb_model::AccessDecl::update(FragmentId(f), [FragmentId(f)]));
    let config = SystemConfig::unrestricted(3).with_strategy(StrategyKind::AcyclicRag {
        decls: decls.collect(),
        allow_violating_read_only: false,
    });
    let (mut sys, objs) = build(config);
    // F0's agent reading F1 is not a declared class.
    let sub = dirty(&objs, vec![objs[0][1], objs[1][0]], |_| Ok(()));
    sys.submit_at(SimTime::from_secs(1), sub);
    assert_clean_after_abort(sys, &objs, AbortReason::UndeclaredClass);
}

#[test]
fn a_read_at_a_non_replica_leaves_nothing_in_the_next_transaction() {
    let config = SystemConfig::unrestricted(4).with_replica_set(F1, [NodeId(1), NodeId(2)]);
    let (mut sys, objs) = build(config);
    let sub = dirty(&objs, vec![objs[0][1], objs[1][0]], |_| Ok(()));
    sys.submit_at(SimTime::from_secs(1), sub);
    let (o, frag) = (objs[1][0], F1);
    let why = format!(
        "read of {o} at {}, which holds no replica of {frag}",
        NodeId(0)
    );
    assert_clean_after_abort(sys, &objs, AbortReason::Logic(why));
}

/// §4.1: the F0 update holds a shared lock on F3's object (its lock site
/// is its own node) while its grant from node 1 is in flight. Meanwhile an
/// F3 update takes a shared lock on F0's object and queues for an
/// exclusive lock on its own object behind F0's shared one. When the F0
/// update has run, its exclusive lock would close the cycle: it is denied,
/// and the F0 update aborts as a deadlock with its effects buffered.
#[test]
fn a_lock_denial_leaves_nothing_in_the_next_transaction() {
    let config = SystemConfig::unrestricted(5).with_strategy(StrategyKind::ReadLocks {
        timeout: SimDuration::from_secs(5),
    });
    let (mut sys, objs) = build(config);
    let (a, x3, y1) = (objs[0][0], objs[3][0], objs[1][0]);
    let reads = vec![x3, y1];
    let first = dirty(&objs, reads.clone(), |_| Ok(()));
    sys.submit_at(SimTime::from_secs(1), first.with_foreign_reads(reads));
    let second = Submission::update_reading(
        F3,
        vec![a],
        Box::new(move |ctx| {
            let v = ctx.read_int(a, 0);
            ctx.write(x3, v + 1)?;
            Ok(())
        }),
    );
    sys.submit_at(SimTime::from_secs(1) + SimDuration::from_millis(1), second);
    assert_clean_after_abort(sys, &objs, AbortReason::Deadlock);
}
