//! Shrunk model-checking copies of every `harness::configs` registry
//! entry — the soundness-oracle direction of the `fragdb-check` wiring.
//!
//! Each admitted configuration in the registry has a counterpart here at
//! model-checking scale (2–4 nodes, 1–3 fragments, ≤4 commits) that
//! preserves its essential character: the control strategy, the movement
//! policy, replication shape, and fault profile. Exhaustive exploration of
//! the shrunk instance with zero violations is the evidence that the
//! static admission rules admit only safe configurations at small scope.
//!
//! One deliberate reduction: the `self-heal` shrink runs with the failure
//! detector *off*. A live detector re-arms its tick forever, so the
//! instance would have no quiescent states and unbounded depth; the shrink
//! keeps the §4.4.1 majority movement plus an explicit crash/recover pair,
//! which is the safety-relevant part (detector liveness is covered by
//! `tests/self_heal.rs` at simulation scale and by FDB050–FDB053
//! statically).

use fragdb_core::{MovePolicy, StrategyKind, Submission, System, SystemConfig};
use fragdb_model::{AccessDecl, AgentId, FragmentCatalog, FragmentId, NodeId, ObjectId, Value};
use fragdb_net::Topology;
use fragdb_sim::{SimDuration, SimTime};

use crate::instance::McInstance;

pub(crate) fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

pub(crate) fn at(n: u64) -> SimTime {
    SimTime::from_millis(n)
}

/// Increment `write`'s integer value by one.
pub(crate) fn bump(fragment: FragmentId, write: ObjectId) -> Submission {
    Submission::update(
        fragment,
        Box::new(move |ctx| {
            let v = match ctx.read(write) {
                Value::Int(i) => i,
                _ => 0,
            };
            ctx.write(write, Value::Int(v + 1))?;
            Ok(())
        }),
    )
}

/// Read every `reads` object, then write their sum into `write`.
pub(crate) fn sum_into(fragment: FragmentId, write: ObjectId, reads: Vec<ObjectId>) -> Submission {
    Submission::update(
        fragment,
        Box::new(move |ctx| {
            let mut total = 0;
            for &r in &reads {
                if let Value::Int(i) = ctx.read(r) {
                    total += i;
                }
            }
            ctx.write(write, Value::Int(total + 1))?;
            Ok(())
        }),
    )
}

/// Like [`sum_into`] but declaring the foreign reads, so §4.1 strategies
/// contact the read fragments' lock sites.
pub(crate) fn sum_into_locked(
    fragment: FragmentId,
    write: ObjectId,
    reads: Vec<ObjectId>,
) -> Submission {
    Submission::update_reading(
        fragment,
        reads.clone(),
        Box::new(move |ctx| {
            let mut total = 0;
            for &r in &reads {
                if let Value::Int(i) = ctx.read(r) {
                    total += i;
                }
            }
            ctx.write(write, Value::Int(total + 1))?;
            Ok(())
        }),
    )
}

pub(crate) fn node_agents(homes: &[u32]) -> Vec<(FragmentId, AgentId, NodeId)> {
    homes
        .iter()
        .enumerate()
        .map(|(f, &h)| (FragmentId(f as u32), AgentId::Node(NodeId(h)), NodeId(h)))
        .collect()
}

pub(crate) fn catalog(frags: &[&str]) -> FragmentCatalog {
    let mut b = FragmentCatalog::builder();
    for name in frags {
        b.add_fragment(*name, 1);
    }
    b.build()
}

/// `quickstart` shrink: one fragment, three nodes, unrestricted, two
/// commits.
fn quickstart(seed: u64) -> McInstance {
    McInstance::new("quickstart", true, false, move || {
        let mut sys = System::build(
            Topology::full_mesh(3, ms(5)),
            catalog(&["COUNTERS"]),
            node_agents(&[0]),
            SystemConfig::unrestricted(seed),
        )
        .expect("quickstart shrink builds");
        sys.submit_at(at(1), bump(FragmentId(0), ObjectId(0)));
        sys.submit_at(at(2), bump(FragmentId(0), ObjectId(0)));
        sys
    })
}

/// `banking-acyclic-rag` shrink: the §4.2 star on BALANCES — one activity
/// fragment posting against the central balances fragment.
fn banking(seed: u64) -> McInstance {
    McInstance::new("banking-acyclic-rag", true, false, move || {
        let bal = FragmentId(0);
        let act = FragmentId(1);
        let strategy = StrategyKind::AcyclicRag {
            decls: vec![
                AccessDecl::update(bal, [bal]),
                AccessDecl::update(act, [act, bal]),
            ],
            allow_violating_read_only: true,
        };
        let mut sys = System::build(
            Topology::full_mesh(3, ms(5)),
            catalog(&["BALANCES", "ACTIVITY"]),
            node_agents(&[0, 1]),
            SystemConfig::unrestricted(seed).with_strategy(strategy),
        )
        .expect("banking shrink builds");
        sys.submit_at(at(1), bump(bal, ObjectId(0)));
        sys.submit_at(at(2), sum_into(act, ObjectId(1), vec![ObjectId(0)]));
        sys.submit_at(at(3), bump(bal, ObjectId(0)));
        sys
    })
}

/// `warehouse-star` shrink: central scan reads both warehouses; the
/// warehouses touch only themselves.
fn warehouse(seed: u64) -> McInstance {
    McInstance::new("warehouse-star", true, false, move || {
        let c = FragmentId(0);
        let w1 = FragmentId(1);
        let w2 = FragmentId(2);
        let strategy = StrategyKind::AcyclicRag {
            decls: vec![
                AccessDecl::update(c, [c, w1, w2]),
                AccessDecl::update(w1, [w1]),
                AccessDecl::update(w2, [w2]),
            ],
            allow_violating_read_only: true,
        };
        let mut sys = System::build(
            Topology::full_mesh(3, ms(5)),
            catalog(&["CENTRAL", "W1", "W2"]),
            node_agents(&[0, 1, 2]),
            SystemConfig::unrestricted(seed).with_strategy(strategy),
        )
        .expect("warehouse shrink builds");
        sys.submit_at(at(1), bump(w1, ObjectId(1)));
        sys.submit_at(
            at(2),
            sum_into(c, ObjectId(0), vec![ObjectId(1), ObjectId(2)]),
        );
        sys.submit_at(at(3), bump(w2, ObjectId(2)));
        sys
    })
}

/// `airline-unrestricted` shrink: mutually-reading fragments under §4.3 —
/// admissible precisely because only fragmentwise serializability is
/// promised, so the checker must *not* demand the global property here.
fn airline(seed: u64) -> McInstance {
    McInstance::new("airline-unrestricted", false, false, move || {
        let f0 = FragmentId(0);
        let f1 = FragmentId(1);
        let mut sys = System::build(
            Topology::full_mesh(3, ms(5)),
            catalog(&["FLIGHTS", "SEATS"]),
            node_agents(&[0, 1]),
            SystemConfig::unrestricted(seed),
        )
        .expect("airline shrink builds");
        sys.submit_at(at(1), sum_into(f0, ObjectId(0), vec![ObjectId(1)]));
        sys.submit_at(at(2), sum_into(f1, ObjectId(1), vec![ObjectId(0)]));
        sys
    })
}

/// `ledger-read-locks` shrink: two ledgers under §4.1 remote read locks,
/// each transferring against the other (deadlocks resolve by timeout).
fn ledger(seed: u64) -> McInstance {
    McInstance::new("ledger-read-locks", true, false, move || {
        let l1 = FragmentId(0);
        let l2 = FragmentId(1);
        let mut sys = System::build(
            Topology::full_mesh(2, ms(5)),
            catalog(&["L1", "L2"]),
            node_agents(&[0, 1]),
            SystemConfig::read_locks(seed),
        )
        .expect("ledger shrink builds");
        sys.submit_at(at(1), sum_into_locked(l1, ObjectId(0), vec![ObjectId(1)]));
        sys.submit_at(at(2), sum_into_locked(l2, ObjectId(1), vec![ObjectId(0)]));
        sys
    })
}

/// `mixed-strategies` shrink: a §4.1 ledger, a §4.2 warehouse, and a
/// NoPrep-movable personal fragment that moves mid-run.
fn mixed(seed: u64) -> McInstance {
    let instance = McInstance::new("mixed-strategies", false, false, move || {
        let l = FragmentId(0);
        let w = FragmentId(1);
        let m = FragmentId(2);
        let rag = StrategyKind::AcyclicRag {
            decls: vec![AccessDecl::update(w, [w])],
            allow_violating_read_only: true,
        };
        let locks = StrategyKind::ReadLocks {
            timeout: SimDuration::from_secs(2),
        };
        let mut sys = System::build(
            Topology::full_mesh(3, ms(5)),
            catalog(&["L", "W", "M"]),
            node_agents(&[0, 1, 2]),
            SystemConfig::unrestricted(seed)
                .with_fragment_strategy(l, locks)
                .with_fragment_strategy(w, rag)
                .with_fragment_move_policy(m, MovePolicy::NoPrep),
        )
        .expect("mixed shrink builds");
        sys.submit_at(at(1), bump(l, ObjectId(0)));
        sys.submit_at(at(2), bump(w, ObjectId(1)));
        sys.submit_at(at(3), bump(m, ObjectId(2)));
        sys.move_agent_at(at(4), m, NodeId(0));
        sys
    });
    instance.with_moved(FragmentId(2))
}

/// `partial-replication-majority` shrink: one fragment on 3 of 4 nodes
/// under §4.4.1 majority commit.
fn partial_replication(seed: u64) -> McInstance {
    McInstance::new("partial-replication-majority", true, false, move || {
        let p = FragmentId(0);
        let mut sys = System::build(
            Topology::full_mesh(4, ms(5)),
            catalog(&["PROFILE"]),
            node_agents(&[0]),
            SystemConfig::unrestricted(seed)
                .with_replica_set(p, (0..3).map(NodeId))
                .with_move_policy(MovePolicy::MajorityCommit {
                    timeout: SimDuration::from_secs(2),
                }),
        )
        .expect("partial-replication shrink builds");
        sys.submit_at(at(1), bump(p, ObjectId(0)));
        sys.submit_at(at(2), bump(p, ObjectId(0)));
        sys
    })
}

/// `movement-majority` shrink: commit, move the token under §4.4.1, then
/// commit again at the new home.
fn movement(seed: u64) -> McInstance {
    let instance = McInstance::new("movement-majority", true, false, move || {
        let f = FragmentId(0);
        let mut sys = System::build(
            Topology::full_mesh(3, ms(5)),
            catalog(&["ACCOUNT"]),
            node_agents(&[0]),
            SystemConfig::unrestricted(seed).with_move_policy(MovePolicy::MajorityCommit {
                timeout: SimDuration::from_secs(2),
            }),
        )
        .expect("movement shrink builds");
        sys.submit_at(at(1), bump(f, ObjectId(0)));
        sys.move_agent_at(at(4), f, NodeId(1));
        sys.submit_at(at(8), bump(f, ObjectId(0)));
        sys
    });
    instance.with_moved(FragmentId(0))
}

/// `self-heal` shrink: §4.4.1 majority movement with an explicit
/// crash/recover pair of a non-home replica (detector off — see module
/// docs).
fn self_heal(seed: u64) -> McInstance {
    McInstance::new("self-heal", true, true, move || {
        let f = FragmentId(0);
        let mut sys = System::build(
            Topology::full_mesh(3, ms(5)),
            catalog(&["LEDGER"]),
            node_agents(&[0]),
            SystemConfig::unrestricted(seed).with_move_policy(MovePolicy::MajorityCommit {
                timeout: SimDuration::from_secs(2),
            }),
        )
        .expect("self-heal shrink builds");
        sys.submit_at(at(1), bump(f, ObjectId(0)));
        sys.crash_at(at(3), NodeId(2));
        sys.submit_at(at(5), bump(f, ObjectId(0)));
        sys.recover_at(at(8), NodeId(2));
        sys
    })
}

/// `chaos-mesh` shrink: two unrestricted fragments with a crash/recover
/// pair of one home mid-traffic.
fn chaos(seed: u64) -> McInstance {
    McInstance::new("chaos-mesh", true, true, move || {
        let f0 = FragmentId(0);
        let f1 = FragmentId(1);
        let mut sys = System::build(
            Topology::full_mesh(3, ms(5)),
            catalog(&["ORDERS", "STOCK"]),
            node_agents(&[0, 1]),
            SystemConfig::unrestricted(seed),
        )
        .expect("chaos shrink builds");
        sys.submit_at(at(1), bump(f0, ObjectId(0)));
        sys.crash_at(at(3), NodeId(1));
        sys.submit_at(at(5), bump(f0, ObjectId(0)));
        sys.recover_at(at(7), NodeId(1));
        sys.submit_at(at(9), bump(f1, ObjectId(1)));
        sys
    })
}

/// `scale-zipf-open-loop` shrink: the open-loop Zipf shape at model-check
/// scope — independent unrestricted fragments homed on distinct nodes,
/// with the hot fragment receiving skewed traffic (an update and a read
/// to the other fragment's one update, the smallest expression of a Zipf
/// key distribution). The read is the open loop's far reader: a read-only
/// submission of the hot object at N2, which homes neither fragment.
fn scale(seed: u64) -> McInstance {
    McInstance::new("scale-zipf-open-loop", true, false, move || {
        let hot = FragmentId(0);
        let cold = FragmentId(1);
        let mut sys = System::build(
            Topology::full_mesh(3, ms(5)),
            catalog(&["S0", "S1"]),
            node_agents(&[0, 1]),
            SystemConfig::unrestricted(seed),
        )
        .expect("scale shrink builds");
        sys.submit_at(at(1), bump(hot, ObjectId(0)));
        sys.submit_at(at(2), bump(cold, ObjectId(1)));
        let read_hot = Submission::read_only(
            hot,
            Box::new(|ctx| {
                ctx.read(ObjectId(0));
                Ok(())
            }),
        );
        sys.submit_at(at(3), read_hot.at(NodeId(2)));
        sys
    })
}

/// The full shrunk registry, in the same order as
/// `fragdb_harness::configs::all`. A test asserts the name sets match, so
/// adding a registry entry without a shrunk counterpart fails CI.
pub fn shrunk_registry(seed: u64) -> Vec<McInstance> {
    vec![
        quickstart(seed),
        banking(seed),
        warehouse(seed),
        airline(seed),
        ledger(seed),
        mixed(seed),
        partial_replication(seed),
        movement(seed),
        self_heal(seed),
        chaos(seed),
        scale(seed),
    ]
}

/// Look up one shrunk instance by registry name.
pub fn shrunk_by_name(name: &str, seed: u64) -> Option<McInstance> {
    shrunk_registry(seed).into_iter().find(|i| i.name == name)
}
