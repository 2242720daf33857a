//! One test per `FDB0xx` code, plus the acceptance case: a deliberately
//! mutually-reading two-class §4.2 configuration must be rejected with a
//! diagnostic naming both inducing classes and the edge to remove.

use std::collections::BTreeSet;

use fragdb_check::{
    admit, build_admitted, check, check_fragment_disjointness, AdmissionError, AdmissionPolicy,
    CheckInput, ClassDecl, Code, Severity,
};
use fragdb_core::{DetectorConfig, MovePolicy, StrategyKind, SystemConfig};
use fragdb_model::{AgentId, Fragment, FragmentCatalog, FragmentId, NodeId, ObjectId};
use fragdb_net::Topology;
use fragdb_sim::SimDuration;

fn f(i: u32) -> FragmentId {
    FragmentId(i)
}

fn n(i: u32) -> NodeId {
    NodeId(i)
}

/// `k` fragments of 2 objects each, one node-agent per fragment at node i,
/// full mesh over `nodes` nodes.
fn schema(
    k: u32,
    nodes: u32,
) -> (
    FragmentCatalog,
    Vec<(FragmentId, AgentId, NodeId)>,
    Topology,
) {
    let mut b = FragmentCatalog::builder();
    let frags: Vec<_> = (0..k)
        .map(|i| b.add_fragment(format!("F{i}"), 2).0)
        .collect();
    let agents = frags
        .iter()
        .map(|&fr| (fr, AgentId::Node(n(fr.0)), n(fr.0)))
        .collect();
    (
        b.build(),
        agents,
        Topology::full_mesh(nodes, SimDuration::from_millis(1)),
    )
}

fn acyclic_rag_config(classes: &[ClassDecl], seed: u64) -> SystemConfig {
    SystemConfig::unrestricted(seed).with_strategy(StrategyKind::AcyclicRag {
        decls: classes.iter().map(ClassDecl::to_access).collect(),
        allow_violating_read_only: true,
    })
}

#[test]
fn fdb001_overlapping_fragments() {
    let frags = vec![
        Fragment::new(f(0), "A", vec![ObjectId(0), ObjectId(1)]),
        Fragment::new(f(1), "B", vec![ObjectId(1), ObjectId(2)]),
    ];
    let out = check_fragment_disjointness(&frags);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].code, Code::Fdb001);
    assert!(out[0].message.contains("x1"), "{}", out[0]);
    // A proper catalog is clean.
    let (catalog, _, _) = schema(2, 2);
    assert!(check_fragment_disjointness(catalog.fragments()).is_empty());
}

#[test]
fn fdb002_token_problems() {
    let (catalog, mut agents, topology) = schema(2, 3);
    // Missing agent for F1, duplicate for F0, and one for a ghost fragment.
    agents.remove(1);
    agents.push((f(0), AgentId::User(fragdb_model::UserId(1)), n(1)));
    agents.push((f(9), AgentId::User(fragdb_model::UserId(2)), n(2)));
    let config = SystemConfig::unrestricted(1);
    let report = check(&CheckInput {
        topology: &topology,
        catalog: &catalog,
        agents: &agents,
        classes: &[],
        config: &config,
    });
    let fdb002: Vec<_> = report
        .diagnostics()
        .iter()
        .filter(|d| d.code == Code::Fdb002)
        .collect();
    assert_eq!(fdb002.len(), 3, "missing + duplicate + unknown: {report}");
    assert!(!report.is_admissible());
}

#[test]
fn fdb003_bad_homes() {
    let (catalog, _, topology) = schema(2, 2);
    // F0's node agent homed at a foreign node; F1's home out of range.
    let agents = vec![
        (f(0), AgentId::Node(n(0)), n(1)),
        (f(1), AgentId::Node(n(7)), n(7)),
    ];
    let config = SystemConfig::unrestricted(1);
    let report = check(&CheckInput {
        topology: &topology,
        catalog: &catalog,
        agents: &agents,
        classes: &[],
        config: &config,
    });
    assert_eq!(
        report
            .diagnostics()
            .iter()
            .filter(|d| d.code == Code::Fdb003)
            .count(),
        2,
        "{report}"
    );
}

#[test]
fn fdb010_foreign_write_is_an_error() {
    let (catalog, agents, topology) = schema(2, 2);
    let bad = ClassDecl {
        name: "rogue".into(),
        initiator: f(0),
        reads: BTreeSet::new(),
        writes: [f(1)].into_iter().collect(),
    };
    let config = SystemConfig::unrestricted(1);
    let report = check(&CheckInput {
        topology: &topology,
        catalog: &catalog,
        agents: &agents,
        classes: &[bad],
        config: &config,
    });
    let d010 = report
        .diagnostics()
        .iter()
        .find(|d| d.code == Code::Fdb010)
        .expect("rogue write flagged");
    assert!(d010.subject.contains("rogue"));
    assert_eq!(d010.severity, Severity::Error);
    assert!(!report.is_admissible());
}

/// A detector with nothing to protect costs heartbeats, not safety: FDB050
/// warns and the configuration is admitted.
#[test]
fn fdb050_inert_detector_is_a_warning() {
    let (catalog, agents, topology) = schema(2, 3);
    let inert = SystemConfig::unrestricted(1)
        .with_detector(DetectorConfig::period(SimDuration::from_millis(50)));
    let report = check(&CheckInput {
        topology: &topology,
        catalog: &catalog,
        agents: &agents,
        classes: &[],
        config: &inert,
    });
    let d050 = report
        .diagnostics()
        .iter()
        .find(|d| d.code == Code::Fdb050)
        .expect("inert detector flagged");
    assert_eq!(d050.severity, Severity::Warning);
    assert_eq!(Code::Fdb050.severity(), Severity::Warning);
    assert!(report.is_admissible(), "{report}");
}

/// The acceptance criterion: two classes reading each other under §4.2.
#[test]
fn fdb020_mutually_reading_classes_are_rejected_with_edge_and_classes() {
    let (catalog, agents, topology) = schema(2, 2);
    let classes = vec![
        ClassDecl::update("post-activity", f(0), [f(0), f(1)]),
        ClassDecl::update("post-balance", f(1), [f(1), f(0)]),
    ];
    let config = acyclic_rag_config(&classes, 7);
    let report = match build_admitted(
        topology,
        catalog,
        agents,
        &classes,
        config,
        AdmissionPolicy::Enforce,
    ) {
        Err(AdmissionError::Rejected(report)) => report,
        Err(other) => panic!("expected admission rejection, got {other}"),
        Ok(_) => panic!("mutually-reading §4.2 config was admitted"),
    };
    let d = report
        .diagnostics()
        .iter()
        .find(|d| d.code == Code::Fdb020)
        .expect("FDB020 present");
    // The antiparallel pair F0<->F1: the second directed edge closes the
    // cycle, and the diagnostic names the edge and its inducing class;
    // the other class of the pair appears in the help's alternatives.
    assert!(d.subject.contains("F1 -> F0"), "edge named: {d}");
    assert!(d.subject.contains("post-balance"), "inducing class: {d}");
    let whole = report.to_string();
    assert!(
        whole.contains("post-activity") && whole.contains("post-balance"),
        "both classes of the mutual read appear in the report:\n{whole}"
    );
}

/// The parallel-edge case: two *distinct classes* inducing F0->F1 and
/// F1->F0 is exactly the two-parallel-undirected-edges cycle of §4.2.
#[test]
fn fdb020_parallel_edge_case_reports_minimal_removal() {
    let (catalog, agents, topology) = schema(3, 3);
    // Chain F0->F1, F1->F2 (fine) plus the antiparallel F1->F0 (cycle).
    let classes = vec![
        ClassDecl::update("a", f(0), [f(1)]),
        ClassDecl::update("b", f(1), [f(2)]),
        ClassDecl::update("c", f(1), [f(0)]),
    ];
    let config = acyclic_rag_config(&classes, 7);
    let report = check(&CheckInput {
        topology: &topology,
        catalog: &catalog,
        agents: &agents,
        classes: &classes,
        config: &config,
    });
    let cycles: Vec<_> = report
        .diagnostics()
        .iter()
        .filter(|d| d.code == Code::Fdb020)
        .collect();
    assert_eq!(cycles.len(), 1, "minimal removal set is one edge: {report}");
    assert!(cycles[0].subject.contains("F1 -> F0"));
    assert!(cycles[0].subject.contains("`c`"));
}

#[test]
fn fdb021_own_fragment_read_is_informational() {
    let (catalog, agents, topology) = schema(2, 2);
    let classes = vec![ClassDecl::update("self-scan", f(0), [f(0)])];
    let config = acyclic_rag_config(&classes, 7);
    let report = check(&CheckInput {
        topology: &topology,
        catalog: &catalog,
        agents: &agents,
        classes: &classes,
        config: &config,
    });
    let d = report
        .diagnostics()
        .iter()
        .find(|d| d.code == Code::Fdb021)
        .expect("own-fragment read surfaced");
    assert_eq!(d.severity, Severity::Info);
    assert!(d.subject.contains("self-scan"));
    assert!(report.is_admissible(), "info does not block admission");
}

#[test]
fn fdb022_acyclic_rag_without_classes() {
    let (catalog, agents, topology) = schema(1, 1);
    let config = acyclic_rag_config(&[], 7);
    let report = check(&CheckInput {
        topology: &topology,
        catalog: &catalog,
        agents: &agents,
        classes: &[],
        config: &config,
    });
    assert!(report.has(Code::Fdb022));
    assert!(report.is_admissible(), "a warning, not an error");
}

#[test]
fn fdb030_majority_unreachable() {
    // Line topology 0-1-2 minus links: use two disconnected pairs. Node 0
    // alone cannot reach a majority of 5 under majority commit.
    let mut topology = Topology::new(5);
    topology.add_link(n(0), n(1), SimDuration::from_millis(1));
    // Nodes 2,3,4 unreachable from 0.
    let (catalog, agents, _) = schema(1, 5);
    let config = SystemConfig::unrestricted(1).with_move_policy(MovePolicy::MajorityCommit {
        timeout: SimDuration::from_secs(5),
    });
    let report = check(&CheckInput {
        topology: &topology,
        catalog: &catalog,
        agents: &agents,
        classes: &[],
        config: &config,
    });
    let d = report
        .diagnostics()
        .iter()
        .find(|d| d.code == Code::Fdb030)
        .expect("majority unreachable");
    assert!(d.message.contains("3 of 5"), "{d}");
    // With a replica set of {0, 1} the majority is 2 and reachable.
    let config = config.with_replica_set(f(0), [n(0), n(1)]);
    let report = check(&CheckInput {
        topology: &topology,
        catalog: &catalog,
        agents: &agents,
        classes: &[],
        config: &config,
    });
    assert!(!report.has(Code::Fdb030), "{report}");
}

#[test]
fn fdb031_lock_site_unreachable() {
    let topology = Topology::new(2); // no links at all
    let (catalog, agents, _) = schema(2, 2);
    let classes = vec![ClassDecl::update("cross-read", f(0), [f(0), f(1)])];
    let config = SystemConfig::read_locks(1);
    let report = check(&CheckInput {
        topology: &topology,
        catalog: &catalog,
        agents: &agents,
        classes: &classes,
        config: &config,
    });
    let d = report
        .diagnostics()
        .iter()
        .find(|d| d.code == Code::Fdb031)
        .expect("lock site unreachable");
    assert!(d.subject.contains("cross-read"));
}

#[test]
fn fdb032_uncovered_read_under_partial_replication() {
    let (catalog, agents, topology) = schema(2, 3);
    // F1 replicated only at {1, 2}; F0's home (node 0) reads it.
    let classes = vec![ClassDecl::update("scan", f(0), [f(0), f(1)])];
    let config = SystemConfig::unrestricted(1).with_replica_set(f(1), [n(1), n(2)]);
    let report = check(&CheckInput {
        topology: &topology,
        catalog: &catalog,
        agents: &agents,
        classes: &classes,
        config: &config,
    });
    let d = report
        .diagnostics()
        .iter()
        .find(|d| d.code == Code::Fdb032)
        .expect("uncovered read");
    assert!(d.subject.contains("scan"));
    // Covering the read fixes it.
    let config = config.with_replica_set(f(1), [n(0), n(1), n(2)]);
    let report = check(&CheckInput {
        topology: &topology,
        catalog: &catalog,
        agents: &agents,
        classes: &classes,
        config: &config,
    });
    assert!(!report.has(Code::Fdb032));
}

#[test]
fn fdb033_locks_with_movement() {
    let (catalog, agents, topology) = schema(1, 2);
    let config = SystemConfig::read_locks(1).with_move_policy(MovePolicy::NoPrep);
    let report = check(&CheckInput {
        topology: &topology,
        catalog: &catalog,
        agents: &agents,
        classes: &[],
        config: &config,
    });
    assert!(report.has(Code::Fdb033));
    assert!(!report.is_admissible());
}

#[test]
fn fdb034_home_outside_replica_set() {
    let (catalog, agents, topology) = schema(1, 3);
    let config = SystemConfig::unrestricted(1).with_replica_set(f(0), [n(1), n(2)]);
    let report = check(&CheckInput {
        topology: &topology,
        catalog: &catalog,
        agents: &agents,
        classes: &[],
        config: &config,
    });
    let d = report
        .diagnostics()
        .iter()
        .find(|d| d.code == Code::Fdb034)
        .expect("home outside replica set");
    assert!(d.message.contains("N0"));
}

#[test]
fn fdb035_malformed_replica_sets() {
    let (catalog, agents, topology) = schema(1, 2);
    let config = SystemConfig::unrestricted(1)
        .with_replica_set(f(0), [n(0), n(9)]) // out-of-range member
        .with_replica_set(f(7), [n(0)]); // unknown fragment
    let report = check(&CheckInput {
        topology: &topology,
        catalog: &catalog,
        agents: &agents,
        classes: &[],
        config: &config,
    });
    assert_eq!(
        report
            .diagnostics()
            .iter()
            .filter(|d| d.code == Code::Fdb035)
            .count(),
        2,
        "{report}"
    );
    // Empty set.
    let config = SystemConfig::unrestricted(1).with_replica_set(f(0), []);
    let report = check(&CheckInput {
        topology: &topology,
        catalog: &catalog,
        agents: &agents,
        classes: &[],
        config: &config,
    });
    assert!(report.has(Code::Fdb035));
}

#[test]
fn fdb040_lock_order_cycle() {
    let (catalog, agents, topology) = schema(2, 2);
    let classes = vec![
        ClassDecl::update("left", f(0), [f(0), f(1)]),
        ClassDecl::update("right", f(1), [f(1), f(0)]),
    ];
    let config = SystemConfig::read_locks(1);
    let report = check(&CheckInput {
        topology: &topology,
        catalog: &catalog,
        agents: &agents,
        classes: &classes,
        config: &config,
    });
    let d = report
        .diagnostics()
        .iter()
        .find(|d| d.code == Code::Fdb040)
        .expect("lock cycle flagged");
    assert_eq!(d.severity, Severity::Warning);
    assert!(d.subject.contains("left") && d.subject.contains("right"));
    assert!(report.is_admissible(), "deadlocks resolve by timeout");
    // One-directional reads are clean.
    let classes = vec![ClassDecl::update("left", f(0), [f(0), f(1)])];
    let report = check(&CheckInput {
        topology: &topology,
        catalog: &catalog,
        agents: &agents,
        classes: &classes,
        config: &config,
    });
    assert!(!report.has(Code::Fdb040));
}

#[test]
fn admission_policy_warn_lets_bad_configs_through() {
    let (catalog, agents, topology) = schema(2, 2);
    let classes = vec![
        ClassDecl::update("a", f(0), [f(0), f(1)]),
        ClassDecl::update("b", f(1), [f(1), f(0)]),
    ];
    // Strategy stays Unrestricted so only the *declared* config is bad
    // under Enforce-with-AcyclicRag; under Warn even an erroring report
    // does not abort admission (System::build may still refuse).
    let config = acyclic_rag_config(&classes, 3);
    let input = CheckInput {
        topology: &topology,
        catalog: &catalog,
        agents: &agents,
        classes: &classes,
        config: &config,
    };
    assert!(admit(&input, AdmissionPolicy::Enforce).is_err());
    let report = admit(&input, AdmissionPolicy::Warn).expect("warn admits");
    assert!(!report.is_admissible());
    // But the strategy's own validation still refuses at build time.
    match build_admitted(
        topology,
        catalog,
        agents,
        &classes,
        config,
        AdmissionPolicy::Warn,
    ) {
        Err(AdmissionError::Build(_)) => {}
        Err(other) => panic!("expected build failure, got {other}"),
        Ok(_) => panic!("cyclic §4.2 strategy built anyway"),
    }
}

#[test]
fn clean_config_is_admitted_and_builds() {
    let (catalog, agents, topology) = schema(3, 3);
    // A star: F0 reads every other fragment — elementarily acyclic.
    let classes = vec![
        ClassDecl::update("central-scan", f(0), [f(0), f(1), f(2)]),
        ClassDecl::update("local-1", f(1), [f(1)]),
        ClassDecl::update("local-2", f(2), [f(2)]),
    ];
    let config = acyclic_rag_config(&classes, 11);
    let (system, report) = build_admitted(
        topology,
        catalog,
        agents,
        &classes,
        config,
        AdmissionPolicy::Enforce,
    )
    .expect("clean config admitted");
    assert_eq!(system.node_count(), 3);
    assert!(report.is_admissible());
}

#[test]
fn fdb05x_self_heal_admission() {
    let (catalog, agents, topology) = schema(1, 4);
    let input = |config: &SystemConfig| {
        check(&CheckInput {
            topology: &topology,
            catalog: &catalog,
            agents: &agents,
            classes: &[],
            config,
        })
        .into_diagnostics()
        .into_iter()
        .collect::<Vec<_>>()
    };

    // FDB050 (detector with nothing to protect):
    // `fdb050_inert_detector_is_a_warning`.

    // Majority commit but only 2 replicas: a majority must include the
    // dead home, so the election is unwinnable (FDB051, warning only).
    let two_replica = SystemConfig::unrestricted(1)
        .with_move_policy(MovePolicy::MajorityCommit {
            timeout: SimDuration::from_secs(5),
        })
        .with_replica_set(f(0), [n(0), n(1)])
        .with_detector(DetectorConfig::period(SimDuration::from_millis(50)));
    let diags = input(&two_replica);
    let d = diags
        .iter()
        .find(|d| d.code == Code::Fdb051)
        .expect("FDB051 expected");
    assert_eq!(d.severity, Severity::Warning);
    assert!(d.subject.contains("F0"), "{d}");
    assert!(!diags.iter().any(|d| d.code == Code::Fdb050));

    // Zero election timeout: every round aborts before a vote lands.
    let hasty = SystemConfig::unrestricted(1)
        .with_move_policy(MovePolicy::MajorityCommit {
            timeout: SimDuration::from_secs(5),
        })
        .with_detector(
            DetectorConfig::period(SimDuration::from_millis(50))
                .with_election_timeout(SimDuration::ZERO),
        );
    let diags = input(&hasty);
    assert!(diags.iter().any(|d| d.code == Code::Fdb052));
    // Zero timeout is FDB052's finding alone, not double-reported as 053.
    assert!(!diags.iter().any(|d| d.code == Code::Fdb053));

    // Election timeout below the detection bound (50ms * (3+1) = 200ms):
    // rounds expire before the failure they react to can be confirmed.
    let livelocked = SystemConfig::unrestricted(1)
        .with_move_policy(MovePolicy::MajorityCommit {
            timeout: SimDuration::from_secs(5),
        })
        .with_detector(
            DetectorConfig::period(SimDuration::from_millis(50))
                .with_election_timeout(SimDuration::from_millis(100)),
        );
    let diags = input(&livelocked);
    let d = diags
        .iter()
        .find(|d| d.code == Code::Fdb053)
        .expect("FDB053 expected");
    assert_eq!(d.severity, Severity::Error);
    assert!(d.message.contains("detection bound"), "{d}");

    // A timeout exactly at the bound is the threshold case: admitted.
    let at_bound = SystemConfig::unrestricted(1)
        .with_move_policy(MovePolicy::MajorityCommit {
            timeout: SimDuration::from_secs(5),
        })
        .with_detector(
            DetectorConfig::period(SimDuration::from_millis(50))
                .with_election_timeout(SimDuration::from_millis(200)),
        );
    assert!(!input(&at_bound).iter().any(|d| d.code == Code::Fdb053));

    // A well-formed self-healing config raises none of the block.
    let sound = SystemConfig::unrestricted(1)
        .with_move_policy(MovePolicy::MajorityCommit {
            timeout: SimDuration::from_secs(5),
        })
        .with_detector(DetectorConfig::period(SimDuration::from_millis(50)));
    let diags = input(&sound);
    assert!(!diags.iter().any(|d| matches!(
        d.code,
        Code::Fdb050 | Code::Fdb051 | Code::Fdb052 | Code::Fdb053
    )));

    // Detector off: the FDB05x block is silent even on a 2-replica set.
    let off = SystemConfig::unrestricted(1)
        .with_move_policy(MovePolicy::MajorityCommit {
            timeout: SimDuration::from_secs(5),
        })
        .with_replica_set(f(0), [n(0), n(1)]);
    let diags = input(&off);
    assert!(!diags.iter().any(|d| matches!(
        d.code,
        Code::Fdb050 | Code::Fdb051 | Code::Fdb052 | Code::Fdb053
    )));
}

#[test]
fn fdb060_unreachable_replica_diverges() {
    // Nodes 0-1 linked; node 2 is an island but still claims a replica.
    // A majority (0, 1) stays reachable, so FDB030 stays silent — the
    // divergence is exactly what FDB060 exists to catch.
    let mut topology = Topology::new(3);
    topology.add_link(n(0), n(1), SimDuration::from_millis(1));
    let (catalog, agents, _) = schema(1, 3);
    let config = SystemConfig::unrestricted(1)
        .with_move_policy(MovePolicy::MajorityCommit {
            timeout: SimDuration::from_secs(5),
        })
        .with_replica_set(f(0), [n(0), n(1), n(2)]);
    let report = check(&CheckInput {
        topology: &topology,
        catalog: &catalog,
        agents: &agents,
        classes: &[],
        config: &config,
    });
    let d = report
        .diagnostics()
        .iter()
        .find(|d| d.code == Code::Fdb060)
        .expect("unreachable replica");
    assert!(d.message.contains("N2"), "{d}");
    assert_eq!(d.severity, Severity::Error);
    assert!(
        !report.has(Code::Fdb030),
        "majority itself is reachable: {report}"
    );
    assert!(!report.is_admissible());
    // Dropping the island fixes it.
    let config = SystemConfig::unrestricted(1)
        .with_move_policy(MovePolicy::MajorityCommit {
            timeout: SimDuration::from_secs(5),
        })
        .with_replica_set(f(0), [n(0), n(1)]);
    let report = check(&CheckInput {
        topology: &topology,
        catalog: &catalog,
        agents: &agents,
        classes: &[],
        config: &config,
    });
    assert!(!report.has(Code::Fdb060), "{report}");
}

#[test]
fn fdb061_even_replica_set_under_majority_commit() {
    let (catalog, agents, topology) = schema(1, 5);
    let even = SystemConfig::unrestricted(1)
        .with_move_policy(MovePolicy::MajorityCommit {
            timeout: SimDuration::from_secs(5),
        })
        .with_replica_set(f(0), [n(0), n(1), n(2), n(3)]);
    let report = check(&CheckInput {
        topology: &topology,
        catalog: &catalog,
        agents: &agents,
        classes: &[],
        config: &even,
    });
    let d = report
        .diagnostics()
        .iter()
        .find(|d| d.code == Code::Fdb061)
        .expect("even set warned");
    assert_eq!(d.severity, Severity::Warning);
    assert!(d.message.contains("4"), "{d}");
    assert!(report.is_admissible(), "warning, not error: {report}");
    // Odd set: silent. Even set without majority commit: also silent.
    let odd = SystemConfig::unrestricted(1)
        .with_move_policy(MovePolicy::MajorityCommit {
            timeout: SimDuration::from_secs(5),
        })
        .with_replica_set(f(0), [n(0), n(1), n(2)]);
    let report = check(&CheckInput {
        topology: &topology,
        catalog: &catalog,
        agents: &agents,
        classes: &[],
        config: &odd,
    });
    assert!(!report.has(Code::Fdb061), "{report}");
    let unrestricted = SystemConfig::unrestricted(1).with_replica_set(f(0), [n(0), n(1)]);
    let report = check(&CheckInput {
        topology: &topology,
        catalog: &catalog,
        agents: &agents,
        classes: &[],
        config: &unrestricted,
    });
    assert!(!report.has(Code::Fdb061), "{report}");
}

#[test]
fn fdb062_replica_set_naming_every_node() {
    let (catalog, agents, topology) = schema(1, 3);
    let config = SystemConfig::unrestricted(1).with_replica_set(f(0), [n(0), n(1), n(2)]);
    let report = check(&CheckInput {
        topology: &topology,
        catalog: &catalog,
        agents: &agents,
        classes: &[],
        config: &config,
    });
    let d = report
        .diagnostics()
        .iter()
        .find(|d| d.code == Code::Fdb062)
        .expect("full-set note");
    assert_eq!(d.severity, Severity::Info);
    assert!(report.is_admissible());
    // A genuinely partial set is silent.
    let config = SystemConfig::unrestricted(1).with_replica_set(f(0), [n(0), n(1)]);
    let report = check(&CheckInput {
        topology: &topology,
        catalog: &catalog,
        agents: &agents,
        classes: &[],
        config: &config,
    });
    assert!(!report.has(Code::Fdb062), "{report}");
}
