//! The registry of shipped configurations, in the form the static
//! admission analyzer consumes.
//!
//! Every example and experiment in this workspace boils down to a
//! `(topology, catalog, agents, classes, config)` tuple. This module
//! names each one so `fragdb-check` can certify them all — the
//! `examples/check.rs` CLI iterates [`all`] and CI fails if any shipped
//! configuration stops passing admission.

use fragdb_check::{admit, AdmissionError, AdmissionPolicy, CheckInput, ClassDecl, Report};
use fragdb_core::{DetectorConfig, MovePolicy, StrategyKind, SystemConfig};
use fragdb_model::{AgentId, FragmentCatalog, FragmentId, NodeId, UserId};
use fragdb_net::Topology;
use fragdb_sim::SimDuration;
use fragdb_workloads::{AirlineSchema, BankConfig, BankSchema, WarehouseConfig, WarehouseSchema};

/// A shipped configuration under a stable name, ready for admission.
pub struct NamedConfig {
    /// Registry name (stable; used by the `check` CLI and CI logs).
    pub name: &'static str,
    /// Where the configuration comes from.
    pub source: &'static str,
    /// Node graph.
    pub topology: Topology,
    /// Fragment → object map.
    pub catalog: FragmentCatalog,
    /// `(fragment, agent, home)` token assignment.
    pub agents: Vec<(FragmentId, AgentId, NodeId)>,
    /// Named transaction classes.
    pub classes: Vec<ClassDecl>,
    /// Strategy/movement/replication choices.
    pub config: SystemConfig,
}

impl NamedConfig {
    /// Borrow the fields as a [`CheckInput`].
    pub fn input(&self) -> CheckInput<'_> {
        CheckInput {
            topology: &self.topology,
            catalog: &self.catalog,
            agents: &self.agents,
            classes: &self.classes,
            config: &self.config,
        }
    }

    /// Run admission over this configuration.
    pub fn admit(&self, policy: AdmissionPolicy) -> Result<Report, AdmissionError> {
        admit(&self.input(), policy)
    }
}

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

/// `examples/quickstart.rs`: one fragment, three nodes, unrestricted.
fn quickstart(seed: u64) -> NamedConfig {
    let mut b = FragmentCatalog::builder();
    let (counters, _) = b.add_fragment("COUNTERS", 2);
    NamedConfig {
        name: "quickstart",
        source: "examples/quickstart.rs",
        topology: Topology::full_mesh(3, ms(10)),
        catalog: b.build(),
        agents: vec![(counters, AgentId::Node(NodeId(0)), NodeId(0))],
        classes: vec![ClassDecl::update("bump-counter", counters, [counters])],
        config: SystemConfig::unrestricted(seed),
    }
}

/// The §1 banking design under §4.2: a star RAG on BALANCES —
/// the paper's showcase of an admissible schema (e1/e2/e3).
fn banking(seed: u64) -> NamedConfig {
    let accounts = 4u32;
    let cfg = BankConfig {
        accounts,
        slots_per_account: 8,
        central: NodeId(0),
        account_homes: (1..=accounts).map(NodeId).collect(),
        overdraft_fine: 50,
    };
    let (catalog, schema, agents) = BankSchema::build(&cfg);
    let mut classes = vec![ClassDecl::update(
        "apply-postings",
        schema.balances,
        [schema.balances],
    )];
    for i in 0..accounts as usize {
        classes.push(ClassDecl::update(
            format!("post({i})"),
            schema.activity[i],
            [schema.activity[i], schema.balances, schema.recorded[i]],
        ));
        classes.push(ClassDecl::update(
            format!("record({i})"),
            schema.recorded[i],
            [schema.recorded[i]],
        ));
    }
    let strategy = StrategyKind::AcyclicRag {
        decls: schema.decls(),
        allow_violating_read_only: true,
    };
    NamedConfig {
        name: "banking-acyclic-rag",
        source: "e1_spectrum / e2_banking_scenarios / e3_local_view",
        topology: Topology::full_mesh(accounts + 1, ms(10)),
        catalog,
        agents,
        classes,
        config: SystemConfig::unrestricted(seed).with_strategy(strategy),
    }
}

/// Figure 4.2.1's warehouse schema: central scan reads every warehouse
/// (a star — elementarily acyclic), warehouses touch only themselves.
fn warehouse(seed: u64) -> NamedConfig {
    let k = 4u32;
    let cfg = WarehouseConfig {
        warehouses: k,
        products: 3,
        central: NodeId(0),
        warehouse_homes: (1..=k).map(NodeId).collect(),
        reorder_below: 20,
    };
    let (catalog, schema, agents) = WarehouseSchema::build(&cfg);
    let mut classes = vec![ClassDecl::update(
        "central-scan",
        schema.central,
        schema.warehouse.iter().copied().chain([schema.central]),
    )];
    for (w, &frag) in schema.warehouse.iter().enumerate() {
        classes.push(ClassDecl::update(format!("sale(W{w})"), frag, [frag]));
    }
    let strategy = schema.strategy();
    NamedConfig {
        name: "warehouse-star",
        source: "e4_warehouse",
        topology: Topology::full_mesh(k + 1, ms(10)),
        catalog,
        agents,
        classes,
        config: SystemConfig::unrestricted(seed).with_strategy(strategy),
    }
}

/// §4.3's airline reservations: flight scans read every customer
/// fragment, so the RAG is cyclic *by design* and the system runs
/// unrestricted — admissible because no §4.2 strategy is declared.
fn airline(seed: u64) -> NamedConfig {
    let (customers, flights) = (3u32, 2u32);
    let customer_homes: Vec<_> = (0..customers).map(NodeId).collect();
    let flight_homes: Vec<_> = (0..flights).map(|j| NodeId(customers + j)).collect();
    let (catalog, schema, agents) =
        AirlineSchema::build(customers, flights, 10, &customer_homes, &flight_homes);
    let mut classes = Vec::new();
    for (i, &c) in schema.customer.iter().enumerate() {
        classes.push(ClassDecl::update(format!("request(C{})", i + 1), c, [c]));
    }
    for (j, &f) in schema.flight.iter().enumerate() {
        classes.push(ClassDecl::update(
            format!("grant(F{})", j + 1),
            f,
            schema.customer.iter().copied().chain([f]),
        ));
    }
    NamedConfig {
        name: "airline-unrestricted",
        source: "e6_airline",
        topology: Topology::full_mesh(customers + flights, ms(10)),
        catalog,
        agents,
        classes,
        config: SystemConfig::unrestricted(seed),
    }
}

/// A two-ledger §4.1 configuration: transfers read the other ledger
/// under remote read locks, fixed agents, no movement. (The mutual read
/// is a lock-order *warning* — deadlocks resolve by timeout — not an
/// admission error.)
fn ledger_read_locks(seed: u64) -> NamedConfig {
    let mut b = FragmentCatalog::builder();
    let (l1, _) = b.add_fragment("L1", 2);
    let (l2, _) = b.add_fragment("L2", 2);
    NamedConfig {
        name: "ledger-read-locks",
        source: "e1_spectrum (read-locks row)",
        topology: Topology::full_mesh(2, ms(10)),
        catalog: b.build(),
        agents: vec![
            (l1, AgentId::Node(NodeId(0)), NodeId(0)),
            (l2, AgentId::Node(NodeId(1)), NodeId(1)),
        ],
        classes: vec![
            ClassDecl::update("transfer(L1->L2)", l1, [l1, l2]),
            ClassDecl::update("transfer(L2->L1)", l2, [l2, l1]),
        ],
        config: SystemConfig::read_locks(seed),
    }
}

/// §6's mixed system (e11): two ledgers under locks, a warehouse trio
/// under §4.2, and a movable personal fragment under NoPrep.
fn mixed(seed: u64) -> NamedConfig {
    let mut b = FragmentCatalog::builder();
    let (l1, _) = b.add_fragment("L1", 2);
    let (l2, _) = b.add_fragment("L2", 2);
    let (w1, _) = b.add_fragment("W1", 2);
    let (w2, _) = b.add_fragment("W2", 2);
    let (c, _) = b.add_fragment("C", 2);
    let (m, _) = b.add_fragment("M", 2);
    let catalog = b.build();
    let rag_strategy = StrategyKind::AcyclicRag {
        decls: vec![
            fragdb_model::AccessDecl::update(c, [w1, w2]),
            fragdb_model::AccessDecl::update(w1, [w1]),
            fragdb_model::AccessDecl::update(w2, [w2]),
        ],
        allow_violating_read_only: true,
    };
    let lock_strategy = StrategyKind::ReadLocks {
        timeout: SimDuration::from_secs(8),
    };
    NamedConfig {
        name: "mixed-strategies",
        source: "e11_mixed",
        topology: Topology::full_mesh(5, ms(10)),
        catalog,
        agents: vec![
            (l1, AgentId::Node(NodeId(0)), NodeId(0)),
            (l2, AgentId::Node(NodeId(1)), NodeId(1)),
            (w1, AgentId::Node(NodeId(2)), NodeId(2)),
            (w2, AgentId::Node(NodeId(3)), NodeId(3)),
            (c, AgentId::Node(NodeId(4)), NodeId(4)),
            (m, AgentId::User(UserId(0)), NodeId(0)),
        ],
        classes: vec![
            ClassDecl::update("ledger-transfer(L1)", l1, [l1, l2]),
            ClassDecl::update("ledger-transfer(L2)", l2, [l2, l1]),
            ClassDecl::update("sale(W1)", w1, [w1]),
            ClassDecl::update("sale(W2)", w2, [w2]),
            ClassDecl::update("central-scan", c, [c, w1, w2]),
            ClassDecl::update("personal-note", m, [m]),
        ],
        config: SystemConfig::unrestricted(seed)
            .with_fragment_strategy(l1, lock_strategy.clone())
            .with_fragment_strategy(l2, lock_strategy)
            .with_fragment_strategy(w1, rag_strategy.clone())
            .with_fragment_strategy(w2, rag_strategy.clone())
            .with_fragment_strategy(c, rag_strategy)
            .with_fragment_move_policy(m, MovePolicy::NoPrep),
    }
}

/// §6 partial replication (e12): one fragment on 5 of 8 nodes under
/// majority-commit movement.
fn partial_replication(seed: u64) -> NamedConfig {
    let mut b = FragmentCatalog::builder();
    let (p, _) = b.add_fragment("P", 2);
    NamedConfig {
        name: "partial-replication-majority",
        source: "e12_partial_replication",
        topology: Topology::full_mesh(8, ms(10)),
        catalog: b.build(),
        agents: vec![(p, AgentId::Node(NodeId(0)), NodeId(0))],
        classes: vec![ClassDecl::update("bump", p, [p])],
        config: SystemConfig::unrestricted(seed)
            .with_replica_set(p, (0..5).map(NodeId))
            .with_move_policy(MovePolicy::MajorityCommit {
                timeout: SimDuration::from_secs(5),
            }),
    }
}

/// §4.4.1 movement (e7): a movable user fragment under majority commit.
fn movement(seed: u64) -> NamedConfig {
    let mut b = FragmentCatalog::builder();
    let (p, _) = b.add_fragment("PERSONAL", 2);
    NamedConfig {
        name: "movement-majority",
        source: "e7_movement",
        topology: Topology::full_mesh(5, ms(10)),
        catalog: b.build(),
        agents: vec![(p, AgentId::User(UserId(0)), NodeId(0))],
        classes: vec![ClassDecl::update("edit", p, [p])],
        config: SystemConfig::unrestricted(seed).with_move_policy(MovePolicy::MajorityCommit {
            timeout: SimDuration::from_secs(5),
        }),
    }
}

/// §5 self-healing (tests/self_heal.rs): a majority-commit fragment over
/// five nodes with the failure detector on, so a crash of the token home
/// is detected, voted on, and repaired without an operator.
fn self_heal(seed: u64) -> NamedConfig {
    let mut b = FragmentCatalog::builder();
    let (p, _) = b.add_fragment("PROTECTED", 2);
    NamedConfig {
        name: "self-heal",
        source: "tests/self_heal.rs",
        topology: Topology::full_mesh(5, ms(10)),
        catalog: b.build(),
        agents: vec![(p, AgentId::User(UserId(0)), NodeId(0))],
        classes: vec![ClassDecl::update("bump", p, [p])],
        config: SystemConfig::unrestricted(seed)
            .with_move_policy(MovePolicy::MajorityCommit {
                timeout: SimDuration::from_secs(5),
            })
            .with_detector(
                DetectorConfig::period(ms(500)).with_election_timeout(SimDuration::from_secs(2)),
            ),
    }
}

/// `tests/chaos.rs`: four user fragments over five nodes, unrestricted.
fn chaos(seed: u64) -> NamedConfig {
    let mut b = FragmentCatalog::builder();
    let frags: Vec<_> = (0..4)
        .map(|i| b.add_fragment(format!("F{i}"), 3).0)
        .collect();
    let catalog = b.build();
    let agents = frags
        .iter()
        .enumerate()
        .map(|(i, &f)| (f, AgentId::User(UserId(i as u32)), NodeId(i as u32)))
        .collect();
    let classes = frags
        .iter()
        .enumerate()
        .map(|(i, &f)| ClassDecl::update(format!("chaos-bump({i})"), f, [f]))
        .collect();
    NamedConfig {
        name: "chaos-mesh",
        source: "tests/chaos.rs",
        topology: Topology::full_mesh(5, ms(10)),
        catalog,
        agents,
        classes,
        config: SystemConfig::unrestricted(seed),
    }
}

/// The open-loop Zipf shape the benchmark of record saturates
/// (`wide-mesh`, `dense-few`): independent unrestricted fragments striped
/// over a full mesh, one updater class per fragment. Registered at a
/// modest node count so admission certifies the shape without analyzing a
/// thousand replicas; the benchmark scales only the mesh size and the
/// offered rate, not the schema.
fn scale_zipf(seed: u64) -> NamedConfig {
    const NODES: u32 = 6;
    const FRAGMENTS: u32 = 4;
    let mut b = FragmentCatalog::builder();
    let frags: Vec<FragmentId> = (0..FRAGMENTS)
        .map(|f| b.add_fragment(format!("S{f}"), 32).0)
        .collect();
    NamedConfig {
        name: "scale-zipf-open-loop",
        source: "benchmark/ (wide-mesh, dense-few)",
        topology: Topology::full_mesh(NODES, ms(10)),
        catalog: b.build(),
        agents: frags
            .iter()
            .map(|&f| {
                let home = NodeId(f.0 % NODES);
                (f, AgentId::Node(home), home)
            })
            .collect(),
        classes: frags
            .iter()
            .map(|&f| ClassDecl::update(format!("scale-bump({})", f.0), f, [f]))
            .collect(),
        config: SystemConfig::unrestricted(seed),
    }
}

/// Every shipped configuration, in a stable order.
pub fn all(seed: u64) -> Vec<NamedConfig> {
    vec![
        quickstart(seed),
        banking(seed),
        warehouse(seed),
        airline(seed),
        ledger_read_locks(seed),
        mixed(seed),
        partial_replication(seed),
        movement(seed),
        self_heal(seed),
        chaos(seed),
        scale_zipf(seed),
    ]
}

/// Look up a configuration by registry name.
pub fn by_name(name: &str, seed: u64) -> Option<NamedConfig> {
    all(seed).into_iter().find(|c| c.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_shipped_config_passes_admission() {
        for cfg in all(42) {
            match cfg.admit(AdmissionPolicy::Enforce) {
                Ok(report) => assert!(report.is_admissible(), "{}: {report}", cfg.name),
                Err(e) => panic!("{} refused admission:\n{e}", cfg.name),
            }
        }
    }

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let configs = all(1);
        let names: std::collections::BTreeSet<_> = configs.iter().map(|c| c.name).collect();
        assert_eq!(names.len(), configs.len());
        for name in names {
            assert!(by_name(name, 1).is_some());
        }
    }
}
