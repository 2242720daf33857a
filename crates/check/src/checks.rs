//! The checks. Each function inspects declarations only — nothing here
//! executes a transaction, sends a message, or advances a clock.

use std::collections::BTreeSet;

use fragdb_core::{MovePolicy, StrategyKind};
use fragdb_graphs::{DiGraph, ReadAccessGraph};
use fragdb_model::{AgentId, Fragment, FragmentId, NodeId};
use fragdb_net::LinkState;

use crate::diag::{Code, Diagnostic, Report};
use crate::input::{CheckInput, ClassDecl};

/// Run every check and collect the findings, errors first.
pub fn check(input: &CheckInput) -> Report {
    let mut out = Vec::new();
    out.extend(check_fragment_disjointness(input.catalog.fragments()));
    out.extend(check_tokens(input));
    out.extend(check_classes(input));
    out.extend(check_rag(input));
    out.extend(check_replication(input));
    out.extend(check_partial_replication(input));
    out.extend(check_strategy_topology(input));
    out.extend(check_lock_order(input));
    out.extend(check_self_heal(input));
    Report::new(out)
}

/// FDB001 — §3.1: fragments must partition the database; no object may
/// belong to two fragments. (The catalog builder enforces this, so the
/// check matters for hand-built [`Fragment`] lists.)
pub fn check_fragment_disjointness(fragments: &[Fragment]) -> Vec<Diagnostic> {
    let mut owner: std::collections::BTreeMap<fragdb_model::ObjectId, FragmentId> =
        std::collections::BTreeMap::new();
    let mut out = Vec::new();
    for frag in fragments {
        for &object in &frag.objects {
            if let Some(&first) = owner.get(&object) {
                out.push(
                    Diagnostic::new(
                        Code::Fdb001,
                        format!("fragment {}", frag.id),
                        format!(
                            "object {object} belongs to both fragment {first} and fragment {}",
                            frag.id
                        ),
                    )
                    .with_help("fragments must be disjoint; assign the object to exactly one"),
                );
            } else {
                owner.insert(object, frag.id);
            }
        }
    }
    out
}

/// FDB002/FDB003 — §3.1: exactly one agent token per catalog fragment,
/// homed at an existing node; node agents live at their own node.
pub fn check_tokens(input: &CheckInput) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let n = input.topology.node_count();
    let mut seen: BTreeSet<FragmentId> = BTreeSet::new();
    for &(fragment, agent, home) in input.agents {
        let subject = format!("agent of fragment {fragment}");
        if input.catalog.fragment(fragment).is_err() {
            out.push(
                Diagnostic::new(
                    Code::Fdb002,
                    subject.clone(),
                    format!("agent assigned to undeclared fragment {fragment}"),
                )
                .with_help("declare the fragment in the catalog or drop the assignment"),
            );
        }
        if !seen.insert(fragment) {
            out.push(
                Diagnostic::new(
                    Code::Fdb002,
                    subject.clone(),
                    format!("fragment {fragment} assigned more than one agent token"),
                )
                .with_help("§3.1 mints exactly one token per fragment"),
            );
        }
        if home.0 >= n {
            out.push(Diagnostic::new(
                Code::Fdb003,
                subject.clone(),
                format!("home {home} does not exist (topology has {n} nodes)"),
            ));
        }
        if let AgentId::Node(node) = agent {
            if node != home {
                out.push(
                    Diagnostic::new(
                        Code::Fdb003,
                        subject,
                        format!("node agent {node} homed at {home}"),
                    )
                    .with_help("a node agent is the node: its home must be itself"),
                );
            }
        }
    }
    for frag in input.catalog.fragments() {
        if !seen.contains(&frag.id) {
            out.push(
                Diagnostic::new(
                    Code::Fdb002,
                    format!("fragment {}", frag.id),
                    format!("fragment {} ({}) has no agent token", frag.id, frag.name),
                )
                .with_help("every fragment needs exactly one agent (§3.1)"),
            );
        }
    }
    out
}

/// FDB002/FDB010 — §3.2: classes may only reference declared fragments;
/// writes outside the initiator's fragment violate the initiation
/// requirement.
pub fn check_classes(input: &CheckInput) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for class in input.classes {
        let subject = format!("class `{}`", class.name);
        for f in std::iter::once(class.initiator)
            .chain(class.reads.iter().copied())
            .chain(class.writes.iter().copied())
            .collect::<BTreeSet<_>>()
        {
            if input.catalog.fragment(f).is_err() {
                out.push(Diagnostic::new(
                    Code::Fdb002,
                    subject.clone(),
                    format!("references undeclared fragment {f}"),
                ));
            }
        }
        let foreign: Vec<FragmentId> = class.foreign_writes().collect();
        if !foreign.is_empty() {
            let list = join_frags(&foreign);
            out.push(
                Diagnostic::new(
                    Code::Fdb010,
                    subject,
                    format!(
                        "declares writes to {list} outside its initiator's fragment {} \
                         — instances would abort with an initiation violation",
                        class.initiator
                    ),
                )
                .with_help(
                    "let the written fragment's own agent initiate the update, as a \
                     sibling transaction per written fragment",
                ),
            );
        }
    }
    out
}

/// FDB020/FDB021/FDB022 — §4.2: when any fragment runs under the
/// acyclic-RAG strategy, the read-access graph induced by the declared
/// classes must be elementarily acyclic. FDB020 reports the *minimal*
/// edge set whose removal restores acyclicity, each edge annotated with
/// the classes inducing it.
pub fn check_rag(input: &CheckInput) -> Vec<Diagnostic> {
    if !fragments_with(input, |s| matches!(s, StrategyKind::AcyclicRag { .. })) {
        return Vec::new();
    }
    let mut out = Vec::new();
    // §6 mixtures: the RAG restriction binds only the classes initiated
    // in fragments that run under §4.2 — a lock-group class reading
    // across its own group is §4.1's business, not an RAG edge.
    let rag_classes: Vec<&ClassDecl> = input
        .classes
        .iter()
        .filter(|c| {
            matches!(
                strategy_for(input, c.initiator),
                StrategyKind::AcyclicRag { .. }
            )
        })
        .collect();
    if rag_classes.is_empty() {
        out.push(
            Diagnostic::new(
                Code::Fdb022,
                "strategy `acyclic-rag`".to_string(),
                "§4.2 selected with no declared transaction classes — every update \
                 would abort as an undeclared class",
            )
            .with_help("declare the workload's classes, or choose §4.1/§4.3"),
        );
        return out;
    }
    let decls: Vec<_> = rag_classes.iter().map(|c| c.to_access()).collect();
    let rag = ReadAccessGraph::from_decls(&decls);
    for (a, b) in rag.removal_set() {
        let inducers: Vec<&&ClassDecl> = rag_classes
            .iter()
            .filter(|c| c.initiator == a && c.reads.contains(&b))
            .collect();
        let names = inducers
            .iter()
            .map(|c| format!("`{}`", c.name))
            .collect::<Vec<_>>()
            .join(", ");
        out.push(
            Diagnostic::new(
                Code::Fdb020,
                format!("edge {a} -> {b} (induced by {names})"),
                format!(
                    "read-access graph is not elementarily acyclic; removing the \
                     read of {b} by {names} restores a forest"
                ),
            )
            .with_help(format!(
                "drop the read of {b} from {names}, split the class, or run \
                 {a} under §4.1 locks / §4.3 unrestricted instead"
            )),
        );
    }
    // Own-fragment reads: not edges by definition (i ≠ j) — say so.
    for f in rag.self_reads() {
        let readers = rag_classes
            .iter()
            .filter(|c| c.initiator == f && c.reads.contains(&f))
            .map(|c| format!("`{}`", c.name))
            .collect::<Vec<_>>()
            .join(", ");
        out.push(Diagnostic::new(
            Code::Fdb021,
            format!("fragment {f} (classes {readers})"),
            format!(
                "own-fragment reads of {f} are not read-access-graph edges \
                 (the definition requires i ≠ j) and cannot create a cycle"
            ),
        ));
    }
    out
}

/// FDB034/FDB035 — §6: replica sets must name declared fragments and
/// existing nodes, be non-empty, and contain the fragment's agent home.
pub fn check_replication(input: &CheckInput) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let n = input.topology.node_count();
    for (&fragment, set) in &input.config.replica_sets {
        let subject = format!("replica set of fragment {fragment}");
        if input.catalog.fragment(fragment).is_err() {
            out.push(Diagnostic::new(
                Code::Fdb035,
                subject.clone(),
                format!("replica set declared for undeclared fragment {fragment}"),
            ));
            continue;
        }
        if set.is_empty() {
            out.push(
                Diagnostic::new(Code::Fdb035, subject.clone(), "replica set is empty")
                    .with_help("a fragment must be stored somewhere"),
            );
            continue;
        }
        for &replica in set {
            if replica.0 >= n {
                out.push(Diagnostic::new(
                    Code::Fdb035,
                    subject.clone(),
                    format!("replica {replica} does not exist (topology has {n} nodes)"),
                ));
            }
        }
        if let Some(home) = input.home_of(fragment) {
            if !set.contains(&home) {
                out.push(
                    Diagnostic::new(
                        Code::Fdb034,
                        subject,
                        format!("agent home {home} holds no replica of its own fragment"),
                    )
                    .with_help(format!("add {home} to the replica set")),
                );
            }
        }
    }
    out
}

/// FDB060/FDB061/FDB062 — §6 partial-replication quality checks over the
/// *declared* replica sets (malformedness itself is FDB034/FDB035's job):
///
/// * every replica must be reachable from the fragment's home with all
///   links up, or it silently diverges from the first commit (FDB060);
/// * an even-sized replica set under §4.4.1 majority commit pays an extra
///   broadcast without tolerating an extra failure (FDB061);
/// * a replica set naming every node is just full replication spelled
///   out, so the fan-out reduction it suggests never happens (FDB062).
pub fn check_partial_replication(input: &CheckInput) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let up = LinkState::all_up();
    let n = input.topology.node_count();
    for (&fragment, set) in &input.config.replica_sets {
        if input.catalog.fragment(fragment).is_err() || set.is_empty() {
            continue; // malformedness already reported (FDB035)
        }
        let valid: Vec<NodeId> = set.iter().copied().filter(|r| r.0 < n).collect();
        let subject = format!("replica set of fragment {fragment}");
        if let Some(home) = input.home_of(fragment) {
            if home.0 < n && set.contains(&home) {
                for &replica in &valid {
                    if replica != home && !input.topology.connected(home, replica, &up) {
                        out.push(
                            Diagnostic::new(
                                Code::Fdb060,
                                subject.clone(),
                                format!(
                                    "replica {replica} is unreachable from home {home} even \
                                     with every link up — it can never receive an update \
                                     and diverges from the first commit onward"
                                ),
                            )
                            .with_help(format!(
                                "add a link toward {replica}, or drop it from the replica set"
                            )),
                        );
                    }
                }
            }
        }
        if move_policy_for(input, fragment).needs_majority_commit()
            && valid.len() >= 2
            && valid.len().is_multiple_of(2)
        {
            out.push(
                Diagnostic::new(
                    Code::Fdb061,
                    subject.clone(),
                    format!(
                        "even population of {} under §4.4.1 majority commit needs {} \
                         acknowledgments — the same as {} replicas, so the extra \
                         replica adds cost but no fault tolerance",
                        valid.len(),
                        valid.len() / 2 + 1,
                        valid.len() - 1
                    ),
                )
                .with_help("shrink to the odd size, or grow by two for real tolerance"),
            );
        }
        if valid.len() as u32 == n {
            out.push(
                Diagnostic::new(
                    Code::Fdb062,
                    subject,
                    format!(
                        "replica set names all {n} nodes — identical to the \
                         full-replication default, no fan-out is saved"
                    ),
                )
                .with_help("drop the declaration, or shrink the set to the actual readers"),
            );
        }
    }
    out
}

/// FDB030/FDB031/FDB032/FDB033 — strategy/topology compatibility:
///
/// * §4.1 read locks require fixed agents (FDB033) and every lock site
///   reachable from each initiator's home in the base topology (FDB031);
/// * §4.4.1 majority commit requires a reachable majority of the
///   fragment's population from its home (FDB030);
/// * under §6 partial replication, an update class's home must hold a
///   replica of everything it reads, unless the reads go through §4.1
///   lock sites (FDB032).
pub fn check_strategy_topology(input: &CheckInput) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let up = LinkState::all_up();
    let n = input.topology.node_count();

    for frag in input.catalog.fragments() {
        let strategy = strategy_for(input, frag.id);
        let movement = move_policy_for(input, frag.id);
        if strategy.uses_read_locks() && *movement != MovePolicy::Fixed {
            out.push(
                Diagnostic::new(
                    Code::Fdb033,
                    format!("fragment {}", frag.id),
                    "§4.1 read locks combined with a movement policy — read locks \
                     are defined for fixed agents only",
                )
                .with_help("use MovePolicy::Fixed for this fragment, or a lock-free strategy"),
            );
        }
        if movement.needs_majority_commit() {
            let Some(home) = input.home_of(frag.id) else {
                continue; // missing agent already reported (FDB002)
            };
            if home.0 >= n {
                continue; // reported by FDB003
            }
            let population: Vec<NodeId> = match input.config.replica_sets.get(&frag.id) {
                Some(set) => set.iter().copied().filter(|r| r.0 < n).collect(),
                None => input.topology.nodes().collect(),
            };
            if population.is_empty() {
                continue; // reported by FDB035
            }
            let majority = population.len() / 2 + 1;
            let reachable = population
                .iter()
                .filter(|&&m| m == home || input.topology.connected(home, m, &up))
                .count();
            if reachable < majority {
                out.push(
                    Diagnostic::new(
                        Code::Fdb030,
                        format!("fragment {} (home {home})", frag.id),
                        format!(
                            "§4.4.1 majority commit needs {majority} of {} population \
                             members, but only {reachable} are reachable from {home} \
                             even with every link up",
                            population.len()
                        ),
                    )
                    .with_help("add links, add replicas near the home, or choose another policy"),
                );
            }
        }
    }

    for class in input.classes {
        let strategy = strategy_for(input, class.initiator);
        let Some(home) = input.home_of(class.initiator) else {
            continue;
        };
        if home.0 >= n {
            continue;
        }
        let foreign_reads: Vec<FragmentId> = class
            .reads
            .iter()
            .copied()
            .filter(|&f| f != class.initiator && input.catalog.fragment(f).is_ok())
            .collect();
        if strategy.uses_read_locks() {
            // §4.1: reads are served by the read fragment's lock site.
            for f in foreign_reads {
                let Some(site) = input.home_of(f) else {
                    continue;
                };
                if site.0 < n && site != home && !input.topology.connected(home, site, &up) {
                    out.push(
                        Diagnostic::new(
                            Code::Fdb031,
                            format!("class `{}`", class.name),
                            format!(
                                "lock site {site} of read fragment {f} is unreachable \
                                 from initiator home {home} even with every link up"
                            ),
                        )
                        .with_help("no instance of this class can ever acquire its locks"),
                    );
                }
            }
        } else if !class.is_read_only() {
            // Update classes execute at the initiator's home; every read
            // is served from that node's replicas.
            for f in foreign_reads {
                let covered = input
                    .config
                    .replica_sets
                    .get(&f)
                    .is_none_or(|set| set.contains(&home));
                if !covered {
                    out.push(
                        Diagnostic::new(
                            Code::Fdb032,
                            format!("class `{}`", class.name),
                            format!(
                                "reads fragment {f}, but initiator home {home} holds \
                                 no replica of {f} — instances would abort"
                            ),
                        )
                        .with_help(format!(
                            "add {home} to {f}'s replica set, or read through §4.1 locks"
                        )),
                    );
                }
            }
        }
    }
    out
}

/// FDB040 — §4.1: conservative deadlock analysis. Build the directed
/// "lock-order" graph: an edge `F_i → F_j` for every update class under
/// read locks that is initiated by `A(F_i)` and reads `F_j`. Such a class
/// holds exclusive locks at its home while waiting on shared locks at
/// `F_j`'s site; a directed cycle means two classes can block each other —
/// the run-time deadlock the §4.1 implementation resolves by timeout.
pub fn check_lock_order(input: &CheckInput) -> Vec<Diagnostic> {
    let mut g: DiGraph<FragmentId> = DiGraph::new();
    let mut any = false;
    for class in input.classes {
        if class.is_read_only() || !strategy_for(input, class.initiator).uses_read_locks() {
            continue;
        }
        for f in class
            .reads
            .iter()
            .copied()
            .filter(|&f| f != class.initiator)
        {
            g.add_edge(class.initiator, f);
            any = true;
        }
    }
    if !any {
        return Vec::new();
    }
    let Some(cycle) = g.find_cycle() else {
        return Vec::new();
    };
    let mut inducers: Vec<String> = Vec::new();
    for (i, &a) in cycle.iter().enumerate() {
        let b = cycle[(i + 1) % cycle.len()];
        for c in input.classes {
            if !c.is_read_only() && c.initiator == a && c.reads.contains(&b) {
                let name = format!("`{}`", c.name);
                if !inducers.contains(&name) {
                    inducers.push(name);
                }
            }
        }
    }
    let path = cycle
        .iter()
        .map(|f| f.to_string())
        .collect::<Vec<_>>()
        .join(" -> ");
    vec![Diagnostic::new(
        Code::Fdb040,
        format!("classes {}", inducers.join(", ")),
        format!(
            "cyclic lock acquisition {path} -> {}: instances of these classes can \
             deadlock and will be resolved only by the lock timeout",
            cycle[0]
        ),
    )
    .with_help("break the cycle by reordering reads into one direction or splitting a class")]
}

/// FDB050/FDB051/FDB052 — §5 self-healing token recovery. Elections act
/// only on fragments under the §4.4.1 majority-commit policy (the one
/// policy whose recovery needs nothing from the dead home), so with the
/// detector enabled the configuration should give it something to protect
/// (FDB050 warns: otherwise the heartbeats buy nothing), must give each
/// protected fragment a population an election can win (FDB051), and the
/// rounds a non-zero patience (FDB052).
pub fn check_self_heal(input: &CheckInput) -> Vec<Diagnostic> {
    if !input.config.detector.enabled() {
        return Vec::new();
    }
    let mut out = Vec::new();
    let n = input.topology.node_count();
    let protected: Vec<&Fragment> = input
        .catalog
        .fragments()
        .iter()
        .filter(|f| move_policy_for(input, f.id).needs_majority_commit())
        .collect();
    if protected.is_empty() {
        out.push(
            Diagnostic::new(
                Code::Fdb050,
                "detector config",
                "failure detector enabled but no fragment runs under §4.4.1 majority \
                 commit — elections can never act, the heartbeat traffic buys nothing",
            )
            .with_help(
                "run at least one fragment under MovePolicy::MajorityCommit, \
                 or disable the detector",
            ),
        );
    }
    for frag in protected {
        let population = match input.config.replica_sets.get(&frag.id) {
            Some(set) => set.iter().filter(|r| r.0 < n).count(),
            None => n as usize,
        };
        if population < 3 {
            out.push(
                Diagnostic::new(
                    Code::Fdb051,
                    format!("fragment {}", frag.id),
                    format!(
                        "population of {population} cannot elect around a dead home — \
                         a majority of {} must include it",
                        population / 2 + 1
                    ),
                )
                .with_help("replicate the fragment at 3 or more nodes"),
            );
        }
    }
    if input.config.detector.election_timeout.micros() == 0 {
        out.push(
            Diagnostic::new(
                Code::Fdb052,
                "detector config",
                "election timeout is zero — every round aborts before a vote can arrive",
            )
            .with_help("set election_timeout to at least one network round trip"),
        );
    } else if input.config.detector.election_timeout < input.config.detector.detection_bound() {
        // A round that expires before the detector can even confirm a
        // failure restarts against the same silence, forever: livelock,
        // not recovery.
        out.push(
            Diagnostic::new(
                Code::Fdb053,
                "detector config",
                format!(
                    "election timeout ({:?}) is shorter than the detection bound ({:?}) — \
                     rounds abort and restart faster than a failure can be confirmed",
                    input.config.detector.election_timeout,
                    input.config.detector.detection_bound(),
                ),
            )
            .with_help(
                "raise election_timeout to at least heartbeat_period * 4 \
                 (3 missed beats + 1 period of skew)",
            ),
        );
    }
    out
}

// ---- helpers ----------------------------------------------------------

fn strategy_for<'a>(input: &'a CheckInput, fragment: FragmentId) -> &'a StrategyKind {
    input
        .config
        .strategy_overrides
        .get(&fragment)
        .unwrap_or(&input.config.strategy)
}

fn move_policy_for<'a>(input: &'a CheckInput, fragment: FragmentId) -> &'a MovePolicy {
    input
        .config
        .move_overrides
        .get(&fragment)
        .unwrap_or(&input.config.move_policy)
}

fn fragments_with(input: &CheckInput, pred: impl Fn(&StrategyKind) -> bool) -> bool {
    input
        .catalog
        .fragments()
        .iter()
        .any(|f| pred(strategy_for(input, f.id)))
}

fn join_frags(frags: &[FragmentId]) -> String {
    frags
        .iter()
        .map(|f| f.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}
