//! Concrete counterexample witnesses for rejecting `FDB02x`/`FDB03x`
//! diagnostics — the witness-generation direction of the `fragdb-check`
//! wiring.
//!
//! The static analyzer says *"this configuration is refused"*; a witness
//! says *"and here is the shortest run that goes wrong if you ignore the
//! refusal"*. For each error-severity code in the `FDB02x`/`FDB03x`
//! blocks, [`witness_for`] builds a canonical small instance exhibiting
//! exactly the rejected shape and either:
//!
//! * finds a minimal violating trace by **iterative deepening** — explore
//!   at depth 1, 2, … until a violation of the expected
//!   [`InvariantKind`] appears; the first depth that yields one cannot be
//!   beaten, so the returned trace is shortest — or
//! * demonstrates that [`System::build`] itself refuses the configuration
//!   (the `FDB033`–`FDB035` structural codes), a zero-step witness.
//!
//! Witnesses re-validate on demand: [`Witness::replay`] rebuilds the
//! instance, replays the recorded choice keys, and confirms the same
//! invariant breaks (or the same construction refusal occurs). The
//! rendered form is rustc-style, matching `fragdb-check`'s diagnostics.

use std::fmt;

use fragdb_check::Code;
use fragdb_core::{BuildError, MovePolicy, System, SystemConfig};
use fragdb_model::{FragmentId, NodeId, ObjectId};
use fragdb_net::Topology;
use fragdb_sim::SimDuration;

use crate::explore::{explore, violations_along_path, ExploreConfig, InvariantKind, Violation};
use crate::instance::McInstance;
use crate::registry::{at, bump, catalog, ms, node_agents, sum_into, sum_into_locked};

/// How a witness demonstrates its defect.
enum Backing {
    /// An explored trace ending in an invariant violation.
    Trace {
        instance: McInstance,
        violation: Violation,
        check_stuck: bool,
    },
    /// `System::build` refuses the configuration outright.
    Refusal {
        attempt: Box<dyn Fn() -> Result<System, BuildError>>,
        error: String,
    },
}

/// A concrete, minimized counterexample for one rejecting diagnostic code.
pub struct Witness {
    /// The diagnostic code this witness substantiates.
    pub code: Code,
    /// One-line description of the demonstration scenario.
    pub scenario: String,
    backing: Backing,
}

impl Witness {
    /// The invariant the witness trace breaks; `None` for construction
    /// refusals (`FDB033`–`FDB035`), which never reach a running system.
    pub fn kind(&self) -> Option<InvariantKind> {
        match &self.backing {
            Backing::Trace { violation, .. } => Some(violation.kind),
            Backing::Refusal { .. } => None,
        }
    }

    /// Number of steps in the counterexample trace (0 for refusals).
    pub fn len(&self) -> usize {
        match &self.backing {
            Backing::Trace { violation, .. } => violation.path.len(),
            Backing::Refusal { .. } => 0,
        }
    }

    /// True only for refusal witnesses, whose trace is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Event labels along the counterexample, in order. For refusal
    /// witnesses, the single build error.
    pub fn steps(&self) -> Vec<String> {
        match &self.backing {
            Backing::Trace { violation, .. } => violation.steps.clone(),
            Backing::Refusal { error, .. } => vec![error.clone()],
        }
    }

    /// What goes wrong at the end of the trace.
    pub fn outcome(&self) -> String {
        match &self.backing {
            Backing::Trace { violation, .. } => {
                format!("{}: {}", violation.kind, violation.detail)
            }
            Backing::Refusal { error, .. } => format!("construction refused: {error}"),
        }
    }

    /// Re-demonstrate the defect from scratch: rebuild the instance,
    /// replay the recorded choices, and confirm the same invariant kind
    /// fires (or that construction is still refused). `false` means the
    /// witness has gone stale against the current protocol code.
    pub fn replay(&self) -> bool {
        match &self.backing {
            Backing::Trace {
                instance,
                violation,
                check_stuck,
            } => {
                let cfg = ExploreConfig {
                    check_stuck: *check_stuck,
                    ..ExploreConfig::full()
                };
                violations_along_path(instance, &violation.path, &cfg)
                    .iter()
                    .any(|v| v.kind == violation.kind)
            }
            Backing::Refusal { attempt, .. } => attempt().is_err(),
        }
    }
}

impl fmt::Display for Witness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.backing {
            Backing::Trace { violation, .. } => {
                writeln!(
                    f,
                    "note[{}]: counterexample ({} steps) — {}",
                    self.code,
                    violation.path.len(),
                    violation.kind
                )?;
                writeln!(f, "  --> {}", self.scenario)?;
                for (i, step) in violation.steps.iter().enumerate() {
                    writeln!(f, "  {:>2}. {step}", i + 1)?;
                }
                write!(f, "  = violation: {}", violation.detail)
            }
            Backing::Refusal { error, .. } => {
                writeln!(
                    f,
                    "note[{}]: counterexample (construction refused)",
                    self.code
                )?;
                writeln!(f, "  --> {}", self.scenario)?;
                write!(f, "  = violation: {error}")
            }
        }
    }
}

impl fmt::Debug for Witness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Witness")
            .field("code", &self.code)
            .field("scenario", &self.scenario)
            .field("kind", &self.kind())
            .field("len", &self.len())
            .finish_non_exhaustive()
    }
}

/// Iterative deepening: the first depth bound that admits a violation of
/// `want` cannot contain one shorter than the minimum at that depth, so
/// the shortest trace found there is globally minimal.
fn shortest_violation(
    inst: &McInstance,
    want: InvariantKind,
    check_stuck: bool,
) -> Option<Violation> {
    let full = ExploreConfig::full();
    for depth in 1..=full.max_depth {
        let cfg = ExploreConfig {
            max_depth: depth,
            check_stuck,
            ..ExploreConfig::full()
        };
        let stats = explore(inst, &cfg);
        let best = stats
            .violations
            .iter()
            .filter(|v| v.kind == want)
            .min_by_key(|v| (v.path.len(), v.path.clone()));
        if let Some(v) = best {
            return Some(v.clone());
        }
        if !stats.truncated {
            // The whole reachable space fits under this bound and the
            // expected violation is not in it: the demo is broken.
            return None;
        }
    }
    None
}

fn trace_witness(
    code: Code,
    scenario: &str,
    instance: McInstance,
    want: InvariantKind,
    check_stuck: bool,
) -> Option<Witness> {
    let violation = shortest_violation(&instance, want, check_stuck)?;
    Some(Witness {
        code,
        scenario: scenario.to_string(),
        backing: Backing::Trace {
            instance,
            violation,
            check_stuck,
        },
    })
}

fn refusal_witness(
    code: Code,
    scenario: &str,
    attempt: impl Fn() -> Result<System, BuildError> + 'static,
) -> Option<Witness> {
    let error = attempt().err()?.to_string();
    Some(Witness {
        code,
        scenario: scenario.to_string(),
        backing: Backing::Refusal {
            attempt: Box::new(attempt),
            error,
        },
    })
}

/// FDB020 demo: the two-fragment mutual read the RAG check forbids, run
/// under §4.3 (which is the only way to run it — §4.2 refuses to build) —
/// the explorer finds the write-skew interleaving whose global
/// serialization graph is cyclic.
fn fdb020_instance() -> McInstance {
    McInstance::new("witness-fdb020-rag-cycle", true, false, || {
        let a = FragmentId(0);
        let b = FragmentId(1);
        let mut sys = System::build(
            Topology::full_mesh(2, ms(5)),
            catalog(&["A", "B"]),
            node_agents(&[0, 1]),
            SystemConfig::unrestricted(7),
        )
        .expect("fdb020 witness builds");
        sys.submit_at(at(1), sum_into(a, ObjectId(0), vec![ObjectId(1)]));
        sys.submit_at(at(2), sum_into(b, ObjectId(1), vec![ObjectId(0)]));
        sys
    })
}

/// FDB030 demo: a §4.4.1 fragment homed on a node no majority can reach —
/// every commit times out and aborts; the run quiesces with zero commits.
fn fdb030_instance() -> McInstance {
    McInstance::new("witness-fdb030-unreachable-majority", true, false, || {
        let mut topo = Topology::new(3);
        topo.add_link(NodeId(1), NodeId(2), ms(5));
        let f = FragmentId(0);
        let mut sys = System::build(
            topo,
            catalog(&["LEDGER"]),
            node_agents(&[0]),
            SystemConfig::unrestricted(7).with_move_policy(MovePolicy::MajorityCommit {
                timeout: SimDuration::from_secs(1),
            }),
        )
        .expect("fdb030 witness builds");
        sys.submit_at(at(1), bump(f, ObjectId(0)));
        sys
    })
}

/// FDB031 demo: a §4.1 class whose declared read targets a lock site with
/// no path from the initiator — the lock request is undeliverable, the
/// lock timer fires, and the transaction aborts.
fn fdb031_instance() -> McInstance {
    McInstance::new("witness-fdb031-unreachable-lock-site", true, false, || {
        let l1 = FragmentId(0);
        let mut sys = System::build(
            Topology::new(2),
            catalog(&["L1", "L2"]),
            node_agents(&[0, 1]),
            SystemConfig::read_locks(7),
        )
        .expect("fdb031 witness builds");
        sys.submit_at(at(1), sum_into_locked(l1, ObjectId(0), vec![ObjectId(1)]));
        sys
    })
}

/// FDB032 demo: under §6 partial replication the home holds no replica of
/// a fragment its program reads — execution aborts with a logic error.
fn fdb032_instance() -> McInstance {
    McInstance::new("witness-fdb032-uncovered-read", true, false, || {
        let a = FragmentId(0);
        let b = FragmentId(1);
        let mut sys = System::build(
            Topology::full_mesh(2, ms(5)),
            catalog(&["A", "B"]),
            node_agents(&[0, 1]),
            SystemConfig::unrestricted(7)
                .with_replica_set(a, [NodeId(0)])
                .with_replica_set(b, [NodeId(1)]),
        )
        .expect("fdb032 witness builds");
        sys.submit_at(at(1), sum_into(a, ObjectId(0), vec![ObjectId(1)]));
        sys
    })
}

/// FDB060 demo: a replica set names a node with no path from the home —
/// commits keep succeeding (a majority is not even required under §4.3),
/// but the cut-off replica never hears a single update: at quiescence,
/// with every node up, the replicas of the fragment diverge.
fn fdb060_instance() -> McInstance {
    McInstance::new("witness-fdb060-unreachable-replica", true, false, || {
        let mut topo = Topology::new(3);
        topo.add_link(NodeId(0), NodeId(1), ms(5));
        let f = FragmentId(0);
        let mut sys = System::build(
            topo,
            catalog(&["LEDGER"]),
            node_agents(&[0]),
            SystemConfig::unrestricted(7).with_replica_set(f, [NodeId(0), NodeId(1), NodeId(2)]),
        )
        .expect("fdb060 witness builds");
        sys.submit_at(at(1), bump(f, ObjectId(0)));
        sys
    })
}

/// Produce the concrete counterexample for a rejecting `FDB02x`/`FDB03x`
/// code, or `None` for codes that are not error-severity rejections in
/// those blocks (and for other blocks entirely, which have their own
/// evidence: `FDB00x`/`FDB01x` are schema-shape checks and `FDB05x`
/// liveness is covered by the simulation-scale self-heal tests).
pub fn witness_for(code: Code) -> Option<Witness> {
    match code {
        Code::Fdb020 => trace_witness(
            code,
            "two mutually-reading fragments run without the §4.2 guard",
            fdb020_instance(),
            InvariantKind::NotGlobal,
            false,
        ),
        Code::Fdb030 => trace_witness(
            code,
            "majority-commit fragment homed on a node cut off from every majority",
            fdb030_instance(),
            InvariantKind::Stuck,
            true,
        ),
        Code::Fdb031 => trace_witness(
            code,
            "read-lock class whose lock site is unreachable from the initiator",
            fdb031_instance(),
            InvariantKind::Stuck,
            true,
        ),
        Code::Fdb032 => trace_witness(
            code,
            "program reads a fragment its home node holds no replica of",
            fdb032_instance(),
            InvariantKind::Stuck,
            true,
        ),
        Code::Fdb033 => refusal_witness(
            code,
            "read-lock fragment combined with a movement policy",
            || {
                System::build(
                    Topology::full_mesh(2, ms(5)),
                    catalog(&["L"]),
                    node_agents(&[0]),
                    SystemConfig::read_locks(7).with_move_policy(MovePolicy::NoPrep),
                )
            },
        ),
        Code::Fdb034 => refusal_witness(code, "fragment homed outside its own replica set", || {
            System::build(
                Topology::full_mesh(3, ms(5)),
                catalog(&["P"]),
                node_agents(&[0]),
                SystemConfig::unrestricted(7)
                    .with_replica_set(FragmentId(0), [NodeId(1), NodeId(2)]),
            )
        }),
        Code::Fdb035 => refusal_witness(code, "fragment with an empty replica set", || {
            System::build(
                Topology::full_mesh(2, ms(5)),
                catalog(&["P"]),
                node_agents(&[0]),
                SystemConfig::unrestricted(7).with_replica_set(FragmentId(0), []),
            )
        }),
        Code::Fdb060 => trace_witness(
            code,
            "replica set naming a node unreachable from the fragment's home",
            fdb060_instance(),
            InvariantKind::Divergence,
            false,
        ),
        _ => None,
    }
}

/// Every error-severity code in the `FDB02x`/`FDB03x` blocks — the ones
/// [`witness_for`] must substantiate. Kept in one place so tests can
/// assert coverage.
pub const REJECTING_CODES: [Code; 8] = [
    Code::Fdb020,
    Code::Fdb030,
    Code::Fdb031,
    Code::Fdb032,
    Code::Fdb033,
    Code::Fdb034,
    Code::Fdb035,
    Code::Fdb060,
];

#[cfg(test)]
mod tests {
    use super::*;
    use fragdb_net::NetworkChange;

    /// Divergent shape (d) at model-checking scope: three nodes, one
    /// §4.4.1 fragment homed at node 0. The builder runs the fault prefix
    /// to a fixed state: node 2 is cut off while the home commits with the
    /// ack of node 1, the home crashes (its unacked sends to node 2 die
    /// with it), the partition heals and the home recovers. The explorer
    /// then interleaves an explicit move to node 1, its majority recovery
    /// and every delivery, exhaustively. Without `with_moved`, so the
    /// fragment stays under the `Divergence` invariant.
    fn shape_d_instance() -> McInstance {
        McInstance::new("shape-d-rehomed-entry", true, false, || {
            let f = FragmentId(0);
            let mut sys = System::build(
                Topology::full_mesh(3, ms(5)),
                catalog(&["LEDGER"]),
                node_agents(&[0]),
                SystemConfig::unrestricted(42).with_move_policy(MovePolicy::MajorityCommit {
                    timeout: SimDuration::from_secs(2),
                }),
            )
            .expect("shape (d) instance builds");
            sys.net_change_at(
                at(0),
                NetworkChange::Split(vec![vec![NodeId(0), NodeId(1)], vec![NodeId(2)]]),
            );
            sys.submit_at(at(1), bump(f, ObjectId(0)));
            sys.crash_at(at(30), NodeId(0));
            sys.net_change_at(at(31), NetworkChange::HealAll);
            sys.recover_at(at(32), NodeId(0));
            sys.run_until(at(33));
            let entries = |n: u32| sys.replica(NodeId(n)).wal().fragment_entries(f).count();
            assert_eq!((entries(0), entries(2)), (1, 0), "node 2 missed the commit");
            sys.move_agent_at(at(34), f, NodeId(1));
            sys
        })
    }

    /// The shortest `Divergence` witness of [`shape_d_instance`] before
    /// the new home pushed the recovered tail to members behind it: node
    /// 0's reply completes the recovery, node 2's lands after it.
    const SHAPE_D_WITNESS: [u64; 10] = [16, 17, 19, 21, 22, 25, 27, 28, 8, 24];

    #[test]
    fn shape_d_no_longer_diverges() {
        let inst = shape_d_instance();
        let stats = explore(&inst, &ExploreConfig::full());
        assert!(!stats.truncated, "the instance explores exhaustively");
        assert!(
            stats.clean(),
            "{} violating state(s), first: {:?}",
            stats.violation_states,
            stats.violations.first()
        );
        let cfg = ExploreConfig::full();
        let along = violations_along_path(&inst, &SHAPE_D_WITNESS, &cfg);
        assert!(along.is_empty(), "the old witness still fails: {along:?}");
        // The witness still replays step for step, and run on in the
        // canonical order to quiescence it converges.
        let mut sys = inst.replay(&SHAPE_D_WITNESS);
        for _ in 0..1_000 {
            let Some(next) = sys.mc_choices().first().map(|c| c.seq) else {
                break;
            };
            sys.mc_step(next);
        }
        assert!(sys.mc_quiescent());
        assert_eq!(sys.divergent_fragments(), Vec::new());
    }

    #[test]
    fn every_rejecting_code_has_a_replaying_witness() {
        for code in REJECTING_CODES {
            let w = witness_for(code).unwrap_or_else(|| panic!("no witness for {code}"));
            assert_eq!(w.code, code);
            assert!(w.replay(), "witness for {code} does not replay");
            let rendered = w.to_string();
            assert!(rendered.contains(code.as_str()));
            assert!(rendered.contains("= violation:"));
        }
    }

    #[test]
    fn trace_witnesses_are_nonempty_and_minimal_looking() {
        for code in [
            Code::Fdb020,
            Code::Fdb030,
            Code::Fdb031,
            Code::Fdb032,
            Code::Fdb060,
        ] {
            let w = witness_for(code).expect("trace witness");
            assert!(!w.is_empty(), "{code} should have a concrete trace");
            assert!(w.kind().is_some());
            assert_eq!(w.steps().len(), w.len());
        }
    }

    #[test]
    fn refusal_witnesses_are_zero_step() {
        for code in [Code::Fdb033, Code::Fdb034, Code::Fdb035] {
            let w = witness_for(code).expect("refusal witness");
            assert!(w.is_empty());
            assert_eq!(w.kind(), None);
            assert!(w.outcome().contains("construction refused"));
        }
    }

    #[test]
    fn info_and_warning_codes_have_no_witness() {
        assert!(witness_for(Code::Fdb021).is_none());
        assert!(witness_for(Code::Fdb022).is_none());
        assert!(witness_for(Code::Fdb040).is_none());
        assert!(witness_for(Code::Fdb061).is_none());
        assert!(witness_for(Code::Fdb062).is_none());
    }
}
