//! Control strategies (§4.1–§4.3).
//!
//! All three fixed-agent options share the same mechanism (agents, tokens,
//! quasi-transactions, FIFO broadcast) and differ only in how *reads* are
//! admitted:
//!
//! * [`StrategyKind::ReadLocks`] (§4.1) — remote shared locks on every
//!   foreign object read, acquired from the object's agent's home node
//!   before execution. Globally serializable; lowest availability.
//! * [`StrategyKind::AcyclicRag`] (§4.2) — no read synchronization at all,
//!   but transaction *classes* must be declared and the resulting
//!   read-access graph must be elementarily acyclic (validated when the
//!   system is built). Globally serializable by the paper's theorem.
//! * [`StrategyKind::Unrestricted`] (§4.3) — reads go anywhere, anytime.
//!   Fragmentwise serializable.

use fragdb_graphs::ReadAccessGraph;
use fragdb_model::{AccessDecl, FragmentId};
use fragdb_sim::SimDuration;

/// Which control option the system runs.
#[derive(Debug, Clone)]
pub enum StrategyKind {
    /// §4.1: fixed agents, remote read locks. `timeout` bounds how long a
    /// transaction waits for lock grants before aborting as unavailable.
    ReadLocks {
        /// Lock-wait patience.
        timeout: SimDuration,
    },
    /// §4.2: fixed agents, declared classes, elementarily acyclic RAG.
    AcyclicRag {
        /// The declared transaction classes.
        decls: Vec<AccessDecl>,
        /// If `true`, read-only transactions may violate the declared
        /// graph (the §4.2 "no great harm" relaxation: anomalies show only
        /// in their output, never in the database).
        allow_violating_read_only: bool,
    },
    /// §4.3: fixed agents, no read restrictions.
    Unrestricted,
}

/// Error raised when a strategy's preconditions fail at system build time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StrategyError {
    /// §4.2 requires the read-access graph to be elementarily acyclic; it
    /// is not, and here is an offending undirected edge.
    RagNotElementarilyAcyclic(FragmentId, FragmentId),
}

impl std::fmt::Display for StrategyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StrategyError::RagNotElementarilyAcyclic(a, b) => write!(
                f,
                "read-access graph is not elementarily acyclic (edge {a} - {b} closes a cycle)"
            ),
        }
    }
}

impl std::error::Error for StrategyError {}

impl StrategyKind {
    /// Validate build-time preconditions. For [`StrategyKind::AcyclicRag`]
    /// this checks elementary acyclicity of the declared classes' graph.
    pub fn validate(&self) -> Result<(), StrategyError> {
        if let StrategyKind::AcyclicRag { decls, .. } = self {
            let rag = ReadAccessGraph::from_decls(decls);
            if let Some((a, b)) = rag.undirected_cycle_edge() {
                return Err(StrategyError::RagNotElementarilyAcyclic(a, b));
            }
        }
        Ok(())
    }

    /// §4.2 admission: is an update class `(initiator, reads)` declared?
    /// Other strategies admit everything (returns `true`).
    pub fn admits_update(
        &self,
        initiator: FragmentId,
        reads: impl IntoIterator<Item = FragmentId>,
    ) -> bool {
        self.declared_cover(initiator, reads, true)
    }

    /// §4.2 admission for read-only transactions.
    pub fn admits_read_only(
        &self,
        initiator: FragmentId,
        reads: impl IntoIterator<Item = FragmentId>,
    ) -> bool {
        matches!(
            self,
            StrategyKind::AcyclicRag {
                allow_violating_read_only: true,
                ..
            }
        ) || self.declared_cover(initiator, reads, false)
    }

    /// Does a declared class of `initiator` (an update class, if `update`)
    /// declare every fragment of `reads` other than its own? Strategies
    /// without declared classes cover everything.
    fn declared_cover(
        &self,
        initiator: FragmentId,
        reads: impl IntoIterator<Item = FragmentId>,
        update: bool,
    ) -> bool {
        let StrategyKind::AcyclicRag { decls, .. } = self else {
            return true;
        };
        let reads: Vec<FragmentId> = reads.into_iter().collect();
        decls.iter().any(|d| {
            (d.updates || !update)
                && d.initiator == initiator
                && reads.iter().all(|f| *f == initiator || d.reads.contains(f))
        })
    }

    /// Does this strategy use the §4.1 remote read-lock protocol?
    pub fn uses_read_locks(&self) -> bool {
        matches!(self, StrategyKind::ReadLocks { .. })
    }

    /// Short label for reports (matches Figure 1.1 terminology).
    pub fn label(&self) -> &'static str {
        match self {
            StrategyKind::ReadLocks { .. } => "4.1 read-locks",
            StrategyKind::AcyclicRag { .. } => "4.2 acyclic-RAG",
            StrategyKind::Unrestricted => "4.3 unrestricted",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(i: u32) -> FragmentId {
        FragmentId(i)
    }

    #[test]
    fn unrestricted_admits_everything() {
        let s = StrategyKind::Unrestricted;
        assert!(s.validate().is_ok());
        assert!(s.admits_update(f(0), [f(1), f(2)]));
        assert!(s.admits_read_only(f(0), [f(5)]));
        assert!(!s.uses_read_locks());
    }

    #[test]
    fn read_locks_admit_everything_but_flag_lock_use() {
        let s = StrategyKind::ReadLocks {
            timeout: SimDuration::from_secs(5),
        };
        assert!(s.validate().is_ok());
        assert!(s.uses_read_locks());
        assert!(s.admits_update(f(0), [f(1)]));
    }

    #[test]
    fn acyclic_rag_validates_elementary_acyclicity() {
        // Star (warehouse example): OK.
        let ok = StrategyKind::AcyclicRag {
            decls: vec![
                AccessDecl::update(f(0), [f(1), f(2), f(3)]),
                AccessDecl::update(f(1), [f(1)]),
            ],
            allow_violating_read_only: false,
        };
        assert!(ok.validate().is_ok());

        // Triangle (Figure 4.3.1): rejected.
        let bad = StrategyKind::AcyclicRag {
            decls: vec![
                AccessDecl::update(f(1), [f(2), f(3)]),
                AccessDecl::update(f(2), [f(3)]),
            ],
            allow_violating_read_only: false,
        };
        assert!(matches!(
            bad.validate(),
            Err(StrategyError::RagNotElementarilyAcyclic(_, _))
        ));
        let msg = bad.validate().unwrap_err().to_string();
        assert!(msg.contains("elementarily acyclic"));
    }

    #[test]
    fn acyclic_rag_admission_checks_declared_classes() {
        let s = StrategyKind::AcyclicRag {
            decls: vec![
                AccessDecl::update(f(0), [f(1)]),
                AccessDecl::read_only(f(2), [f(0), f(1)]),
            ],
            allow_violating_read_only: false,
        };
        // Declared update class (own-fragment reads always implied).
        assert!(s.admits_update(f(0), [f(0), f(1)]));
        // Reading an undeclared fragment: refused.
        assert!(!s.admits_update(f(0), [f(2)]));
        // Undeclared initiator: refused.
        assert!(!s.admits_update(f(1), [f(0)]));
        // Declared read-only class.
        assert!(s.admits_read_only(f(2), [f(0)]));
        // A read-only class does not admit an update with its reads.
        assert!(!s.admits_update(f(2), [f(0)]));
        // Undeclared read-only class: refused.
        assert!(!s.admits_read_only(f(1), [f(0)]));
    }

    #[test]
    fn violating_read_only_relaxation() {
        let s = StrategyKind::AcyclicRag {
            decls: vec![AccessDecl::update(f(0), [f(1)])],
            allow_violating_read_only: true,
        };
        // Any read-only transaction is admitted under the relaxation...
        assert!(s.admits_read_only(f(5), [f(0), f(1)]));
        // ...but updates still must be declared.
        assert!(!s.admits_update(f(5), [f(0)]));
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(StrategyKind::Unrestricted.label(), "4.3 unrestricted");
        assert_eq!(
            StrategyKind::ReadLocks {
                timeout: SimDuration::ZERO
            }
            .label(),
            "4.1 read-locks"
        );
    }
}
