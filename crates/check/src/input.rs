//! The declared configuration the analyzer consumes.
//!
//! [`ClassDecl`] extends the runtime [`AccessDecl`] with a *name* (so
//! diagnostics can point at the offending declaration) and an explicit
//! *write set* (so the §3.2 initiation requirement is checkable from the
//! declaration alone — `AccessDecl` can only say "updates the initiator").

use std::collections::BTreeSet;

use fragdb_core::SystemConfig;
use fragdb_model::{AccessDecl, AgentId, FragmentCatalog, FragmentId, NodeId};
use fragdb_net::Topology;

/// A named transaction-class declaration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClassDecl {
    /// Human-readable name used in diagnostics.
    pub name: String,
    /// Fragment whose agent initiates instances of the class.
    pub initiator: FragmentId,
    /// Fragments instances read (may include `initiator`).
    pub reads: BTreeSet<FragmentId>,
    /// Fragments instances write. `{initiator}` for ordinary update
    /// classes, empty for read-only classes.
    pub writes: BTreeSet<FragmentId>,
}

impl ClassDecl {
    /// An ordinary update class: writes only the initiator's fragment.
    pub fn update(
        name: impl Into<String>,
        initiator: FragmentId,
        reads: impl IntoIterator<Item = FragmentId>,
    ) -> Self {
        ClassDecl {
            name: name.into(),
            initiator,
            reads: reads.into_iter().collect(),
            writes: [initiator].into_iter().collect(),
        }
    }

    /// A read-only class.
    pub fn read_only(
        name: impl Into<String>,
        initiator: FragmentId,
        reads: impl IntoIterator<Item = FragmentId>,
    ) -> Self {
        ClassDecl {
            name: name.into(),
            initiator,
            reads: reads.into_iter().collect(),
            writes: BTreeSet::new(),
        }
    }

    /// Wrap a runtime [`AccessDecl`] under a name.
    pub fn from_access(name: impl Into<String>, decl: &AccessDecl) -> Self {
        ClassDecl {
            name: name.into(),
            initiator: decl.initiator,
            reads: decl.reads.clone(),
            writes: if decl.updates {
                [decl.initiator].into_iter().collect()
            } else {
                BTreeSet::new()
            },
        }
    }

    /// Project back to the runtime declaration the §4.2 strategy consumes.
    pub fn to_access(&self) -> AccessDecl {
        if self.writes.is_empty() {
            AccessDecl::read_only(self.initiator, self.reads.iter().copied())
        } else {
            AccessDecl::update(self.initiator, self.reads.iter().copied())
        }
    }

    /// Is the class read-only (declares no writes)?
    pub fn is_read_only(&self) -> bool {
        self.writes.is_empty()
    }

    /// Fragments written outside the initiator's own fragment.
    pub fn foreign_writes(&self) -> impl Iterator<Item = FragmentId> + '_ {
        let own = self.initiator;
        self.writes.iter().copied().filter(move |f| *f != own)
    }
}

/// Everything the static analyzer looks at — exactly what
/// [`fragdb_core::System::build`] would consume, plus the named classes.
/// Nothing here is executed.
pub struct CheckInput<'a> {
    /// The node graph (base connectivity; all links assumed up).
    pub topology: &'a Topology,
    /// Fragment → object map.
    pub catalog: &'a FragmentCatalog,
    /// `(fragment, agent, home)` token assignment.
    pub agents: &'a [(FragmentId, AgentId, NodeId)],
    /// The declared transaction classes.
    pub classes: &'a [ClassDecl],
    /// Strategy, movement, and replication choices.
    pub config: &'a SystemConfig,
}

impl CheckInput<'_> {
    /// The declared home of `fragment`'s agent, if assigned.
    pub(crate) fn home_of(&self, fragment: FragmentId) -> Option<NodeId> {
        self.agents
            .iter()
            .find(|(f, _, _)| *f == fragment)
            .map(|&(_, _, home)| home)
    }

    /// The runtime access declarations implied by the classes.
    pub fn access_decls(&self) -> Vec<AccessDecl> {
        self.classes.iter().map(ClassDecl::to_access).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_shape_the_write_set() {
        let f = FragmentId;
        let u = ClassDecl::update("u", f(0), [f(0), f(1)]);
        assert_eq!(u.writes.iter().copied().collect::<Vec<_>>(), vec![f(0)]);
        assert!(!u.is_read_only());
        assert_eq!(u.foreign_writes().count(), 0);

        let r = ClassDecl::read_only("r", f(1), [f(0)]);
        assert!(r.is_read_only());
        assert!(!r.to_access().updates);

        let w = ClassDecl {
            writes: [f(0), f(2)].into_iter().collect(),
            ..u
        };
        assert_eq!(w.foreign_writes().collect::<Vec<_>>(), vec![f(2)]);
    }

    #[test]
    fn from_access_round_trips() {
        let d = AccessDecl::update(FragmentId(2), [FragmentId(1), FragmentId(2)]);
        let c = ClassDecl::from_access("w", &d);
        assert_eq!(c.to_access(), d);
    }
}
