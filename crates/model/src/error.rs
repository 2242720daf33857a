//! Shared error type for model-level violations.

use std::fmt;

use crate::ids::{FragmentId, NodeId, ObjectId, TxnId};

/// Errors raised by model-level validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ModelError {
    /// A value was read with the wrong type.
    TypeMismatch {
        /// Expected variant name.
        expected: &'static str,
        /// Found variant name.
        found: &'static str,
    },
    /// An object was assigned to two fragments (fragments must be disjoint, §3.1).
    OverlappingFragments {
        /// The doubly-assigned object.
        object: ObjectId,
        /// First fragment claiming it.
        first: FragmentId,
        /// Second fragment claiming it.
        second: FragmentId,
    },
    /// An object referenced by a transaction is in no fragment.
    UnknownObject(ObjectId),
    /// A fragment id was referenced but never declared.
    UnknownFragment(FragmentId),
    /// A node id was referenced but does not exist.
    UnknownNode(NodeId),
    /// The initiation requirement (§3.2) was violated: an update transaction
    /// wrote outside the initiating agent's fragment.
    InitiationViolation {
        /// Offending transaction.
        txn: TxnId,
        /// Fragment the initiating agent controls.
        agent_fragment: FragmentId,
        /// Object written outside that fragment.
        object: ObjectId,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::TypeMismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected}, found {found}")
            }
            ModelError::OverlappingFragments {
                object,
                first,
                second,
            } => write!(
                f,
                "object {object} assigned to both fragment {first} and fragment {second}"
            ),
            ModelError::UnknownObject(o) => write!(f, "object {o} is in no fragment"),
            ModelError::UnknownFragment(fr) => write!(f, "fragment {fr} not declared"),
            ModelError::UnknownNode(n) => write!(f, "node {n} does not exist"),
            ModelError::InitiationViolation {
                txn,
                agent_fragment,
                object,
            } => write!(
                f,
                "initiation requirement violated: {txn} (agent of {agent_fragment}) writes {object}"
            ),
        }
    }
}

impl std::error::Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_all_variants() {
        let cases: Vec<ModelError> = vec![
            ModelError::TypeMismatch {
                expected: "Int",
                found: "Bool",
            },
            ModelError::OverlappingFragments {
                object: ObjectId(1),
                first: FragmentId(0),
                second: FragmentId(1),
            },
            ModelError::UnknownObject(ObjectId(2)),
            ModelError::UnknownFragment(FragmentId(3)),
            ModelError::UnknownNode(NodeId(4)),
            ModelError::InitiationViolation {
                txn: TxnId::new(NodeId(0), 1),
                agent_fragment: FragmentId(0),
                object: ObjectId(9),
            },
        ];
        for c in cases {
            assert!(!c.to_string().is_empty());
        }
    }

    #[test]
    fn is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&ModelError::UnknownObject(ObjectId(0)));
    }
}
