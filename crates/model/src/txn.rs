//! Transactions, operations, and quasi-transactions.
//!
//! §3.2 distinguishes **update** transactions (initiated only by the
//! fragment's agent, writes confined to that fragment) from **read-only**
//! transactions (initiated by any agent). A committed update transaction is
//! propagated to the other replicas as a **quasi-transaction**: a write-only
//! batch `(T; d1,v1; …; dn,vn)` that is installed atomically, never re-run.
//!
//! An [`AccessDecl`] declares a transaction *class* (which fragments it
//! reads, which it writes). Classes are what the read-access graph of §4.2
//! is built from.

use std::collections::BTreeSet;
use std::sync::Arc;

use crate::error::ModelError;
use crate::fragment::FragmentCatalog;
use crate::ids::{FragmentId, NodeId, ObjectId, TxnId};
use crate::value::Value;

/// The immutable `(d_i, v_i)` payload of a quasi-transaction, shared by
/// reference count.
///
/// A committed update's write batch is broadcast to every other replica,
/// buffered for retransmission, held back for ordered installation, staged
/// for majority commit, and logged in each WAL — all as *copies of the same
/// immutable data*. Sharing one allocation makes each of those copies an
/// O(1) reference-count bump instead of an O(payload) deep clone, so a
/// commit materializes its payload exactly once regardless of the replica
/// count (the paper's r−1 messages stay r−1 *pointers*, §6).
///
/// Cloning an `Updates` is always cheap; building one from a `Vec` is the
/// single per-commit materialization.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Updates(Arc<[(ObjectId, Value)]>);

impl Updates {
    /// Materialize a payload from owned pairs. This is the one deep copy a
    /// commit performs; every subsequent [`Clone`] shares it.
    pub fn new(pairs: Vec<(ObjectId, Value)>) -> Self {
        Updates(pairs.into())
    }

    /// An empty payload.
    pub fn empty() -> Self {
        Updates(Arc::from(Vec::new()))
    }

    /// Approximate in-memory size of the payload in bytes (pairs plus text
    /// heap) — the quantity a deep clone would copy. Used by the payload
    /// cost-model metrics.
    pub fn approx_bytes(&self) -> u64 {
        let inline = std::mem::size_of::<(ObjectId, Value)>() * self.0.len();
        let heap: usize = self
            .0
            .iter()
            .map(|(_, v)| match v {
                Value::Text(s) => s.len(),
                _ => 0,
            })
            .sum();
        (inline + heap) as u64
    }

    /// Copy the payload out into an owned `Vec` (a deliberate deep copy,
    /// e.g. for a driver-facing notification).
    pub fn to_vec(&self) -> Vec<(ObjectId, Value)> {
        self.0.to_vec()
    }
}

impl std::ops::Deref for Updates {
    type Target = [(ObjectId, Value)];
    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl From<Vec<(ObjectId, Value)>> for Updates {
    fn from(pairs: Vec<(ObjectId, Value)>) -> Self {
        Updates::new(pairs)
    }
}

impl FromIterator<(ObjectId, Value)> for Updates {
    fn from_iter<I: IntoIterator<Item = (ObjectId, Value)>>(iter: I) -> Self {
        Updates(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a Updates {
    type Item = &'a (ObjectId, Value);
    type IntoIter = std::slice::Iter<'a, (ObjectId, Value)>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// Read or write.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Read a data object.
    Read,
    /// Write a data object.
    Write,
}

/// A transaction *class* declaration: which fragments instances read and
/// (for update classes) the single fragment they write. The read-access
/// graph of §4.2 has an edge `(F_i, F_j)` whenever a class initiated by
/// `A(F_i)` reads from `F_j`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AccessDecl {
    /// Fragment whose agent initiates this class.
    pub initiator: FragmentId,
    /// Fragments read by instances of the class (may include `initiator`).
    pub reads: BTreeSet<FragmentId>,
    /// `true` if instances update the initiator's fragment.
    pub updates: bool,
}

impl AccessDecl {
    /// Declare an update class: initiated by `A(initiator)`, writes
    /// `initiator`, reads `reads`.
    pub fn update(initiator: FragmentId, reads: impl IntoIterator<Item = FragmentId>) -> Self {
        AccessDecl {
            initiator,
            reads: reads.into_iter().collect(),
            updates: true,
        }
    }

    /// Declare a read-only class.
    pub fn read_only(initiator: FragmentId, reads: impl IntoIterator<Item = FragmentId>) -> Self {
        AccessDecl {
            initiator,
            reads: reads.into_iter().collect(),
            updates: false,
        }
    }

    /// Fragments read *outside* the initiator's own fragment — exactly the
    /// edges this class contributes to the read-access graph.
    pub fn foreign_reads(&self) -> impl Iterator<Item = FragmentId> + '_ {
        let own = self.initiator;
        self.reads.iter().copied().filter(move |f| *f != own)
    }
}

/// The propagated form of a committed update transaction (§3.2): a
/// write-only batch installed atomically and in per-origin order at every
/// other replica.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuasiTransaction {
    /// Identifier of the originating update transaction.
    pub txn: TxnId,
    /// Fragment the updates belong to (single-fragment transactions only,
    /// per the paper's simplification).
    pub fragment: FragmentId,
    /// Position of this transaction in the fragment's single uninterrupted
    /// update sequence (§4.4.1: "a single, uninterrupted sequence of
    /// transactions"). Starts at 0 for each fragment.
    pub frag_seq: u64,
    /// Token epoch under which the update was issued (which ownership
    /// regime); used by the movement protocols.
    pub epoch: u64,
    /// The unconditional updates `(d_i, v_i)` to install, shared (not
    /// copied) across every in-flight and logged copy of this
    /// quasi-transaction.
    pub updates: Updates,
}

impl QuasiTransaction {
    /// Home node of the originating transaction.
    pub fn origin(&self) -> NodeId {
        self.txn.origin
    }

    /// Check the quasi-transaction is well-formed with respect to
    /// `catalog`: every update targets a known object, and every object
    /// lies in [`QuasiTransaction::fragment`] (the §3.2 initiation
    /// requirement, re-checked at the installation boundary so a malformed
    /// envelope is a typed error, not a corrupted replica).
    pub fn validate_against(&self, catalog: &FragmentCatalog) -> Result<(), ModelError> {
        for (object, _) in &self.updates {
            let frag = catalog.fragment_of(*object)?;
            if frag != self.fragment {
                return Err(ModelError::InitiationViolation {
                    txn: self.txn,
                    agent_fragment: self.fragment,
                    object: *object,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::FragmentCatalog;

    fn catalog() -> (FragmentCatalog, Vec<ObjectId>, Vec<ObjectId>) {
        let mut b = FragmentCatalog::builder();
        let (_, a) = b.add_fragment("A", 2);
        let (_, c) = b.add_fragment("B", 2);
        (b.build(), a, c)
    }

    #[test]
    fn access_decl_foreign_reads_exclude_own_fragment() {
        let d = AccessDecl::update(FragmentId(0), [FragmentId(0), FragmentId(1), FragmentId(2)]);
        let foreign: Vec<FragmentId> = d.foreign_reads().collect();
        assert_eq!(foreign, vec![FragmentId(1), FragmentId(2)]);
        assert!(d.updates);
        let r = AccessDecl::read_only(FragmentId(1), [FragmentId(0)]);
        assert!(!r.updates);
    }

    #[test]
    fn quasi_validate_against_catches_foreign_and_unknown_objects() {
        let (cat, a_objs, b_objs) = catalog();
        let mut q = QuasiTransaction {
            txn: TxnId::new(NodeId(0), 0),
            fragment: FragmentId(0),
            frag_seq: 0,
            epoch: 0,
            updates: vec![(a_objs[0], Value::Int(1))].into(),
        };
        assert!(q.validate_against(&cat).is_ok());
        q.updates = vec![(a_objs[0], Value::Int(1)), (b_objs[0], Value::Int(2))].into();
        assert!(matches!(
            q.validate_against(&cat),
            Err(ModelError::InitiationViolation { .. })
        ));
        q.updates = vec![(ObjectId(999), Value::Int(3))].into();
        assert!(matches!(
            q.validate_against(&cat),
            Err(ModelError::UnknownObject(_))
        ));
    }

    #[test]
    fn quasi_transaction_origin() {
        let q = QuasiTransaction {
            txn: TxnId::new(NodeId(3), 9),
            fragment: FragmentId(1),
            frag_seq: 4,
            epoch: 0,
            updates: vec![(ObjectId(0), Value::Int(10))].into(),
        };
        assert_eq!(q.origin(), NodeId(3));
    }

    #[test]
    fn updates_clone_shares_the_allocation() {
        let u = Updates::new(vec![
            (ObjectId(0), Value::Int(1)),
            (ObjectId(1), Value::Text("x".into())),
        ]);
        let copies: Vec<Updates> = (0..64).map(|_| u.clone()).collect();
        for c in &copies {
            // Same allocation, not an equal copy.
            assert!(std::ptr::eq(c.as_ptr(), u.as_ptr()));
        }
        assert_eq!(u.len(), 2);
        assert_eq!(u.to_vec().len(), 2);
        assert!(u.approx_bytes() >= 1);
        assert!(Updates::empty().is_empty());
    }
}
