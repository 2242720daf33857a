#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Data model shared by every fragdb crate.
//!
//! This crate defines the paper's vocabulary as Rust types:
//!
//! * [`ids`] — newtype identifiers for nodes, users, fragments, objects, and
//!   transactions.
//! * [`value`] — the dynamic value type stored in data objects.
//! * [`fragment`] — fragments (§3.1: disjoint subsets of the database) and
//!   the [`fragment::FragmentCatalog`] that enforces non-overlap.
//! * [`agent`] — agents and tokens (§3.1: one token per fragment, owned by a
//!   user or a node, transferable out of band).
//! * [`txn`] — transactions, operations, and quasi-transactions (§3.2).
//! * [`history`] — executed histories: the per-node, per-object timelines
//!   that the serialization-graph constructions of the Appendix consume.
//! * [`error`] — shared error type.

pub mod agent;
pub mod error;
pub mod fragment;
pub mod history;
pub mod ids;
pub mod txn;
pub mod value;

pub use agent::{AgentId, Token};
pub use error::ModelError;
pub use fragment::{Fragment, FragmentCatalog};
pub use history::{History, HistoryOp, TxnType};
pub use ids::{FragmentId, NodeId, ObjectId, TxnId, UserId};
pub use txn::{AccessDecl, OpKind, QuasiTransaction, Updates};
pub use value::Value;
