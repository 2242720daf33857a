#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Serialization-theory toolkit: the paper's Appendix, mechanized.
//!
//! The correctness claims of the paper are all statements about graphs
//! built from executed histories:
//!
//! * [`digraph`] — a small directed-graph engine with cycle detection and
//!   witness extraction, shared by all the checkers.
//! * [`rag`] — the **read-access graph** of §4.2 and its *elementary
//!   acyclicity* test (the undirected version must be acyclic).
//! * [`gsg`] — the **global serialization graph** of Definition 8.2; its
//!   acyclicity is the paper's criterion for global serializability.
//! * [`lsg`] — the **local serialization graphs** of Definition 8.3, one
//!   per fragment.
//! * [`fragmentwise`] — the checkers for §4.3's Properties 1 and 2
//!   (per-fragment serializability and quasi-transaction atomicity), which
//!   together define **fragmentwise serializability**.
//! * [`verdict`] — a one-call summary running every checker over a history.
//! * [`incremental`] — an online analyzer fed one op at a time. It builds
//!   the same graphs as it goes, searches them for a cycle when a verdict
//!   is read, and keeps Property 2 state only for a reader with two reads
//!   at one node. The batch checkers above remain the oracle it is tested
//!   against.
//!
//! The batch checkers consume the [`History`] recorded during a simulation
//! run after the fact, mirroring how the paper reasons about schedules;
//! the incremental analyzer reaches the same verdicts from the ops as they
//! are recorded.
//!
//! [`History`]: fragdb_model::History

pub mod digraph;
pub mod fragmentwise;
pub mod gsg;
pub mod incremental;
pub mod lsg;
pub mod rag;
pub mod verdict;

pub use digraph::DiGraph;
pub use fragmentwise::{check_property1, check_property2, FragmentwiseReport};
pub use gsg::GlobalSerializationGraph;
pub use incremental::{IncrementalAnalyzer, IncrementalVerdict};
pub use lsg::LocalSerializationGraph;
pub use rag::ReadAccessGraph;
pub use verdict::{analyze, Verdict};
