#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Per-node storage substrate.
//!
//! Each of the `n` sites keeps a complete copy of the database (§3.1:
//! "replication is complete"). This crate provides that copy and the local
//! machinery around it:
//!
//! * [`store`] — the versioned object store (one [`store::Store`] per node).
//! * [`wal`] — an append-only log of every installed transaction and each
//!   fragment's positions in it. The movement protocols of §4.4 and the
//!   log-transformation baseline both recover from it.
//! * [`locks`] — a shared/exclusive lock manager with FIFO wait queues and
//!   waits-for deadlock detection. Strategy 4.1 ("fixed agents; read
//!   locks") acquires remote read locks through it.
//! * [`replica`] — the per-node facade combining store + WAL, exposing the
//!   operations the fragments-and-agents engine needs: apply a local
//!   commit, install a quasi-transaction, snapshot or overwrite a fragment
//!   (move-with-data, §4.4.2A), and compute content digests for the mutual
//!   consistency checker.

pub mod locks;
pub mod replica;
pub mod store;
pub mod wal;

pub use locks::{LockManager, LockMode, LockOutcome};
pub use replica::Replica;
pub use store::{BTreeStore, Store};
pub use wal::{Wal, WalEntry};
