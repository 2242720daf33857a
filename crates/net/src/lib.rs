#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Simulated communication substrate.
//!
//! §3.1 assumes "a point-to-point communication network of arbitrary
//! topology"; §3.2 requires a **reliable broadcast mechanism** in which
//! (1) all messages are eventually delivered and (2) messages broadcast by
//! one node are processed at every other node in the order sent. This crate
//! provides both, on top of the deterministic simulation kernel, as
//! per-pair FIFO delivery: [`reliable`] is the one layer that numbers,
//! orders and de-duplicates messages, and a broadcast is the caller's
//! fan-out loop over it (one send per receiver, any subset of nodes).
//!
//! * [`topology`] — the static link graph with per-link delays.
//! * [`linkstate`] — which links are currently severed.
//! * [`partition`] — timed schedules of partition/heal events.
//! * [`fault`] — per-link fault plans: drop/duplication probabilities and
//!   reordering jitter, as pure data sampled by the reliable layer.
//! * [`reliable`] — ack/retransmit point-to-point delivery that *earns*
//!   eventual, exactly-once, per-pair-FIFO delivery under injected loss,
//!   duplication, reordering and partitions, instead of assuming it. It is
//!   the only layer that delivers messages: fragdb-core and both §1
//!   baselines run on it.
//! * [`broadcast`] — per-pair sequence stamps plus per-receiver hold-back
//!   queues, for a channel that may reorder or duplicate. [`reliable`]
//!   does neither, so nothing in the workspace stacks it on it any more;
//!   it stays for the benchmark's layer driver.
//! * [`detector`] — deterministic heartbeat failure detection: each node's
//!   local view of peer liveness, feeding the quorum election that
//!   replaces the paper's manual post-failure operator hooks.
//!
//! The crate is engine-agnostic: methods take the current [`SimTime`] and
//! return [`reliable::NetAction`]s (packet arrivals and retransmission
//! timers) for the caller to schedule, so any event-loop owner
//! (fragdb-core, the baselines, tests) can drive it.
//!
//! [`SimTime`]: fragdb_sim::SimTime

pub mod broadcast;
pub mod detector;
pub mod fault;
pub mod linkstate;
pub mod partition;
pub mod reliable;
pub mod topology;
mod wire;

pub use broadcast::BroadcastLayer;
pub use detector::FailureDetector;
pub use fault::{FaultConfig, FaultPlan};
pub use linkstate::LinkState;
pub use partition::{NetworkChange, PartitionSchedule};
pub use reliable::{
    Delivery, NetAction, Pkt, PktDelivery, ReliableNet, ReliableStats, RetransmitTimer,
};
pub use topology::{RouteCache, Topology};
