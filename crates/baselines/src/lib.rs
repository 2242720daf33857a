#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! The two baselines the paper positions itself against (§1).
//!
//! * [`mutex`] — **mutual exclusion** (the conservative end of the
//!   Figure 1.1 spectrum): updates are forwarded to a primary node and
//!   only succeed when the submitter can reach it. Globally serializable;
//!   availability collapses for any group partitioned away from the
//!   primary.
//! * [`logtransform`] — **log transformation** (the "free-for-all" end):
//!   every node applies operations locally and immediately, logs them,
//!   and exchanges logs when connectivity allows; replicas converge by
//!   deterministically replaying the merged operation log in timestamp
//!   order. Perfect availability; no serializability, only eventual
//!   convergence — plus whatever corrective actions the application
//!   bolts on, evaluated *per node* (which is exactly how the paper's
//!   "different fines at different nodes" chaos arises).
//!
//! Both run on the same [`ReliableNet`] as fragdb-core, with fault-free
//! links, so experiment E1/E2 comparisons are apples-to-apples.
//!
//! [`ReliableNet`]: fragdb_net::ReliableNet

pub mod logtransform;
pub mod mutex;

pub use logtransform::{LogTransformConfig, LogTransformSystem, LoggedOp};
pub use mutex::{MutexConfig, MutexSystem};

use fragdb_net::{NetAction, PktDelivery, RetransmitTimer};
use fragdb_sim::Engine;

/// Schedule the reliable layer's follow-up work on a baseline's engine: a
/// packet arrival becomes a `pkt` event, a retransmission timer an `rto`
/// event.
fn schedule_net<M, E>(
    engine: &mut Engine<E>,
    actions: Vec<NetAction<M>>,
    pkt: fn(PktDelivery<M>) -> E,
    rto: fn(RetransmitTimer) -> E,
) {
    for action in actions {
        match action {
            NetAction::Deliver(at, pd) => engine.schedule_at(at, pkt(pd)),
            NetAction::Timer(at, timer) => engine.schedule_at(at, rto(timer)),
        }
    }
}
