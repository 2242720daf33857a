//! What [`ReliableNet`] stands on: the static link graph, the live link
//! state, and the epoch that numbers it. [`Wire::apply_change`] is the only
//! way to change the state, and it bumps the epoch, so a route memoized
//! with the epoch it was searched under is current exactly while the epoch
//! is; [`ReliableNet`] keeps each direction's in its stream record.
//!
//! [`ReliableNet`]: crate::reliable::ReliableNet

use fragdb_model::NodeId;
use fragdb_sim::{SimDuration, SimTime};

use crate::linkstate::LinkState;
use crate::partition::NetworkChange;
use crate::topology::Topology;

/// A memoized route: the wire epoch it was searched under and the delay
/// (`None`: unreachable). Epoch 0 is never current.
pub(crate) type Route = (u64, Option<SimDuration>);

/// Topology + live link state + the state's epoch.
#[derive(Debug)]
pub(crate) struct Wire {
    topo: Topology,
    state: LinkState,
    /// Bumped by every change; starts at 1, so 0 is never current.
    epoch: u64,
}

impl Wire {
    /// All links up, at epoch 1.
    pub(crate) fn new(topo: Topology) -> Self {
        Wire {
            topo,
            state: LinkState::all_up(),
            epoch: 1,
        }
    }

    pub(crate) fn connected(&self, a: NodeId, b: NodeId) -> bool {
        self.topo.connected(a, b, &self.state)
    }

    /// Apply a link-state change, starting a new epoch.
    pub(crate) fn apply_change(&mut self, change: &NetworkChange) {
        change.apply(&mut self.state);
        self.epoch += 1;
    }

    /// Shortest-path delay under the current link state, `None` when
    /// `from` cannot reach `to`, memoized in `memo` with the epoch: the
    /// search runs only when the memo is from an older state.
    pub(crate) fn route(&self, memo: &mut Route, from: NodeId, to: NodeId) -> Option<SimDuration> {
        if memo.0 != self.epoch {
            *memo = (self.epoch, self.topo.path_delay(from, to, &self.state));
        }
        memo.1
    }
}

/// The rule that keeps one directed link FIFO: an arrival is scheduled at
/// `candidate`, or one microsecond after the link's previous arrival if
/// that is later. `last` is the link's previous arrival and is advanced to
/// the slot returned.
pub(crate) fn fifo_slot(last: &mut Option<SimTime>, candidate: SimTime) -> SimTime {
    let at = match *last {
        Some(last) if candidate <= last => last + SimDuration(1),
        _ => candidate,
    };
    *last = Some(at);
    at
}
