//! What [`ReliableNet`] stands on: the static link graph, the live link
//! state, and the route cache that is valid for exactly one link state.
//! [`Wire::apply_change`] is the only way to change the state, so every
//! change invalidates the cache.
//!
//! [`ReliableNet`]: crate::reliable::ReliableNet

use fragdb_model::NodeId;
use fragdb_sim::{SimDuration, SimTime};

use crate::linkstate::LinkState;
use crate::partition::NetworkChange;
use crate::topology::{RouteCache, Topology};

/// Topology + live link state + memoized shortest-path delays.
#[derive(Debug)]
pub(crate) struct Wire {
    topo: Topology,
    state: LinkState,
    routes: RouteCache,
}

impl Wire {
    /// All links up, nothing cached.
    pub(crate) fn new(topo: Topology) -> Self {
        Wire {
            topo,
            state: LinkState::all_up(),
            routes: RouteCache::new(),
        }
    }

    pub(crate) fn connected(&self, a: NodeId, b: NodeId) -> bool {
        self.topo.connected(a, b, &self.state)
    }

    /// Apply a link-state change; the memoized routes die with the old state.
    pub(crate) fn apply_change(&mut self, change: &NetworkChange) {
        change.apply(&mut self.state);
        self.routes.invalidate();
    }

    /// Shortest-path delay under the current link state, `None` when
    /// `from` cannot reach `to`.
    pub(crate) fn path_delay(&mut self, from: NodeId, to: NodeId) -> Option<SimDuration> {
        self.routes.path_delay(&self.topo, &self.state, from, to)
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_change_invalidates_cached_routes() {
        let (a, b) = (NodeId(0), NodeId(1));
        let mut w = Wire::new(Topology::full_mesh(2, SimDuration::from_millis(10)));
        assert_eq!(w.path_delay(a, b), Some(SimDuration::from_millis(10)));
        w.apply_change(&NetworkChange::LinkDown(a, b));
        assert_eq!(w.path_delay(a, b), None, "stale route survived the cut");
        assert!(!w.connected(a, b));
        w.apply_change(&NetworkChange::HealAll);
        assert_eq!(w.path_delay(a, b), Some(SimDuration::from_millis(10)));
    }
}
