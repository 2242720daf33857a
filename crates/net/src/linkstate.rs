//! Dynamic link state: which links are currently severed.
//!
//! A [`LinkState`] is a set of *down* links over some topology. Higher
//! layers mutate it through [`crate::partition::NetworkChange`] events; the
//! topology consults it for routing.

use std::collections::BTreeSet;

use fragdb_model::NodeId;

/// Canonical (smaller, larger) ordering for an undirected link.
fn canon(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    (a.min(b), a.max(b))
}

/// The set of currently-severed links (empty = everything up).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LinkState {
    down: BTreeSet<(NodeId, NodeId)>,
}

impl LinkState {
    /// All links operational.
    pub fn all_up() -> Self {
        LinkState::default()
    }

    /// Is the (undirected) link `a`–`b` down?
    pub fn is_down(&self, a: NodeId, b: NodeId) -> bool {
        self.down.contains(&canon(a, b))
    }

    /// Sever link `a`–`b`. Idempotent. Returns `true` if the state changed.
    pub fn fail(&mut self, a: NodeId, b: NodeId) -> bool {
        self.down.insert(canon(a, b))
    }

    /// Restore link `a`–`b`. Idempotent. Returns `true` if the state changed.
    pub fn heal(&mut self, a: NodeId, b: NodeId) -> bool {
        self.down.remove(&canon(a, b))
    }

    /// Restore every link.
    pub fn heal_all(&mut self) {
        self.down.clear();
    }

    /// Sever every link whose endpoints fall in different groups. Links
    /// inside a group, and links touching nodes not mentioned in any group,
    /// are left as they are.
    pub fn split(&mut self, groups: &[Vec<NodeId>]) {
        for (i, ga) in groups.iter().enumerate() {
            for gb in groups.iter().skip(i + 1) {
                for &a in ga {
                    for &b in gb {
                        self.fail(a, b);
                    }
                }
            }
        }
    }

    /// Number of down links.
    pub fn down_count(&self) -> usize {
        self.down.len()
    }

    /// Iterate over down links.
    pub fn down_links(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.down.iter().copied()
    }

    /// True if no link is down.
    pub fn is_fully_up(&self) -> bool {
        self.down.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn fail_and_heal_are_symmetric_and_idempotent() {
        let mut s = LinkState::all_up();
        assert!(s.fail(n(2), n(1)));
        assert!(!s.fail(n(1), n(2)), "second fail is a no-op");
        assert!(s.is_down(n(1), n(2)));
        assert!(s.is_down(n(2), n(1)));
        assert!(s.heal(n(1), n(2)));
        assert!(!s.heal(n(2), n(1)));
        assert!(s.is_fully_up());
    }

    #[test]
    fn split_cuts_only_cross_group_links() {
        let mut s = LinkState::all_up();
        s.split(&[vec![n(0), n(1)], vec![n(2), n(3)]]);
        assert!(s.is_down(n(0), n(2)));
        assert!(s.is_down(n(0), n(3)));
        assert!(s.is_down(n(1), n(2)));
        assert!(s.is_down(n(1), n(3)));
        assert!(!s.is_down(n(0), n(1)));
        assert!(!s.is_down(n(2), n(3)));
        assert_eq!(s.down_count(), 4);
    }

    #[test]
    fn three_way_split() {
        let mut s = LinkState::all_up();
        s.split(&[vec![n(0)], vec![n(1)], vec![n(2)]]);
        assert_eq!(s.down_count(), 3);
        for (a, b) in [(0, 1), (0, 2), (1, 2)] {
            assert!(s.is_down(n(a), n(b)));
        }
    }

    #[test]
    fn heal_all_restores_everything() {
        let mut s = LinkState::all_up();
        s.split(&[vec![n(0)], vec![n(1), n(2)]]);
        assert!(!s.is_fully_up());
        s.heal_all();
        assert!(s.is_fully_up());
        assert_eq!(s.down_links().count(), 0);
    }

    #[test]
    fn split_leaves_unmentioned_nodes_alone() {
        let mut s = LinkState::all_up();
        s.split(&[vec![n(0)], vec![n(1)]]);
        assert!(!s.is_down(n(0), n(5)));
        assert!(!s.is_down(n(1), n(5)));
    }
}
