//! A small directed-graph engine with cycle detection.
//!
//! All the serialization-graph checkers reduce to "build edges, ask for a
//! cycle". [`DiGraph`] keeps adjacency in ordered maps so traversal order —
//! and therefore the *witness cycle* reported — is deterministic.

use std::collections::{BTreeMap, BTreeSet};

/// Directed graph over copyable, ordered node ids.
#[derive(Clone, Debug)]
pub struct DiGraph<N: Ord + Copy> {
    nodes: BTreeSet<N>,
    adj: BTreeMap<N, BTreeSet<N>>,
}

// Written out: the derived impl would require `N: Default`.
impl<N: Ord + Copy> Default for DiGraph<N> {
    fn default() -> Self {
        DiGraph::new()
    }
}

impl<N: Ord + Copy> DiGraph<N> {
    /// Empty graph.
    pub fn new() -> Self {
        DiGraph {
            nodes: BTreeSet::new(),
            adj: BTreeMap::new(),
        }
    }

    /// Insert a node (idempotent).
    pub fn add_node(&mut self, n: N) {
        self.nodes.insert(n);
    }

    /// Insert a directed edge, adding endpoints as needed. Self-loops are
    /// recorded and count as cycles.
    pub fn add_edge(&mut self, from: N, to: N) {
        self.nodes.insert(from);
        self.nodes.insert(to);
        self.adj.entry(from).or_default().insert(to);
    }

    /// Does the edge exist?
    pub fn has_edge(&self, from: N, to: N) -> bool {
        self.adj.get(&from).is_some_and(|s| s.contains(&to))
    }

    /// All nodes, sorted.
    pub fn nodes(&self) -> impl Iterator<Item = N> + '_ {
        self.nodes.iter().copied()
    }

    /// All edges, sorted by `(from, to)`.
    pub fn edges(&self) -> impl Iterator<Item = (N, N)> + '_ {
        self.adj
            .iter()
            .flat_map(|(&f, tos)| tos.iter().map(move |&t| (f, t)))
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.adj.values().map(BTreeSet::len).sum()
    }

    /// Find a directed cycle, if any, returned as the node sequence
    /// `[v0, v1, …, vk]` with edges `v0→v1→…→vk→v0`.
    ///
    /// Iterative three-color DFS (no recursion, safe for histories with
    /// tens of thousands of transactions).
    pub fn find_cycle(&self) -> Option<Vec<N>> {
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Gray,
            Black,
        }
        let mut color: BTreeMap<N, Color> = self.nodes.iter().map(|&n| (n, Color::White)).collect();
        let mut parent: BTreeMap<N, N> = BTreeMap::new();

        for &root in &self.nodes {
            if color[&root] != Color::White {
                continue;
            }
            // Stack of (node, iterator position into its sorted successors).
            let mut stack: Vec<(N, Vec<N>)> = Vec::new();
            color.insert(root, Color::Gray);
            let succs = |n: N| -> Vec<N> {
                self.adj
                    .get(&n)
                    .map(|s| s.iter().copied().collect())
                    .unwrap_or_default()
            };
            stack.push((root, succs(root)));
            while let Some((u, rest)) = stack.last_mut() {
                if let Some(v) = rest.pop() {
                    let u = *u;
                    match color[&v] {
                        Color::White => {
                            parent.insert(v, u);
                            color.insert(v, Color::Gray);
                            stack.push((v, succs(v)));
                        }
                        Color::Gray => {
                            // Found a back edge u → v: walk parents from u to v.
                            let mut cycle = vec![u];
                            let mut cur = u;
                            while cur != v {
                                cur = parent[&cur];
                                cycle.push(cur);
                            }
                            cycle.reverse(); // v … u, edges v→…→u→v
                            return Some(cycle);
                        }
                        Color::Black => {}
                    }
                } else {
                    color.insert(*u, Color::Black);
                    stack.pop();
                }
            }
        }
        None
    }

    /// True when no directed cycle exists.
    pub fn is_acyclic(&self) -> bool {
        self.find_cycle().is_none()
    }

    /// A topological order, or `None` when cyclic. The order is the
    /// lexicographically-least one (Kahn's algorithm over ordered sets), so
    /// it is deterministic — the equivalent serial schedule the checkers
    /// report is stable across runs.
    pub fn topo_order(&self) -> Option<Vec<N>> {
        let mut indegree: BTreeMap<N, usize> = self.nodes.iter().map(|&n| (n, 0)).collect();
        for (_, to) in self.edges() {
            *indegree.get_mut(&to).expect("edge endpoint is a node") += 1;
        }
        let mut ready: BTreeSet<N> = indegree
            .iter()
            .filter(|(_, &d)| d == 0)
            .map(|(&n, _)| n)
            .collect();
        let mut out = Vec::with_capacity(self.nodes.len());
        while let Some(&n) = ready.iter().next() {
            ready.remove(&n);
            out.push(n);
            if let Some(succs) = self.adj.get(&n) {
                for &v in succs {
                    let d = indegree.get_mut(&v).expect("node exists");
                    *d -= 1;
                    if *d == 0 {
                        ready.insert(v);
                    }
                }
            }
        }
        (out.len() == self.nodes.len()).then_some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle_edges_hold(g: &DiGraph<u32>, cycle: &[u32]) {
        assert!(!cycle.is_empty());
        for i in 0..cycle.len() {
            let from = cycle[i];
            let to = cycle[(i + 1) % cycle.len()];
            assert!(g.has_edge(from, to), "missing edge {from}->{to} in witness");
        }
    }

    #[test]
    fn empty_graph_is_acyclic() {
        let g: DiGraph<u32> = DiGraph::new();
        assert!(g.is_acyclic());
        assert_eq!(g.topo_order(), Some(vec![]));
    }

    #[test]
    fn dag_has_topo_order() {
        let mut g = DiGraph::new();
        g.add_edge(1u32, 2);
        g.add_edge(1, 3);
        g.add_edge(2, 4);
        g.add_edge(3, 4);
        assert!(g.is_acyclic());
        let order = g.topo_order().unwrap();
        assert_eq!(order.len(), 4);
        let pos = |x: u32| order.iter().position(|&n| n == x).unwrap();
        for (f, t) in g.edges() {
            assert!(pos(f) < pos(t));
        }
    }

    #[test]
    fn two_cycle_detected_with_witness() {
        let mut g = DiGraph::new();
        g.add_edge(1u32, 2);
        g.add_edge(2, 1);
        let cycle = g.find_cycle().unwrap();
        assert_eq!(cycle.len(), 2);
        cycle_edges_hold(&g, &cycle);
        assert!(g.topo_order().is_none());
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let mut g = DiGraph::new();
        g.add_edge(5u32, 5);
        let cycle = g.find_cycle().unwrap();
        assert_eq!(cycle, vec![5]);
    }

    #[test]
    fn long_cycle_witness_is_exact() {
        let mut g = DiGraph::new();
        for i in 0..10u32 {
            g.add_edge(i, (i + 1) % 10);
        }
        // Add some acyclic decoration.
        g.add_edge(20, 0);
        g.add_edge(3, 21);
        let cycle = g.find_cycle().unwrap();
        assert_eq!(cycle.len(), 10);
        cycle_edges_hold(&g, &cycle);
    }

    #[test]
    fn cycle_in_second_component_found() {
        let mut g = DiGraph::new();
        g.add_edge(1u32, 2); // acyclic component
        g.add_edge(10, 11);
        g.add_edge(11, 12);
        g.add_edge(12, 10); // cyclic component
        let cycle = g.find_cycle().unwrap();
        cycle_edges_hold(&g, &cycle);
        assert_eq!(cycle.len(), 3);
    }

    #[test]
    fn isolated_nodes_appear_in_topo_order() {
        let mut g = DiGraph::new();
        g.add_node(7u32);
        g.add_edge(1, 2);
        let order = g.topo_order().unwrap();
        assert!(order.contains(&7));
        assert_eq!(order.len(), 3);
    }

    #[test]
    fn duplicate_edges_are_idempotent() {
        let mut g = DiGraph::new();
        g.add_edge(1u32, 2);
        g.add_edge(1, 2);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.node_count(), 2);
    }

    #[test]
    fn topo_order_is_lexicographically_least() {
        let mut g = DiGraph::new();
        g.add_edge(3u32, 1);
        g.add_node(2);
        g.add_node(0);
        assert_eq!(g.topo_order().unwrap(), vec![0, 2, 3, 1]);
    }

    #[test]
    fn large_path_graph_no_stack_overflow() {
        let mut g = DiGraph::new();
        for i in 0..100_000u32 {
            g.add_edge(i, i + 1);
        }
        assert!(g.is_acyclic());
        g.add_edge(100_000, 0);
        assert!(!g.is_acyclic());
    }
}
