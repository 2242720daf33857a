//! Static network topology: nodes, undirected links, per-link delays.

use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};

use fragdb_model::NodeId;
use fragdb_sim::SimDuration;

use crate::linkstate::LinkState;

/// Canonical (smaller, larger) ordering for an undirected link.
pub(crate) fn canon(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// The static link graph. Which links are *currently up* is tracked
/// separately in [`LinkState`] so one topology can be shared across
/// scenarios.
#[derive(Clone, Debug)]
pub struct Topology {
    n: u32,
    /// Undirected links with their one-way delay.
    links: BTreeMap<(NodeId, NodeId), SimDuration>,
    /// Adjacency lists indexed by dense node id, carrying the link delay
    /// so Dijkstra's inner loop never touches the `links` map — at half a
    /// million links a per-edge `BTreeMap` lookup dominated routing.
    adj: Vec<Vec<(NodeId, SimDuration)>>,
}

impl Topology {
    /// An edgeless topology of `n` nodes (ids `0..n`).
    pub fn new(n: u32) -> Self {
        assert!(n > 0, "a network needs at least one node");
        Topology {
            n,
            links: BTreeMap::new(),
            adj: vec![Vec::new(); n as usize],
        }
    }

    /// Complete graph with uniform link delay.
    pub fn full_mesh(n: u32, delay: SimDuration) -> Self {
        let mut t = Topology::new(n);
        for a in 0..n {
            for b in (a + 1)..n {
                t.add_link(NodeId(a), NodeId(b), delay);
            }
        }
        t
    }

    /// Complete graph with per-link delays jittered uniformly in
    /// `base ± jitter`, drawn from a dedicated seeded stream so the layout
    /// depends only on `(n, base, jitter, seed)` — two same-seed builds
    /// are identical, and `jitter` zero degenerates to
    /// [`Topology::full_mesh`]. The spread keeps commit propagation lags
    /// from collapsing onto a single value (degenerate percentiles).
    pub fn jittered_mesh(n: u32, base: SimDuration, jitter: SimDuration, seed: u64) -> Self {
        let mut rng = fragdb_sim::SimRng::new(seed);
        let mut t = Topology::new(n);
        let base_us = base.micros();
        let jitter_us = jitter.micros();
        for a in 0..n {
            for b in (a + 1)..n {
                // Uniform in [base − jitter, base + jitter], floored at 1µs
                // so no link is instantaneous.
                let offset = if jitter_us == 0 {
                    0
                } else {
                    rng.gen_range(0..=2 * jitter_us)
                };
                let delay_us = (base_us + offset).saturating_sub(jitter_us).max(1);
                t.add_link(NodeId(a), NodeId(b), SimDuration::from_micros(delay_us));
            }
        }
        t
    }

    /// Ring topology with uniform link delay.
    pub fn ring(n: u32, delay: SimDuration) -> Self {
        let mut t = Topology::new(n);
        if n > 1 {
            for a in 0..n {
                t.add_link(NodeId(a), NodeId((a + 1) % n), delay);
            }
        }
        t
    }

    /// Star centered on node 0 with uniform link delay.
    pub fn star(n: u32, delay: SimDuration) -> Self {
        let mut t = Topology::new(n);
        for b in 1..n {
            t.add_link(NodeId(0), NodeId(b), delay);
        }
        t
    }

    /// Line (path) topology 0–1–…–(n-1) with uniform link delay.
    pub fn line(n: u32, delay: SimDuration) -> Self {
        let mut t = Topology::new(n);
        for a in 1..n {
            t.add_link(NodeId(a - 1), NodeId(a), delay);
        }
        t
    }

    /// Add (or replace) an undirected link.
    ///
    /// # Panics
    /// Panics on self-links or out-of-range node ids.
    pub fn add_link(&mut self, a: NodeId, b: NodeId, delay: SimDuration) {
        assert!(a != b, "self-links are meaningless");
        assert!(a.0 < self.n && b.0 < self.n, "node id out of range");
        let key = canon(a, b);
        if self.links.insert(key, delay).is_none() {
            self.adj[a.0 as usize].push((b, delay));
            self.adj[b.0 as usize].push((a, delay));
        } else {
            // Replacement: refresh the delay carried on both adjacency rows.
            for (v, d) in &mut self.adj[a.0 as usize] {
                if *v == b {
                    *d = delay;
                }
            }
            for (v, d) in &mut self.adj[b.0 as usize] {
                if *v == a {
                    *d = delay;
                }
            }
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> u32 {
        self.n
    }

    /// All node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.n).map(NodeId)
    }

    /// All links as `((a, b), delay)` with `a < b`.
    pub fn links(&self) -> impl Iterator<Item = ((NodeId, NodeId), SimDuration)> + '_ {
        self.links.iter().map(|(&k, &d)| (k, d))
    }

    /// Does a (static) link exist between `a` and `b`?
    pub fn has_link(&self, a: NodeId, b: NodeId) -> bool {
        self.links.contains_key(&canon(a, b))
    }

    /// Delay of the direct link `a`–`b`, if one exists.
    pub fn link_delay(&self, a: NodeId, b: NodeId) -> Option<SimDuration> {
        self.links.get(&canon(a, b)).copied()
    }

    /// Neighbors of `node` over *static* links, with their link delays.
    pub fn neighbors(&self, node: NodeId) -> &[(NodeId, SimDuration)] {
        self.adj
            .get(node.0 as usize)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Shortest-path delay from `from` to `to` over links that are up,
    /// or `None` if they are disconnected. Dijkstra over link delays,
    /// with dense-id distance arrays so the inner loop is map-free.
    pub fn path_delay(&self, from: NodeId, to: NodeId, state: &LinkState) -> Option<SimDuration> {
        if from == to {
            return Some(SimDuration::ZERO);
        }
        let mut dist = vec![u64::MAX; self.n as usize];
        let mut heap: BinaryHeap<std::cmp::Reverse<(u64, NodeId)>> = BinaryHeap::new();
        dist[from.0 as usize] = 0;
        heap.push(std::cmp::Reverse((0, from)));
        while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
            if u == to {
                return Some(SimDuration(d));
            }
            if d > dist[u.0 as usize] {
                continue;
            }
            for &(v, w) in self.neighbors(u) {
                if state.is_down(u, v) {
                    continue;
                }
                let nd = d + w.micros();
                if nd < dist[v.0 as usize] {
                    dist[v.0 as usize] = nd;
                    heap.push(std::cmp::Reverse((nd, v)));
                }
            }
        }
        None
    }

    /// Shortest-path delays from `from` to *every* node reachable over up
    /// links, as one full Dijkstra sweep.
    ///
    /// One sweep costs the same as the single worst `path_delay` query
    /// from `from`, so a source that fans out to many destinations (a
    /// broadcast home on a large mesh) answers all of them for the price
    /// of one instead of re-running Dijkstra per destination.
    pub fn delays_from(&self, from: NodeId, state: &LinkState) -> BTreeMap<NodeId, SimDuration> {
        let mut dist = vec![u64::MAX; self.n as usize];
        let mut heap: BinaryHeap<std::cmp::Reverse<(u64, NodeId)>> = BinaryHeap::new();
        dist[from.0 as usize] = 0;
        heap.push(std::cmp::Reverse((0, from)));
        while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
            if d > dist[u.0 as usize] {
                continue;
            }
            for &(v, w) in self.neighbors(u) {
                if state.is_down(u, v) {
                    continue;
                }
                let nd = d + w.micros();
                if nd < dist[v.0 as usize] {
                    dist[v.0 as usize] = nd;
                    heap.push(std::cmp::Reverse((nd, v)));
                }
            }
        }
        dist.iter()
            .enumerate()
            .filter(|(_, &d)| d != u64::MAX)
            .map(|(i, &d)| (NodeId(i as u32), SimDuration(d)))
            .collect()
    }

    /// Are `a` and `b` in the same connected component over up links?
    pub fn connected(&self, a: NodeId, b: NodeId, state: &LinkState) -> bool {
        self.path_delay(a, b, state).is_some()
    }

    /// Nodes reachable from `start` over up links (including `start`).
    pub fn component_of(&self, start: NodeId, state: &LinkState) -> BTreeSet<NodeId> {
        let mut seen = BTreeSet::new();
        let mut queue = VecDeque::new();
        seen.insert(start);
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for &(v, _) in self.neighbors(u) {
                if !state.is_down(u, v) && seen.insert(v) {
                    queue.push_back(v);
                }
            }
        }
        seen
    }

    /// All connected components (the current "partition groups"), each a
    /// sorted node set, ordered by smallest member.
    pub fn components(&self, state: &LinkState) -> Vec<BTreeSet<NodeId>> {
        let mut out = Vec::new();
        let mut assigned = BTreeSet::new();
        for id in 0..self.n {
            let node = NodeId(id);
            if assigned.contains(&node) {
                continue;
            }
            let comp = self.component_of(node, state);
            assigned.extend(comp.iter().copied());
            out.push(comp);
        }
        out
    }
}

/// Memoized [`Topology::path_delay`] lookups for one link-state epoch.
///
/// A full-mesh simulation asks for the same `(from, to)` delay once per
/// packet; running Dijkstra each time is the dominant cost at 64 nodes
/// (the superlinear 64-node row of the PR 3 bench report). The cache answers repeats in O(log n)
/// and must be [`invalidate`]d whenever the live [`LinkState`] changes —
/// inside the crate the `Wire` that [`ReliableNet`] and [`Transport`] hold
/// owns all three and does so on every change.
///
/// [`invalidate`]: RouteCache::invalidate
/// [`ReliableNet`]: crate::reliable::ReliableNet
/// [`Transport`]: crate::transport::Transport
#[derive(Clone, Debug, Default)]
pub struct RouteCache {
    cache: BTreeMap<(NodeId, NodeId), Option<SimDuration>>,
    /// Cache misses per source since the last invalidation; past
    /// [`ROW_PROMOTE_MISSES`] the source's whole row is filled at once.
    misses: BTreeMap<NodeId, u32>,
    /// Sources whose full row is cached: absent pairs mean unreachable.
    full_rows: BTreeSet<NodeId>,
}

/// Base miss count before a source's whole Dijkstra row is cached.
///
/// A broadcast home on an `n`-node mesh would otherwise pay `n` separate
/// Dijkstras (each scanning a large frontier before the early exit) —
/// cubic in `n` overall, which is what made 1k-node meshes intractable.
/// One full sweep after enough misses makes it quadratic. The effective
/// threshold grows with `n` (see [`RouteCache::path_delay`]) so sources
/// that only talk to a handful of peers — ack paths back to a few
/// fragment homes — never pay for a row they would not use.
const ROW_PROMOTE_MISSES: u32 = 2;

impl RouteCache {
    /// An empty cache.
    pub fn new() -> Self {
        RouteCache::default()
    }

    /// Drop every memoized route. Call on any link-state change.
    pub fn invalidate(&mut self) {
        self.cache.clear();
        self.misses.clear();
        self.full_rows.clear();
    }

    /// Cached [`Topology::path_delay`]: Dijkstra on first use per pair,
    /// map lookup afterwards. Unreachability (`None`) is cached too.
    /// A source that keeps missing gets its entire row computed in one
    /// sweep ([`Topology::delays_from`]).
    pub fn path_delay(
        &mut self,
        topo: &Topology,
        state: &LinkState,
        from: NodeId,
        to: NodeId,
    ) -> Option<SimDuration> {
        if let Some(&d) = self.cache.get(&(from, to)) {
            return d;
        }
        if self.full_rows.contains(&from) {
            // Row is complete; a missing pair means `to` is unreachable.
            self.cache.insert((from, to), None);
            return None;
        }
        let missed = self.misses.entry(from).or_insert(0);
        *missed += 1;
        // Promote only once the misses amortize the sweep: a row costs
        // about n/32 single lookups, so fan-out below that stays per-pair.
        let threshold = ROW_PROMOTE_MISSES.max(topo.node_count() / 32);
        if *missed > threshold {
            for (node, d) in topo.delays_from(from, state) {
                self.cache.insert((from, node), Some(d));
            }
            self.full_rows.insert(from);
            let d = self.cache.get(&(from, to)).copied().flatten();
            self.cache.insert((from, to), d);
            return d;
        }
        let d = topo.path_delay(from, to, state);
        self.cache.insert((from, to), d);
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> SimDuration {
        SimDuration::from_millis(x)
    }

    #[test]
    fn route_cache_matches_dijkstra_and_invalidates() {
        let t = Topology::line(3, ms(10));
        let mut state = LinkState::all_up();
        let mut cache = RouteCache::new();
        assert_eq!(
            cache.path_delay(&t, &state, NodeId(0), NodeId(2)),
            Some(ms(20))
        );
        // Second lookup is served from the cache (same answer).
        assert_eq!(
            cache.path_delay(&t, &state, NodeId(0), NodeId(2)),
            Some(ms(20))
        );
        state.fail(NodeId(1), NodeId(2));
        cache.invalidate();
        assert_eq!(cache.path_delay(&t, &state, NodeId(0), NodeId(2)), None);
        // Unreachability is cached as well.
        assert_eq!(cache.path_delay(&t, &state, NodeId(0), NodeId(2)), None);
    }

    #[test]
    fn delays_from_matches_per_pair_dijkstra() {
        let t = Topology::line(5, ms(10));
        let mut state = LinkState::all_up();
        state.fail(NodeId(3), NodeId(4));
        let row = t.delays_from(NodeId(0), &state);
        for to in t.nodes() {
            assert_eq!(
                row.get(&to).copied(),
                t.path_delay(NodeId(0), to, &state),
                "row answer must equal Dijkstra for 0->{to:?}"
            );
        }
        assert!(!row.contains_key(&NodeId(4)), "cut node must be absent");
    }

    #[test]
    fn route_cache_row_promotion_answers_every_destination() {
        let t = Topology::full_mesh(8, ms(10));
        let mut state = LinkState::all_up();
        let mut cache = RouteCache::new();
        // A fanning-out source promotes to a full row after a few misses
        // and still answers exactly what per-pair Dijkstra would.
        for to in 1..8 {
            assert_eq!(
                cache.path_delay(&t, &state, NodeId(0), NodeId(to)),
                Some(ms(10))
            );
        }
        // Promotion must also cache unreachability correctly.
        for to in 1..8 {
            state.fail(NodeId(0), NodeId(to));
        }
        cache.invalidate();
        for to in 1..8 {
            assert_eq!(cache.path_delay(&t, &state, NodeId(0), NodeId(to)), None);
        }
    }

    #[test]
    fn full_mesh_link_count() {
        let t = Topology::full_mesh(5, ms(10));
        assert_eq!(t.links().count(), 10);
        assert_eq!(t.node_count(), 5);
        assert!(t.has_link(NodeId(0), NodeId(4)));
        assert!(t.has_link(NodeId(4), NodeId(0)), "links are undirected");
    }

    #[test]
    fn jittered_mesh_spreads_delays_deterministically() {
        let t1 = Topology::jittered_mesh(8, ms(10), ms(1), 42);
        let t2 = Topology::jittered_mesh(8, ms(10), ms(1), 42);
        assert_eq!(t1.links().count(), 28);
        let d1: Vec<SimDuration> = t1.links().map(|(_, d)| d).collect();
        let d2: Vec<SimDuration> = t2.links().map(|(_, d)| d).collect();
        assert_eq!(d1, d2, "same seed, same layout");
        // Delays stay inside base ± jitter and actually spread.
        for d in &d1 {
            assert!(d.micros() >= 9_000 && d.micros() <= 11_000, "{d:?}");
        }
        let distinct: std::collections::BTreeSet<u64> = d1.iter().map(|d| d.micros()).collect();
        assert!(distinct.len() > 1, "jitter must vary the links");
        // A different seed yields a different layout; zero jitter
        // degenerates to the uniform mesh.
        let t3 = Topology::jittered_mesh(8, ms(10), ms(1), 43);
        let d3: Vec<SimDuration> = t3.links().map(|(_, d)| d).collect();
        assert_ne!(d1, d3);
        let flat = Topology::jittered_mesh(4, ms(10), SimDuration::ZERO, 42);
        assert!(flat.links().all(|(_, d)| d == ms(10)));
    }

    #[test]
    fn ring_and_line_shapes() {
        let ring = Topology::ring(4, ms(1));
        assert_eq!(ring.links().count(), 4);
        let line = Topology::line(4, ms(1));
        assert_eq!(line.links().count(), 3);
        assert!(!line.has_link(NodeId(0), NodeId(3)));
        let star = Topology::star(4, ms(1));
        assert_eq!(star.links().count(), 3);
        assert_eq!(star.neighbors(NodeId(0)).len(), 3);
    }

    #[test]
    fn single_node_topologies_have_no_links() {
        assert_eq!(Topology::ring(1, ms(1)).links().count(), 0);
        assert_eq!(Topology::full_mesh(1, ms(1)).links().count(), 0);
    }

    #[test]
    #[should_panic(expected = "self-links")]
    fn self_link_panics() {
        Topology::new(2).add_link(NodeId(1), NodeId(1), ms(1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_link_panics() {
        Topology::new(2).add_link(NodeId(0), NodeId(5), ms(1));
    }

    #[test]
    fn duplicate_link_updates_delay_without_duplicating_adjacency() {
        let mut t = Topology::new(2);
        t.add_link(NodeId(0), NodeId(1), ms(10));
        t.add_link(NodeId(1), NodeId(0), ms(20));
        assert_eq!(t.links().count(), 1);
        assert_eq!(t.link_delay(NodeId(0), NodeId(1)), Some(ms(20)));
        assert_eq!(t.neighbors(NodeId(0)), &[(NodeId(1), ms(20))]);
    }

    #[test]
    fn path_delay_direct_and_multihop() {
        let t = Topology::line(3, ms(10));
        let up = LinkState::all_up();
        assert_eq!(t.path_delay(NodeId(0), NodeId(1), &up), Some(ms(10)));
        assert_eq!(t.path_delay(NodeId(0), NodeId(2), &up), Some(ms(20)));
        assert_eq!(
            t.path_delay(NodeId(1), NodeId(1), &up),
            Some(SimDuration::ZERO)
        );
    }

    #[test]
    fn path_delay_prefers_shortest() {
        // Triangle with one slow edge: 0-2 direct is 50ms; 0-1-2 is 20ms.
        let mut t = Topology::new(3);
        t.add_link(NodeId(0), NodeId(1), ms(10));
        t.add_link(NodeId(1), NodeId(2), ms(10));
        t.add_link(NodeId(0), NodeId(2), ms(50));
        let up = LinkState::all_up();
        assert_eq!(t.path_delay(NodeId(0), NodeId(2), &up), Some(ms(20)));
    }

    #[test]
    fn severed_link_forces_detour_or_disconnect() {
        let mut t = Topology::new(3);
        t.add_link(NodeId(0), NodeId(1), ms(10));
        t.add_link(NodeId(1), NodeId(2), ms(10));
        t.add_link(NodeId(0), NodeId(2), ms(50));
        let mut state = LinkState::all_up();
        state.fail(NodeId(0), NodeId(1));
        assert_eq!(t.path_delay(NodeId(0), NodeId(1), &state), Some(ms(60)));
        state.fail(NodeId(0), NodeId(2));
        assert_eq!(t.path_delay(NodeId(0), NodeId(1), &state), None);
        assert!(!t.connected(NodeId(0), NodeId(1), &state));
    }

    #[test]
    fn components_reflect_partitions() {
        let t = Topology::line(4, ms(1));
        let mut state = LinkState::all_up();
        assert_eq!(t.components(&state).len(), 1);
        state.fail(NodeId(1), NodeId(2));
        let comps = t.components(&state);
        assert_eq!(comps.len(), 2);
        assert!(comps[0].contains(&NodeId(0)) && comps[0].contains(&NodeId(1)));
        assert!(comps[1].contains(&NodeId(2)) && comps[1].contains(&NodeId(3)));
    }

    #[test]
    fn component_of_includes_start() {
        let t = Topology::new(3); // no links at all
        let state = LinkState::all_up();
        let comp = t.component_of(NodeId(1), &state);
        assert_eq!(comp.into_iter().collect::<Vec<_>>(), vec![NodeId(1)]);
        assert_eq!(t.components(&state).len(), 3);
    }
}
