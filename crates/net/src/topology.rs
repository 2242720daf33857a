//! Static network topology: nodes, undirected links, per-link delays.
//!
//! [`Topology`] answers shortest-path delays over the links a
//! [`LinkState`] leaves up; [`RouteCache`] memoizes those answers per
//! ordered pair for one link state. The cache is a hashed [`IdMap`] that is
//! only probed by pair and cleared, never iterated, so a per-packet route
//! lookup is one hash probe and its order reaches no output.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};

use fragdb_model::NodeId;
use fragdb_sim::{IdMap, SimDuration};

use crate::linkstate::LinkState;

/// The static link graph. Which links are *currently up* is tracked
/// separately in [`LinkState`] so one topology can be shared across
/// scenarios.
#[derive(Clone, Debug)]
pub struct Topology {
    n: u32,
    /// The graph: per dense node id, its neighbours and the one-way delay
    /// of the link to each. An undirected link sits on both endpoints' rows.
    adj: Vec<Vec<(NodeId, SimDuration)>>,
    /// The smallest delay ever given to a link. Replacing a link by a
    /// slower one does not raise it: [`Topology::path_delay`] uses it only
    /// as a lower bound on what one more hop costs, where being too low
    /// costs a few more pops and never a wrong answer.
    min_delay: SimDuration,
}

impl Topology {
    /// An edgeless topology of `n` nodes (ids `0..n`).
    pub fn new(n: u32) -> Self {
        assert!(n > 0, "a network needs at least one node");
        Topology {
            n,
            adj: vec![Vec::new(); n as usize],
            min_delay: SimDuration(u64::MAX),
        }
    }

    /// Complete graph, each pair's delay drawn from `delay` in `(a, b)`
    /// order. Every pair is visited once, so the links are pushed without
    /// [`Topology::add_link`]'s scan of the row.
    fn mesh(n: u32, mut delay: impl FnMut() -> SimDuration) -> Self {
        let mut t = Topology::new(n);
        for a in 0..n {
            for b in (a + 1)..n {
                let d = delay();
                t.adj[a as usize].push((NodeId(b), d));
                t.adj[b as usize].push((NodeId(a), d));
                t.min_delay = t.min_delay.min(d);
            }
        }
        t
    }

    /// Complete graph with uniform link delay.
    pub fn full_mesh(n: u32, delay: SimDuration) -> Self {
        Topology::mesh(n, || delay)
    }

    /// Complete graph with per-link delays jittered uniformly in
    /// `base ± jitter`, drawn from a dedicated seeded stream so the layout
    /// depends only on `(n, base, jitter, seed)` — two same-seed builds
    /// are identical, and `jitter` zero degenerates to
    /// [`Topology::full_mesh`]. The spread keeps commit propagation lags
    /// from collapsing onto a single value (degenerate percentiles).
    pub fn jittered_mesh(n: u32, base: SimDuration, jitter: SimDuration, seed: u64) -> Self {
        let mut rng = fragdb_sim::SimRng::new(seed);
        let (base_us, jitter_us) = (base.micros(), jitter.micros());
        Topology::mesh(n, || {
            // Uniform in [base − jitter, base + jitter], floored at 1µs
            // so no link is instantaneous.
            let offset = rng.gen_range(0..=2 * jitter_us);
            SimDuration::from_micros((base_us + offset).saturating_sub(jitter_us).max(1))
        })
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
        for (u, v) in [(a, b), (b, a)] {
            let row = &mut self.adj[u.0 as usize];
            match row.iter_mut().find(|(w, _)| *w == v) {
                Some(link) => link.1 = delay,
                None => row.push((v, delay)),
            }
        }
        self.min_delay = self.min_delay.min(delay);
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
        self.nodes().flat_map(move |a| {
            let row = self.neighbors(a).iter();
            row.filter_map(move |&(b, d)| (a < b).then_some(((a, b), d)))
        })
    }

    /// Does a (static) link exist between `a` and `b`?
    pub fn has_link(&self, a: NodeId, b: NodeId) -> bool {
        self.link_delay(a, b).is_some()
    }

    /// Delay of the direct link `a`–`b`, if one exists.
    pub fn link_delay(&self, a: NodeId, b: NodeId) -> Option<SimDuration> {
        let mut row = self.neighbors(a).iter();
        row.find(|&&(v, _)| v == b).map(|&(_, d)| d)
    }

    /// Neighbors of `node` over *static* links, with their link delays.
    pub fn neighbors(&self, node: NodeId) -> &[(NodeId, SimDuration)] {
        self.adj.get(node.0 as usize).map_or(&[], Vec::as_slice)
    }

    /// Shortest-path delay from `from` to `to` over links that are up,
    /// or `None` if they are disconnected (or `to` is not a node).
    pub fn path_delay(&self, from: NodeId, to: NodeId, state: &LinkState) -> Option<SimDuration> {
        self.search(from, to, state).0
    }

    /// Dijkstra over link delays that stops as soon as the answer is final;
    /// also returns how many nodes it settled. An up direct link no slower
    /// than `2 × min_delay` is the answer without a search, and the scan of
    /// the source's row that finds it counts as settling the source: every
    /// other route has at least two hops, and a stale-low `min_delay` only
    /// makes the test fail safe. Otherwise, when a node is popped at `d`
    /// and `to` is tentatively at a finite `best`: a route whose last hop
    /// leaves a settled node is already in `best`, and any other reaches
    /// `to` from an unsettled node (distance `>= d`) over one more link
    /// (`>= min_delay`), so `d + min_delay >= best` makes `best` exact.
    /// Finite matters: on an edgeless graph `min_delay` is `u64::MAX`, the
    /// sum saturates, and an unreached `to` would pass the test. With
    /// zero-delay links this is Dijkstra's ordinary stop, at `to`'s own pop.
    fn search(&self, from: NodeId, to: NodeId, state: &LinkState) -> (Option<SimDuration>, usize) {
        if to.0 >= self.n {
            return (None, 0);
        }
        let two_hops = self.min_delay.micros().saturating_mul(2);
        let direct = self.link_delay(from, to).filter(|d| d.micros() <= two_hops);
        if direct.is_some() && !state.is_down(from, to) {
            return (direct, 1);
        }
        let mut settled = 0;
        let mut dist = vec![u64::MAX; self.n as usize];
        let mut heap: BinaryHeap<Reverse<(u64, NodeId)>> = BinaryHeap::new();
        dist[from.0 as usize] = 0;
        heap.push(Reverse((0, from)));
        while let Some(Reverse((d, u))) = heap.pop() {
            let best = dist[to.0 as usize];
            if best != u64::MAX && d.saturating_add(self.min_delay.micros()) >= best {
                return (Some(SimDuration(best)), settled);
            }
            if d > dist[u.0 as usize] {
                continue;
            }
            settled += 1;
            for &(v, w) in self.neighbors(u) {
                if state.is_down(u, v) {
                    continue;
                }
                let nd = d + w.micros();
                if nd < dist[v.0 as usize] {
                    dist[v.0 as usize] = nd;
                    heap.push(Reverse((nd, v)));
                }
            }
        }
        (None, settled)
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

/// Memoized [`Topology::path_delay`] answers, valid for exactly the
/// [`LinkState`] they were computed under: [`invalidate`] on every change.
/// ([`ReliableNet`] memoizes each route in its stream record instead, with
/// the link-state epoch.)
///
/// A simulation asks for the same `(from, to)` delay once per packet, so
/// repeats are one hash probe. One entry per pair asked and nothing per
/// source: a cold lookup on a mesh is a scan of the source's row for the
/// direct link, so there is no sweep to share between a source's
/// destinations, and a dense row per source would hold `n` slots for
/// ackers that use eight.
///
/// [`invalidate`]: RouteCache::invalidate
/// [`ReliableNet`]: crate::reliable::ReliableNet
#[derive(Clone, Debug, Default)]
pub struct RouteCache {
    cache: IdMap<(NodeId, NodeId), Option<SimDuration>>,
}

impl RouteCache {
    /// An empty cache.
    pub fn new() -> Self {
        RouteCache::default()
    }

    /// Drop every memoized route. Call on any link-state change.
    pub fn invalidate(&mut self) {
        self.cache.clear();
    }

    /// Cached [`Topology::path_delay`]: searched on first use per pair,
    /// map lookup afterwards. Unreachability (`None`) is cached too.
    pub fn path_delay(
        &mut self,
        topo: &Topology,
        state: &LinkState,
        from: NodeId,
        to: NodeId,
    ) -> Option<SimDuration> {
        let route = self.cache.entry((from, to));
        *route.or_insert_with(|| topo.path_delay(from, to, state))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fragdb_sim::SimRng;

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
    fn route_cache_answers_every_destination_of_a_fanning_out_source() {
        let t = Topology::full_mesh(8, ms(10));
        let mut state = LinkState::all_up();
        let mut cache = RouteCache::new();
        // A source that fans out to every peer still gets exactly what
        // per-pair Dijkstra would answer.
        for to in 1..8 {
            assert_eq!(
                cache.path_delay(&t, &state, NodeId(0), NodeId(to)),
                Some(ms(10))
            );
        }
        // Unreachability of every destination must be cached correctly too.
        for to in 1..8 {
            state.fail(NodeId(0), NodeId(to));
        }
        cache.invalidate();
        for to in 1..8 {
            assert_eq!(cache.path_delay(&t, &state, NodeId(0), NodeId(to)), None);
        }
    }

    /// The oracle: all-pairs shortest delays by Floyd–Warshall over the
    /// links that are up. Shares no code with [`Topology::search`].
    fn floyd_warshall(t: &Topology, state: &LinkState) -> Vec<Vec<Option<SimDuration>>> {
        let n = t.node_count() as usize;
        let mut d = vec![vec![None; n]; n];
        for (i, row) in d.iter_mut().enumerate() {
            row[i] = Some(0u64);
        }
        for ((a, b), w) in t.links().filter(|&((a, b), _)| !state.is_down(a, b)) {
            d[a.0 as usize][b.0 as usize] = Some(w.micros());
            d[b.0 as usize][a.0 as usize] = Some(w.micros());
        }
        for k in 0..n {
            for i in 0..n {
                for j in 0..n {
                    if let (Some(x), Some(y)) = (d[i][k], d[k][j]) {
                        if d[i][j].is_none_or(|z| x + y < z) {
                            d[i][j] = Some(x + y);
                        }
                    }
                }
            }
        }
        let row = |r: Vec<Option<u64>>| r.into_iter().map(|x| x.map(SimDuration)).collect();
        d.into_iter().map(row).collect()
    }

    /// A delay in 0..=1000 µs: wide enough that two short hops beat a long
    /// direct link, with zero-delay links about one time in eight.
    fn any_delay(rng: &mut SimRng) -> SimDuration {
        if rng.chance(0.125) {
            SimDuration::ZERO
        } else {
            SimDuration(rng.gen_range(1..=1000))
        }
    }

    /// Case `case`'s topology: six shapes in rotation, 1..=12 nodes.
    fn any_topology(case: u64, rng: &mut SimRng) -> Topology {
        let n: u32 = rng.gen_range(1..=12);
        let mut t = Topology::new(n);
        let pairs: Vec<(u32, u32)> = match case % 6 {
            0 => Vec::new(), // edgeless
            1 => (1..n).map(|a| (a - 1, a)).collect(),
            2 => (0..n).filter(|_| n > 1).map(|a| (a, (a + 1) % n)).collect(),
            3 => (1..n).map(|b| (0, b)).collect(),
            // A jittered mesh (delays 1..=999 µs) through the no-scan builder.
            4 => return Topology::jittered_mesh(n, SimDuration(500), SimDuration(499), case),
            _ => {
                let all = (0..n).flat_map(|a| ((a + 1)..n).map(move |b| (a, b)));
                let density = rng.unit();
                all.filter(|_| rng.chance(density)).collect()
            }
        };
        for (a, b) in pairs {
            t.add_link(NodeId(a), NodeId(b), any_delay(rng));
        }
        t
    }

    /// A link state over `t`: nothing down, a random down set, a full
    /// partition into two or three groups, one node isolated, or all down.
    fn any_state(t: &Topology, rng: &mut SimRng) -> LinkState {
        let mut state = LinkState::all_up();
        let nodes: Vec<NodeId> = t.nodes().collect();
        match rng.gen_range(0..5u32) {
            0 => {}
            1 => {
                let p = rng.unit();
                for ((a, b), _) in t.links() {
                    if rng.chance(p) {
                        state.fail(a, b);
                    }
                }
            }
            2 => {
                let groups: u32 = rng.gen_range(2..=3);
                let mut split = vec![Vec::new(); groups as usize];
                for &node in &nodes {
                    split[rng.gen_range(0..groups) as usize].push(node);
                }
                state.split(&split);
            }
            3 => {
                let lonely = *rng.pick(&nodes);
                for &(peer, _) in t.neighbors(lonely) {
                    state.fail(lonely, peer);
                }
            }
            _ => state.split(&nodes.iter().map(|&x| vec![x]).collect::<Vec<_>>()),
        }
        state
    }

    /// Every ordered pair (and one destination that is not a node):
    /// `path_delay` equals the oracle, and the cache answers the same on
    /// the first lookup and on the second.
    fn assert_matches_oracle(t: &Topology, state: &LinkState, cache: &mut RouteCache, what: &str) {
        let oracle = floyd_warshall(t, state);
        for a in t.nodes() {
            for b in t.nodes() {
                let want = oracle[a.0 as usize][b.0 as usize];
                assert_eq!(t.path_delay(a, b, state), want, "{what}: {a:?}->{b:?}");
                assert_eq!(cache.path_delay(t, state, a, b), want, "{what}: cold");
                assert_eq!(cache.path_delay(t, state, a, b), want, "{what}: warm");
            }
            let outside = NodeId(t.node_count());
            assert_eq!(
                t.path_delay(a, outside, state),
                None,
                "{what}: no such node"
            );
        }
    }

    /// Replace one link of `t` (if it has any) through `add_link` by a slower
    /// or a faster one. Half the time the victim is the fastest link, so
    /// that raising it leaves `min_delay` stale-low.
    fn replace_one_link(t: &mut Topology, raise: bool, rng: &mut SimRng) {
        let links: Vec<_> = t.links().collect();
        let Some(&fastest) = links.iter().min_by_key(|link| link.1) else {
            return;
        };
        let any = *rng.pick(&links);
        let ((a, b), old) = *rng.pick(&[fastest, any]);
        let new = if raise {
            old.micros() + rng.gen_range(1..=1000u64)
        } else {
            rng.gen_range(0..=old.micros())
        };
        t.add_link(b, a, SimDuration(new));
        assert_eq!(t.link_delay(a, b), Some(SimDuration(new)));
        assert_eq!(t.links().count(), links.len(), "replaced, not added");
    }

    #[test]
    fn path_delay_matches_floyd_warshall_on_seeded_cases() {
        for case in 0..240u64 {
            let mut rng = SimRng::new(0xF10D ^ case);
            let mut t = any_topology(case, &mut rng);
            let mut cache = RouteCache::new();
            for step in ["built", "link raised", "link lowered"] {
                if step != "built" {
                    replace_one_link(&mut t, step == "link raised", &mut rng);
                }
                // Two states in a row: the memo must be right again after
                // `invalidate` under a changed one.
                for _ in 0..2 {
                    let state = any_state(&t, &mut rng);
                    cache.invalidate();
                    assert_matches_oracle(&t, &state, &mut cache, &format!("case {case} ({step})"));
                }
            }
        }
    }

    #[test]
    fn a_lookup_on_a_mesh_with_every_link_up_settles_at_most_one_node() {
        // The work bound, clock-free: every link of a mesh jittered by at
        // most a tenth is under twice the fastest, so one scan of the
        // source's row finds the answer and nothing is pushed or popped.
        let t = Topology::jittered_mesh(256, ms(10), ms(1), 42);
        let up = LinkState::all_up();
        for from in t.nodes() {
            for to in t.nodes().filter(|&to| to != from) {
                let (delay, settled) = t.search(from, to, &up);
                assert_eq!(delay, t.link_delay(from, to), "{from:?}->{to:?}");
                assert!(settled <= 1, "{from:?}->{to:?} settled {settled} nodes");
            }
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
    fn a_direct_link_over_twice_the_fastest_can_lose_to_two_hops() {
        // The search is skipped only up to `2 × min_delay`: one µs past it
        // a two-hop route is shorter, at it the two tie.
        for (direct, want) in [(ms(20), ms(20)), (SimDuration(20_001), ms(20))] {
            let mut t = Topology::new(3);
            t.add_link(NodeId(0), NodeId(1), ms(10));
            t.add_link(NodeId(1), NodeId(2), ms(10));
            t.add_link(NodeId(0), NodeId(2), direct);
            let up = LinkState::all_up();
            assert_eq!(t.path_delay(NodeId(0), NodeId(2), &up), Some(want));
        }
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
