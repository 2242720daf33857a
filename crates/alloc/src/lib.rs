//! Telemetry-driven fragment allocation (§6 partial replication).
//!
//! The benchmark of record (`wide-mesh`, `msgs_per_commit` 1023) shows
//! the real scaling wall is fan-out: with every fragment fully
//! replicated, a commit at 1024 nodes pays 1023 broadcast messages no
//! matter how cheap the kernel gets. The paper's E12
//! experiment proves non-full replication preserves the availability and
//! serializability guarantees; this crate turns that observation into a
//! placement policy.
//!
//! The [`Allocator`] consumes per-node **access counts** (reads and writes
//! per fragment, recorded by the workload driver in an [`AccessStats`])
//! together with the current [`Placement`] and produces a [`Plan`] per
//! epoch that
//!
//! 1. **places replicas near readers** — a fragment's replica set keeps
//!    the nodes that actually read it;
//! 2. **migrates the token toward the heaviest writer** via the existing
//!    §4.4.2 move protocols (`System::move_agent_at`); and
//! 3. **shrinks the replica set** toward a configured replication factor
//!    (`System::shrink_replica_set_at`).
//!
//! Every decision is **deterministic**: ties are broken by a seeded
//! permutation derived from `(seed, epoch, fragment)`, and epochs advance
//! in virtual time under the driver's control, so two same-seed runs
//! produce byte-identical plans (see [`Plan::fingerprint`]). The
//! allocator is pure planning — it holds no reference to the system; the
//! driver applies a plan's decisions through the ordinary driver API,
//! which keeps the allocator off by default and golden traces
//! byte-identical.
//!
//! Convergence shape: a plan's replica set always contains both the
//! *current* home (so the shrink is immediately valid) and the *target*
//! home (so the migration lands inside the set). Once the token has moved,
//! the next epoch drops the old home and the set settles at the
//! replication factor.

use std::collections::{BTreeMap, BTreeSet};

use fragdb_model::{FragmentId, NodeId};
use fragdb_sim::metrics::{keys, Metrics};
use fragdb_sim::SimRng;

/// Per-fragment, per-node access counts recorded by the workload driver.
///
/// The driver — not the system — attributes accesses: updates execute at
/// the fragment home regardless of who submitted them, so only the driver
/// knows which node's client issued the write.
#[derive(Clone, Debug, Default)]
pub struct AccessStats {
    reads: BTreeMap<FragmentId, BTreeMap<NodeId, u64>>,
    writes: BTreeMap<FragmentId, BTreeMap<NodeId, u64>>,
}

impl AccessStats {
    /// Empty counts.
    pub fn new() -> Self {
        AccessStats::default()
    }

    /// Record one read of `fragment` issued from `node`.
    pub fn record_read(&mut self, fragment: FragmentId, node: NodeId) {
        *self
            .reads
            .entry(fragment)
            .or_default()
            .entry(node)
            .or_insert(0) += 1;
    }

    /// Record one write of `fragment` issued from `node`.
    pub fn record_write(&mut self, fragment: FragmentId, node: NodeId) {
        *self
            .writes
            .entry(fragment)
            .or_default()
            .entry(node)
            .or_insert(0) += 1;
    }

    /// Reads of `fragment` issued from `node`.
    pub fn reads(&self, fragment: FragmentId, node: NodeId) -> u64 {
        self.reads
            .get(&fragment)
            .and_then(|m| m.get(&node))
            .copied()
            .unwrap_or(0)
    }

    /// Writes of `fragment` issued from `node`.
    pub fn writes(&self, fragment: FragmentId, node: NodeId) -> u64 {
        self.writes
            .get(&fragment)
            .and_then(|m| m.get(&node))
            .copied()
            .unwrap_or(0)
    }

    /// Total writes of `fragment` across all nodes.
    pub fn total_writes(&self, fragment: FragmentId) -> u64 {
        self.writes
            .get(&fragment)
            .map(|m| m.values().sum())
            .unwrap_or(0)
    }

    /// Drop all counts (start of a new observation window).
    pub fn clear(&mut self) {
        self.reads.clear();
        self.writes.clear();
    }
}

/// The current cluster placement the allocator plans against.
#[derive(Clone, Debug)]
pub struct Placement {
    /// Number of nodes in the cluster.
    pub nodes: u32,
    /// Each fragment's current token home.
    pub homes: BTreeMap<FragmentId, NodeId>,
    /// Explicit replica sets; a fragment absent here is fully replicated.
    pub replica_sets: BTreeMap<FragmentId, BTreeSet<NodeId>>,
}

impl Placement {
    /// A fully replicated placement over `nodes` nodes.
    pub fn fully_replicated(
        nodes: u32,
        homes: impl IntoIterator<Item = (FragmentId, NodeId)>,
    ) -> Self {
        Placement {
            nodes,
            homes: homes.into_iter().collect(),
            replica_sets: BTreeMap::new(),
        }
    }

    /// The nodes currently holding a replica of `fragment`.
    pub fn replicas_of(&self, fragment: FragmentId) -> BTreeSet<NodeId> {
        match self.replica_sets.get(&fragment) {
            Some(set) => set.clone(),
            None => (0..self.nodes).map(NodeId).collect(),
        }
    }

    /// Apply a plan's decisions, yielding the placement the next epoch
    /// plans against (assumes every migration and shrink succeeded).
    pub fn after(&self, plan: &Plan) -> Placement {
        let mut next = self.clone();
        for d in &plan.decisions {
            next.homes.insert(d.fragment, d.target_home);
            next.replica_sets.insert(d.fragment, d.replica_set.clone());
        }
        next
    }
}

/// Allocator knobs.
#[derive(Clone, Copy, Debug)]
pub struct AllocConfig {
    /// Target replica-set size the allocator shrinks toward (floored at 1;
    /// §4.4.1 elections additionally want ≥ 3 — see Fdb061).
    pub replication_factor: u32,
    /// Seed for deterministic tie-breaks.
    pub seed: u64,
}

/// What one epoch decided for one fragment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FragmentDecision {
    /// The fragment planned.
    pub fragment: FragmentId,
    /// Where the token should live: the heaviest writer in the current
    /// replica set (ties seeded; the current home when nothing wrote).
    pub target_home: NodeId,
    /// Whether `target_home` differs from the current home (the driver
    /// issues a §4.4.2 move).
    pub migrate: bool,
    /// The planned replica set: current home ∪ target home ∪ heaviest
    /// readers, filled to the replication factor — always a subset of the
    /// current replica set, so the shrink is valid immediately.
    pub replica_set: BTreeSet<NodeId>,
    /// Whether `replica_set` is strictly smaller than the current one (the
    /// driver issues a shrink).
    pub shrink: bool,
}

/// One epoch's deterministic decisions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Plan {
    /// The allocator epoch that produced this plan (1-based).
    pub epoch: u64,
    /// Per-fragment decisions, in fragment order.
    pub decisions: Vec<FragmentDecision>,
}

impl Plan {
    /// Number of token migrations this plan orders.
    pub fn migrations(&self) -> u64 {
        self.decisions.iter().filter(|d| d.migrate).count() as u64
    }

    /// Number of replica-set shrinks this plan orders.
    pub fn shrinks(&self) -> u64 {
        self.decisions.iter().filter(|d| d.shrink).count() as u64
    }

    /// The cost model: expected broadcast messages per committed update
    /// under this plan's placement — each fragment pays `|replicas| − 1`
    /// per commit, weighted by the fragment's share of observed writes
    /// (unweighted mean when nothing wrote).
    pub fn msgs_per_commit(&self, stats: &AccessStats) -> f64 {
        if self.decisions.is_empty() {
            return 0.0;
        }
        let total: u64 = self
            .decisions
            .iter()
            .map(|d| stats.total_writes(d.fragment))
            .sum();
        if total == 0 {
            let sum: u64 = self
                .decisions
                .iter()
                .map(|d| d.replica_set.len() as u64 - 1)
                .sum();
            return sum as f64 / self.decisions.len() as f64;
        }
        self.decisions
            .iter()
            .map(|d| {
                let w = stats.total_writes(d.fragment) as f64 / total as f64;
                w * (d.replica_set.len() as f64 - 1.0)
            })
            .sum()
    }

    /// Publish the plan under the registered metric keys:
    /// `alloc.migrations` accumulates across epochs;
    /// `alloc.msgs_per_commit` is a gauge in **milli-messages** per commit
    /// (`2500` = 2.5 messages), keeping the integer registry exact enough
    /// to compare placements.
    pub fn publish(&self, stats: &AccessStats, metrics: &mut Metrics) {
        metrics.add(keys::ALLOC_MIGRATIONS, self.migrations());
        let milli = (self.msgs_per_commit(stats) * 1000.0).round() as u64;
        metrics.set(keys::ALLOC_MSGS_PER_COMMIT, milli);
    }

    /// A canonical rendering of every decision — two same-seed runs must
    /// produce byte-identical fingerprints (tested by the equivalence
    /// suite).
    pub fn fingerprint(&self) -> String {
        let mut out = format!("epoch={}\n", self.epoch);
        for d in &self.decisions {
            let set: Vec<String> = d.replica_set.iter().map(|n| n.0.to_string()).collect();
            out.push_str(&format!(
                "frag={} home={} migrate={} shrink={} set=[{}]\n",
                d.fragment.0,
                d.target_home.0,
                d.migrate,
                d.shrink,
                set.join(",")
            ));
        }
        out
    }
}

/// The epoch-stepping planner.
#[derive(Clone, Debug)]
pub struct Allocator {
    cfg: AllocConfig,
    epoch: u64,
}

impl Allocator {
    /// A planner at epoch 0 (no plan produced yet).
    pub fn new(cfg: AllocConfig) -> Self {
        Allocator { cfg, epoch: 0 }
    }

    /// The last produced epoch (0 before the first plan).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Produce the next epoch's plan against `placement` using the access
    /// counts observed since the last epoch. Pure: applying the plan is
    /// the driver's job ([`Placement::after`] predicts the outcome).
    pub fn plan(&mut self, placement: &Placement, stats: &AccessStats) -> Plan {
        self.epoch += 1;
        let rf = self.cfg.replication_factor.max(1) as usize;
        let mut decisions = Vec::with_capacity(placement.homes.len());
        for (&fragment, &current_home) in &placement.homes {
            let candidates = placement.replicas_of(fragment);
            let rank = self.tie_rank(fragment, placement.nodes);
            // Heaviest writer in the current replica set; the current home
            // wins all-zero windows (no data ⇒ no churn).
            let target_home = candidates
                .iter()
                .copied()
                .max_by_key(|&c| {
                    (
                        stats.writes(fragment, c),
                        if c == current_home { 1 } else { 0 },
                        std::cmp::Reverse(rank[c.0 as usize]),
                    )
                })
                .unwrap_or(current_home);
            // Seed the set with both homes, then the heaviest readers, then
            // seeded filler — all drawn from the current replica set. A
            // migrating fragment keeps its old home in one transitional
            // slot *beyond* the replication factor, so the readers the set
            // exists for are not crowded out; the next epoch drops it.
            let mut set: BTreeSet<NodeId> = [current_home, target_home].into_iter().collect();
            let want = (rf + usize::from(target_home != current_home)).max(set.len());
            let mut readers: Vec<NodeId> = candidates
                .iter()
                .copied()
                .filter(|&c| !set.contains(&c) && stats.reads(fragment, c) > 0)
                .collect();
            readers.sort_by_key(|&c| {
                (
                    std::cmp::Reverse(stats.reads(fragment, c)),
                    rank[c.0 as usize],
                )
            });
            for r in readers {
                if set.len() >= want {
                    break;
                }
                set.insert(r);
            }
            if set.len() < want {
                let mut filler: Vec<NodeId> = candidates
                    .iter()
                    .copied()
                    .filter(|c| !set.contains(c))
                    .collect();
                filler.sort_by_key(|&c| rank[c.0 as usize]);
                for f in filler {
                    if set.len() >= want {
                        break;
                    }
                    set.insert(f);
                }
            }
            let shrink = set.len() < candidates.len();
            decisions.push(FragmentDecision {
                fragment,
                target_home,
                migrate: target_home != current_home,
                replica_set: set,
                shrink,
            });
        }
        Plan {
            epoch: self.epoch,
            decisions,
        }
    }

    /// A seeded permutation rank over the node ids: `rank[node]` is the
    /// node's position in a shuffle keyed by `(seed, epoch, fragment)`,
    /// used to break every tie deterministically but without a fixed
    /// lowest-id bias.
    fn tie_rank(&self, fragment: FragmentId, nodes: u32) -> Vec<u32> {
        let mut rng = SimRng::new(
            self.cfg
                .seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(self.epoch)
                .rotate_left(17)
                ^ u64::from(fragment.0),
        );
        let mut perm: Vec<u32> = (0..nodes).collect();
        rng.shuffle(&mut perm);
        let mut rank = vec![0u32; nodes as usize];
        for (pos, &node) in perm.iter().enumerate() {
            rank[node as usize] = pos as u32;
        }
        rank
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(i: u32) -> FragmentId {
        FragmentId(i)
    }

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn skewed_stats() -> AccessStats {
        let mut s = AccessStats::new();
        for _ in 0..50 {
            s.record_write(f(0), n(3));
        }
        for _ in 0..5 {
            s.record_write(f(0), n(0));
        }
        for _ in 0..40 {
            s.record_read(f(0), n(5));
        }
        for _ in 0..30 {
            s.record_read(f(0), n(6));
        }
        for _ in 0..1 {
            s.record_read(f(0), n(7));
        }
        s
    }

    #[test]
    fn counts_accumulate_and_clear() {
        let mut s = AccessStats::new();
        s.record_read(f(1), n(2));
        s.record_read(f(1), n(2));
        s.record_write(f(1), n(0));
        assert_eq!(s.reads(f(1), n(2)), 2);
        assert_eq!(s.writes(f(1), n(0)), 1);
        assert_eq!(s.total_writes(f(1)), 1);
        assert_eq!(s.reads(f(9), n(9)), 0);
        s.clear();
        assert_eq!(s.reads(f(1), n(2)), 0);
    }

    #[test]
    fn plan_migrates_to_heaviest_writer_and_keeps_readers() {
        let placement = Placement::fully_replicated(8, [(f(0), n(0))]);
        let mut a = Allocator::new(AllocConfig {
            replication_factor: 3,
            seed: 42,
        });
        let plan = a.plan(&placement, &skewed_stats());
        assert_eq!(plan.epoch, 1);
        let d = &plan.decisions[0];
        assert_eq!(d.target_home, n(3), "heaviest writer wins the token");
        assert!(d.migrate);
        assert!(d.shrink);
        // Both homes kept; the two heavy readers placed; RF honored plus
        // one transitional slot for the old home.
        assert!(d.replica_set.contains(&n(0)));
        assert!(d.replica_set.contains(&n(3)));
        assert!(d.replica_set.contains(&n(5)));
        assert!(d.replica_set.contains(&n(6)));
        assert_eq!(d.replica_set.len(), 4);
    }

    #[test]
    fn second_epoch_drops_the_old_home_and_settles_at_rf() {
        let placement = Placement::fully_replicated(8, [(f(0), n(0))]);
        let stats = skewed_stats();
        let mut a = Allocator::new(AllocConfig {
            replication_factor: 3,
            seed: 42,
        });
        let p1 = a.plan(&placement, &stats);
        let after1 = placement.after(&p1);
        assert_eq!(after1.homes[&f(0)], n(3));
        let p2 = a.plan(&after1, &stats);
        let d = &p2.decisions[0];
        assert!(!d.migrate, "token already at the heaviest writer");
        assert_eq!(d.replica_set.len(), 3);
        assert!(d.replica_set.contains(&n(3)));
        assert!(d.replica_set.contains(&n(5)));
        assert!(
            d.replica_set.is_subset(&after1.replicas_of(f(0))),
            "shrinks stay within the current set"
        );
        let after2 = after1.after(&p2);
        let p3 = a.plan(&after2, &stats);
        assert_eq!(p3.migrations() + p3.shrinks(), 0, "converged");
    }

    #[test]
    fn plans_are_byte_identical_across_same_seed_runs() {
        let run = |seed: u64| {
            let mut placement = Placement::fully_replicated(16, [(f(0), n(0)), (f(1), n(1))]);
            let mut s = AccessStats::new();
            // Symmetric counts everywhere: every choice is a pure tie-break.
            for node in 0..16 {
                s.record_write(f(0), n(node));
                s.record_write(f(1), n(node));
                s.record_read(f(0), n(node));
                s.record_read(f(1), n(node));
            }
            let mut a = Allocator::new(AllocConfig {
                replication_factor: 3,
                seed,
            });
            let mut out = String::new();
            for _ in 0..3 {
                let p = a.plan(&placement, &s);
                out.push_str(&p.fingerprint());
                placement = placement.after(&p);
            }
            out
        };
        assert_eq!(run(7), run(7), "same seed ⇒ byte-identical plans");
        assert_ne!(
            run(7),
            run(8),
            "tie-breaks must actually depend on the seed"
        );
    }

    #[test]
    fn quiet_window_leaves_the_placement_alone() {
        let placement = Placement {
            nodes: 8,
            homes: [(f(0), n(2))].into_iter().collect(),
            replica_sets: [(f(0), [n(1), n(2), n(4)].into_iter().collect())]
                .into_iter()
                .collect(),
        };
        let mut a = Allocator::new(AllocConfig {
            replication_factor: 3,
            seed: 1,
        });
        let p = a.plan(&placement, &AccessStats::new());
        let d = &p.decisions[0];
        assert_eq!(d.target_home, n(2), "no writes ⇒ no migration");
        assert!(!d.migrate);
        assert!(!d.shrink, "already at RF");
        assert_eq!(d.replica_set, placement.replicas_of(f(0)));
    }

    #[test]
    fn cost_model_weights_by_write_share() {
        let mut s = AccessStats::new();
        for _ in 0..3 {
            s.record_write(f(0), n(0));
        }
        s.record_write(f(1), n(0));
        let plan = Plan {
            epoch: 1,
            decisions: vec![
                FragmentDecision {
                    fragment: f(0),
                    target_home: n(0),
                    migrate: false,
                    replica_set: [n(0), n(1), n(2)].into_iter().collect(),
                    shrink: false,
                },
                FragmentDecision {
                    fragment: f(1),
                    target_home: n(0),
                    migrate: false,
                    replica_set: (0..7).map(n).collect(),
                    shrink: false,
                },
            ],
        };
        // 3/4 of writes pay 2 messages, 1/4 pay 6: 0.75*2 + 0.25*6 = 3.0.
        assert!((plan.msgs_per_commit(&s) - 3.0).abs() < 1e-9);
        let mut m = Metrics::new();
        plan.publish(&s, &mut m);
        assert_eq!(m.counter(keys::ALLOC_MSGS_PER_COMMIT), 3000);
        assert_eq!(m.counter(keys::ALLOC_MIGRATIONS), 0);
    }

    #[test]
    fn replication_factor_one_keeps_only_the_homes() {
        let placement = Placement::fully_replicated(4, [(f(0), n(1))]);
        let mut a = Allocator::new(AllocConfig {
            replication_factor: 1,
            seed: 3,
        });
        let mut s = AccessStats::new();
        s.record_write(f(0), n(1));
        let p = a.plan(&placement, &s);
        let d = &p.decisions[0];
        assert_eq!(d.replica_set, [n(1)].into_iter().collect());
        assert!(d.shrink);
        assert!(!d.migrate);
    }
}
