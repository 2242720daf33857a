//! E10 — §3.2: reliable delivery *earned* under faults and crashes.
//!
//! The paper requires: (1) all messages are eventually delivered; (2)
//! messages broadcast by one node are processed at all other nodes in the
//! order sent. The seed experiment checked this against partitions only;
//! here the full system runs over links that **drop**, **duplicate**, and
//! **reorder** packets (per-link fault plans sampled from the seeded RNG),
//! and one level adds a **crash/recovery cycle**: a node loses all
//! volatile state mid-run, replays its WAL, and catches up by anti-entropy.
//!
//! Per fault level we report what the reliable layer had to do to make
//! §3.2 true — retransmissions, receiver-side duplicate drops — plus the
//! measured recovery latency and the two end-to-end verdicts: replicas
//! mutually consistent at quiescence, history fragmentwise serializable.

use std::fmt;

use fragdb_core::{Notification, Submission, System, SystemConfig};
use fragdb_model::{AgentId, FragmentCatalog, FragmentId, NodeId, ObjectId, UserId};
use fragdb_net::{FaultConfig, FaultPlan, Topology};
use fragdb_sim::{SimDuration, SimTime};
use fragdb_workloads::arrivals;

use crate::table::{dur, Table};

/// One fault-level sample.
#[derive(Clone, Debug)]
pub struct FaultSample {
    /// Level label ("clean", "drop 20%", …).
    pub label: String,
    /// Drop probability per transmission attempt.
    pub drop: f64,
    /// Duplication probability per transmission attempt.
    pub dup: f64,
    /// Reordering jitter bound (ms).
    pub jitter_ms: u64,
    /// Crash/recovery cycles injected.
    pub crashes: u64,
    /// Updates committed.
    pub committed: u64,
    /// Updates aborted (home down).
    pub unavailable: u64,
    /// Data-packet retransmissions the reliable layer needed.
    pub retransmissions: u64,
    /// Duplicate/stale data packets dropped at receivers.
    pub dup_drops: u64,
    /// Transmission attempts lost to injected faults.
    pub fault_dropped: u64,
    /// Median crash-recovery latency (µs); 0 when no crash was injected.
    pub recovery_p50_us: u64,
    /// Replicas mutually consistent at quiescence?
    pub converged: bool,
    /// History fragmentwise serializable?
    pub fragmentwise: bool,
}

/// The report.
#[derive(Clone, Debug)]
pub struct E10Report {
    /// One sample per fault level.
    pub samples: Vec<FaultSample>,
}

impl fmt::Display for E10Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E10 — reliable broadcast under drop/duplicate/reorder/crash (§3.2)"
        )?;
        let mut t = Table::new([
            "faults",
            "committed",
            "unavailable",
            "retransmits",
            "dup drops",
            "recovery p50",
            "converged",
            "fragmentwise",
        ]);
        for s in &self.samples {
            t.row([
                s.label.clone(),
                s.committed.to_string(),
                s.unavailable.to_string(),
                s.retransmissions.to_string(),
                s.dup_drops.to_string(),
                if s.crashes > 0 {
                    dur(s.recovery_p50_us)
                } else {
                    "-".to_string()
                },
                if s.converged { "yes" } else { "NO" }.to_string(),
                if s.fragmentwise { "yes" } else { "NO" }.to_string(),
            ]);
        }
        write!(f, "{t}")
    }
}

/// One fault level to sweep.
#[derive(Clone, Debug)]
pub struct FaultLevel {
    /// Display label.
    pub label: &'static str,
    /// The per-link plan, applied uniformly.
    pub plan: FaultPlan,
    /// Inject a crash/recovery cycle on a non-agent node?
    pub crash: bool,
}

/// The default sweep: clean, loss, duplication, reorder, everything+crash.
pub fn default_levels() -> Vec<FaultLevel> {
    vec![
        FaultLevel {
            label: "clean",
            plan: FaultPlan::NONE,
            crash: false,
        },
        FaultLevel {
            label: "drop 20%",
            plan: FaultPlan::lossy(0.2),
            crash: false,
        },
        FaultLevel {
            label: "dup 20%",
            plan: FaultPlan::new(0.0, 0.2, SimDuration::ZERO),
            crash: false,
        },
        FaultLevel {
            label: "jitter 50ms",
            plan: FaultPlan::new(0.0, 0.0, SimDuration::from_millis(50)),
            crash: false,
        },
        FaultLevel {
            label: "all + crash",
            plan: FaultPlan::new(0.15, 0.15, SimDuration::from_millis(30)),
            crash: true,
        },
    ]
}

fn secs(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

fn one_level(seed: u64, level: &FaultLevel) -> FaultSample {
    let n = 5u32;
    let horizon = secs(120);

    // One fragment per node 0..4; node 4 is nobody's home so a crash there
    // exercises pure replica recovery (the agent side is covered by E7).
    let mut b = FragmentCatalog::builder();
    let frags: Vec<(FragmentId, Vec<ObjectId>)> = (0..4)
        .map(|i| {
            let (f, objs) = b.add_fragment(format!("F{i}"), 3);
            (f, objs)
        })
        .collect();
    let catalog = b.build();
    let agents = frags
        .iter()
        .enumerate()
        .map(|(i, &(f, _))| (f, AgentId::User(UserId(i as u32)), NodeId(i as u32)))
        .collect();

    let mut sys = System::build(
        Topology::full_mesh(n, SimDuration::from_millis(10)),
        catalog,
        agents,
        SystemConfig::unrestricted(seed).with_faults(FaultConfig::uniform(level.plan)),
    )
    .unwrap();

    // Poisson update streams on every fragment (counter increments).
    let mut submitted = 0u64;
    {
        let mut rng = sys.engine.rng.fork(0xE10);
        for (f, objs) in &frags {
            let (f, objs) = (*f, objs.clone());
            for (k, at) in arrivals::poisson(&mut rng, 0.5, SimTime::ZERO, horizon)
                .into_iter()
                .enumerate()
            {
                let obj = objs[k % objs.len()];
                sys.submit_at(
                    at,
                    Submission::update(
                        f,
                        Box::new(move |ctx| {
                            let v = ctx.read_int(obj, 0);
                            ctx.write(obj, v + 1)?;
                            Ok(())
                        }),
                    ),
                );
                submitted += 1;
            }
        }
    }

    let mut crashes = 0u64;
    if level.crash {
        // Node 4 (no agent) dies mid-run and restarts 30s later.
        sys.crash_at(secs(40), NodeId(4));
        sys.recover_at(secs(70), NodeId(4));
        crashes = 1;
    }

    let mut committed = 0u64;
    let mut unavailable = 0u64;
    let limit = horizon + SimDuration::from_secs(300);
    while let Some((_, notes)) = sys.step_until(limit) {
        for note in notes {
            match note {
                Notification::Committed { .. } => committed += 1,
                Notification::Aborted { .. } => unavailable += 1,
                _ => {}
            }
        }
    }
    debug_assert_eq!(submitted, committed + unavailable);

    let stats = sys.net_stats();
    let verdict = fragdb_graphs::analyze(&sys.history);
    FaultSample {
        label: level.label.to_string(),
        drop: level.plan.drop,
        dup: level.plan.dup,
        jitter_ms: level.plan.jitter.micros() / 1_000,
        crashes,
        committed,
        unavailable,
        retransmissions: stats.retransmissions,
        dup_drops: stats.dup_dropped,
        fault_dropped: stats.fault_dropped,
        recovery_p50_us: sys
            .engine
            .metrics
            .histogram("latency.recovery")
            .and_then(|h| h.quantile(50.0))
            .unwrap_or(0),
        converged: sys.divergent_fragments().is_empty(),
        fragmentwise: verdict.fragmentwise_serializable(),
    }
}

/// Run E10 over the given fault levels.
pub fn run(seed: u64, levels: &[FaultLevel]) -> E10Report {
    E10Report {
        samples: levels.iter().map(|l| one_level(seed, l)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_level_converges_and_stays_fragmentwise() {
        let r = run(0x10, &default_levels());
        for s in &r.samples {
            assert!(s.converged, "{}: replicas diverged", s.label);
            assert!(s.fragmentwise, "{}: history not fragmentwise", s.label);
            assert!(s.committed > 0, "{}: nothing committed", s.label);
        }
    }

    #[test]
    fn loss_forces_retransmissions_and_dup_faults_are_absorbed() {
        let r = run(0x11, &default_levels());
        let by = |l: &str| {
            r.samples
                .iter()
                .find(|s| s.label == l)
                .expect("level present")
                .clone()
        };
        let clean = by("clean");
        assert_eq!(clean.retransmissions, 0, "clean links never retransmit");
        assert_eq!(clean.fault_dropped, 0);
        let lossy = by("drop 20%");
        assert!(lossy.retransmissions > 0, "loss must cause retries");
        assert!(lossy.fault_dropped > 0);
        let dups = by("dup 20%");
        assert!(dups.dup_drops > 0, "duplicate copies must be dropped");
    }

    #[test]
    fn crash_level_measures_recovery_and_still_converges() {
        let r = run(0x12, &default_levels());
        let s = r
            .samples
            .iter()
            .find(|s| s.crashes > 0)
            .expect("a crash level");
        assert!(s.converged, "crashed node must catch back up");
        assert!(
            s.unavailable == 0,
            "node 4 homes no agent; no submission should abort"
        );
    }

    #[test]
    fn same_seed_same_sample() {
        let a = run(0x13, &default_levels()[4..5]);
        let b = run(0x13, &default_levels()[4..5]);
        assert_eq!(a.samples[0].committed, b.samples[0].committed);
        assert_eq!(a.samples[0].retransmissions, b.samples[0].retransmissions);
        assert_eq!(a.samples[0].dup_drops, b.samples[0].dup_drops);
        assert_eq!(a.samples[0].recovery_p50_us, b.samples[0].recovery_p50_us);
    }

    #[test]
    fn report_renders() {
        let r = run(0x14, &default_levels()[0..1]);
        assert!(r.to_string().contains("retransmits"));
    }
}
