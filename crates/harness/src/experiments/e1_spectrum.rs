//! E1 — Figure 1.1: the correctness/availability spectrum, measured.
//!
//! One shared banking workload (deposits and withdrawals with random
//! partitions) is replayed under five systems spanning the spectrum:
//!
//! 1. mutual exclusion (primary copy) — baseline, conservative end;
//! 2. §4.1 fixed agents + read locks;
//! 3. §4.2 fixed agents + elementarily acyclic read-access graph;
//! 4. §4.3 fixed agents, unrestricted reads;
//! 5. log transformation — baseline, "free-for-all" end.
//!
//! The paper's qualitative claim — availability increases left to right
//! while the correctness guarantee weakens — becomes a measured table.

use std::fmt;
use std::rc::Rc;

use fragdb_baselines::{
    mutex::MxOutcome, LogTransformConfig, LogTransformSystem, LoggedOp, MutexConfig, MutexSystem,
};
use fragdb_core::{Notification, StrategyKind, System, SystemConfig};
use fragdb_model::{NodeId, ObjectId};
use fragdb_net::Topology;
use fragdb_sim::{SimDuration, SimTime};
use fragdb_workloads::{BankConfig, BankDriver, BankSchema};

use crate::experiments::scenario::{Scenario, ScenarioParams};
use crate::table::{dur, pct, Table};

/// Measured outcome of one system on the shared scenario.
#[derive(Clone, Debug)]
pub struct SpectrumRow {
    /// System label (Figure 1.1 position).
    pub system: String,
    /// Customer operations submitted.
    pub submitted: u64,
    /// Customer operations served.
    pub served: u64,
    /// Operations refused/timed out for availability reasons.
    pub unavailable: u64,
    /// Mean commit latency (µs) of served operations.
    pub mean_latency_us: u64,
    /// Messages sent on the network.
    pub messages: u64,
    /// Reconciliation/replay work (log transformation only).
    pub replay_ops: u64,
    /// Correctness verdict on the executed history.
    pub guarantee: String,
    /// All replicas identical after the run drained?
    pub converged: bool,
}

/// The full report.
#[derive(Clone, Debug)]
pub struct E1Report {
    /// One row per system, spectrum order.
    pub rows: Vec<SpectrumRow>,
    /// The scenario's operation count.
    pub total_ops: usize,
    /// Fraction of the horizon that was partitioned.
    pub disrupted_frac: f64,
}

impl fmt::Display for E1Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E1 — Figure 1.1 spectrum: {} customer ops, {:.0}% of time partitioned",
            self.total_ops,
            self.disrupted_frac * 100.0
        )?;
        let mut t = Table::new([
            "system",
            "availability",
            "served",
            "unavailable",
            "mean latency",
            "messages",
            "replay ops",
            "guarantee",
            "converged",
        ]);
        for r in &self.rows {
            t.row([
                r.system.clone(),
                pct(r.served, r.submitted),
                r.served.to_string(),
                r.unavailable.to_string(),
                dur(r.mean_latency_us),
                r.messages.to_string(),
                if r.replay_ops == 0 {
                    "-".into()
                } else {
                    r.replay_ops.to_string()
                },
                r.guarantee.clone(),
                if r.converged { "yes" } else { "NO" }.to_string(),
            ]);
        }
        write!(f, "{t}")
    }
}

/// Drain time after the last heal, for propagation to finish.
fn drain_until(horizon: SimTime) -> SimTime {
    horizon + SimDuration::from_secs(600)
}

/// Run the fragments-and-agents system under `strategy` on the scenario.
fn run_fragdb(label: &str, strategy: StrategyKind, seed: u64, sc: &Scenario) -> SpectrumRow {
    let cfg = BankConfig {
        accounts: sc.params.accounts,
        slots_per_account: (sc.ops.len() + 8) as u32,
        central: NodeId(0),
        account_homes: sc.account_homes.clone(),
        overdraft_fine: 50,
    };
    let (catalog, schema, agents) = BankSchema::build(&cfg);
    let declare = matches!(strategy, StrategyKind::ReadLocks { .. });
    let mut sys = System::build(
        Topology::full_mesh(sc.params.nodes, SimDuration::from_millis(10)),
        catalog,
        agents,
        SystemConfig::unrestricted(seed).with_strategy(strategy),
    )
    .expect("strategy validates");
    let mut bank = BankDriver::new(schema, cfg);
    if declare {
        bank = bank.with_declared_reads();
    }

    let activity: std::collections::BTreeSet<_> = bank.schema.activity.iter().copied().collect();
    sys.schedule_partitions(&sc.partitions);
    for op in &sc.ops {
        let sub = if op.amount > 0 {
            bank.deposit(op.account, op.amount)
        } else {
            bank.withdraw(op.account, -op.amount, false)
        }
        .expect("enough slots");
        sys.submit_at(op.at, sub);
    }

    let mut served = 0u64;
    let mut unavailable = 0u64;
    let limit = drain_until(sc.params.horizon);
    while let Some((at, notes)) = sys.step_until(limit) {
        for n in &notes {
            match n {
                Notification::Committed { fragment, .. } if activity.contains(fragment) => {
                    served += 1;
                }
                Notification::Aborted { fragment, .. } if activity.contains(fragment) => {
                    unavailable += 1;
                }
                _ => {}
            }
            bank.react(&mut sys, at, n);
        }
    }

    let verdict = fragdb_graphs::analyze(&sys.history);
    let mean_latency = sys
        .engine
        .metrics
        .histogram("latency.commit")
        .and_then(|h| h.mean())
        .unwrap_or(0.0) as u64;
    SpectrumRow {
        system: label.to_string(),
        submitted: sc.ops.len() as u64,
        served,
        unavailable,
        mean_latency_us: mean_latency,
        messages: sys.net_stats().sent,
        replay_ops: 0,
        guarantee: verdict.spectrum_label().to_string(),
        converged: sys.divergent_fragments().is_empty(),
    }
}

/// Run the mutual-exclusion baseline.
fn run_mutex(seed: u64, sc: &Scenario) -> SpectrumRow {
    let mut sys = MutexSystem::build(
        Topology::full_mesh(sc.params.nodes, SimDuration::from_millis(10)),
        MutexConfig {
            primary: NodeId(0),
            seed,
        },
    );
    for (at, change) in sc.partitions.events() {
        sys.net_change_at(*at, change.clone());
    }
    for op in &sc.ops {
        let account = op.account as usize;
        let amount = op.amount;
        let bal = ObjectId(account as u64);
        sys.submit_at(
            op.at,
            op.node,
            false,
            Rc::new(move |ctx| {
                let cur = ctx.read_int(bal, 0);
                ctx.write(bal, cur + amount);
                Ok(())
            }),
        );
    }
    let outcomes = sys.run_until(drain_until(sc.params.horizon));
    let served = outcomes
        .iter()
        .filter(|(_, o)| matches!(o, MxOutcome::Committed(_)))
        .count() as u64;
    let unavailable = outcomes
        .iter()
        .filter(|(_, o)| matches!(o, MxOutcome::Unavailable))
        .count() as u64;
    let objects: Vec<ObjectId> = (0..sc.params.accounts as u64).map(ObjectId).collect();
    let verdict = fragdb_graphs::analyze(&sys.history);
    SpectrumRow {
        system: "mutual exclusion".into(),
        submitted: sc.ops.len() as u64,
        served,
        unavailable,
        mean_latency_us: sys
            .engine
            .metrics
            .histogram("latency.commit")
            .and_then(|h| h.mean())
            .unwrap_or(0.0) as u64,
        messages: sys.net_stats().sent,
        replay_ops: 0,
        guarantee: if verdict.globally_serializable {
            "globally serializable".into()
        } else {
            "UNEXPECTED".into()
        },
        converged: sys.converged(&objects),
    }
}

/// The log-transformation op for the banking scenario.
#[derive(Clone, Debug)]
pub struct LtBankOp {
    /// Account index.
    pub account: u32,
    /// Signed amount.
    pub amount: i64,
}

impl LoggedOp for LtBankOp {
    type State = Vec<i64>;
    fn apply(&self, state: &mut Vec<i64>) {
        if state.len() <= self.account as usize {
            state.resize(self.account as usize + 1, 0);
        }
        state[self.account as usize] += self.amount;
    }
}

/// Run the log-transformation baseline.
fn run_logtransform(seed: u64, sc: &Scenario) -> SpectrumRow {
    let mut sys: LogTransformSystem<LtBankOp> = LogTransformSystem::build(
        Topology::full_mesh(sc.params.nodes, SimDuration::from_millis(10)),
        LogTransformConfig { seed },
    );
    for (at, change) in sc.partitions.events() {
        sys.net_change_at(*at, change.clone());
    }
    for op in &sc.ops {
        sys.submit_at(
            op.at,
            op.node,
            LtBankOp {
                account: op.account,
                amount: op.amount,
            },
        );
    }
    sys.run_until(drain_until(sc.params.horizon));
    SpectrumRow {
        system: "log transformation".into(),
        submitted: sc.ops.len() as u64,
        served: sc.ops.len() as u64, // free-for-all: everything is served
        unavailable: 0,
        mean_latency_us: 0, // local application is instantaneous
        messages: sys.net_stats().sent,
        replay_ops: sys.engine.metrics.counter("replay.ops"),
        guarantee: "eventual convergence only".into(),
        converged: sys.converged(),
    }
}

/// Run E1.
pub fn run(seed: u64, params: ScenarioParams) -> E1Report {
    let sc = Scenario::generate(seed, params);
    let disrupted_frac = sc
        .partitions
        .disrupted_time(sc.params.horizon)
        .as_secs_f64()
        / sc.params.horizon.as_secs_f64();

    let mut rows = Vec::new();
    rows.push(run_mutex(seed, &sc));
    rows.push(run_fragdb(
        "4.1 read-locks",
        StrategyKind::ReadLocks {
            timeout: SimDuration::from_secs(10),
        },
        seed,
        &sc,
    ));
    // §4.2 with the banking class declarations (elementarily acyclic).
    let cfg = BankConfig {
        accounts: sc.params.accounts,
        slots_per_account: 1,
        central: NodeId(0),
        account_homes: sc.account_homes.clone(),
        overdraft_fine: 0,
    };
    let (_, schema_for_decls, _) = BankSchema::build(&cfg);
    rows.push(run_fragdb(
        "4.2 acyclic-RAG",
        StrategyKind::AcyclicRag {
            decls: schema_for_decls.decls(),
            allow_violating_read_only: true,
        },
        seed,
        &sc,
    ));
    rows.push(run_fragdb(
        "4.3 unrestricted",
        StrategyKind::Unrestricted,
        seed,
        &sc,
    ));
    rows.push(run_logtransform(seed, &sc));

    E1Report {
        total_ops: sc.ops.len(),
        disrupted_frac,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params() -> ScenarioParams {
        ScenarioParams {
            nodes: 4,
            accounts: 4,
            ops_per_sec: 1.0,
            horizon: SimTime::from_secs(120),
            disruption: 0.3,
            mean_partition: SimDuration::from_secs(15),
        }
    }

    #[test]
    fn spectrum_orders_availability_as_the_paper_claims() {
        let report = run(42, small_params());
        let avail: Vec<f64> = report
            .rows
            .iter()
            .map(|r| r.served as f64 / r.submitted as f64)
            .collect();
        let [mutex, locks, rag, unrestricted, lt] = avail[..] else {
            panic!("expected five rows");
        };
        // Left-to-right availability is non-decreasing (Figure 1.1).
        assert!(mutex <= locks + 1e-9, "mutex {mutex} vs locks {locks}");
        assert!(locks <= rag + 1e-9, "locks {locks} vs rag {rag}");
        assert!(rag <= unrestricted + 1e-9);
        assert!(
            (unrestricted - 1.0).abs() < 1e-9,
            "fragdb serves everything"
        );
        assert!((lt - 1.0).abs() < 1e-9, "free-for-all serves everything");
        // The conservative end lost real availability in this scenario.
        assert!(mutex < 1.0, "partitions must hurt the mutex baseline");
    }

    #[test]
    fn guarantees_weaken_left_to_right() {
        let report = run(43, small_params());
        assert_eq!(report.rows[0].guarantee, "globally serializable");
        assert_eq!(report.rows[1].guarantee, "globally serializable");
        assert_eq!(report.rows[2].guarantee, "globally serializable");
        // §4.3 may or may not produce a global anomaly in a given run, but
        // it must at least be fragmentwise serializable.
        assert!(
            report.rows[3].guarantee == "globally serializable"
                || report.rows[3].guarantee == "fragmentwise serializable",
            "got {}",
            report.rows[3].guarantee
        );
        assert_eq!(report.rows[4].guarantee, "eventual convergence only");
    }

    #[test]
    fn every_system_converges_after_heal() {
        let report = run(44, small_params());
        for r in &report.rows {
            assert!(r.converged, "{} did not converge", r.system);
        }
    }

    #[test]
    fn log_transformation_pays_replay_overhead() {
        let report = run(45, small_params());
        let lt = &report.rows[4];
        assert!(
            lt.replay_ops > lt.submitted,
            "replay work {} should exceed op count {}",
            lt.replay_ops,
            lt.submitted
        );
    }

    #[test]
    fn report_renders() {
        let report = run(46, small_params());
        let s = report.to_string();
        assert!(s.contains("availability"));
        assert!(s.contains("mutual exclusion"));
        assert!(s.contains("4.3 unrestricted"));
    }
}
