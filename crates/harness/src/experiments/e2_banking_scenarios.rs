//! E2 — the §1 banking scenarios (Figure 1.2), replayed under all three
//! approaches.
//!
//! Balance $300; during a partition between node A and node B the same
//! customer withdraws at both nodes:
//!
//! * scenario 1 — $100 each (consistent: ends at $100);
//! * scenario 2 — $200 each (inconsistent: overdrawn by $100).
//!
//! Systems: mutual exclusion (primary at A), log transformation (with the
//! per-node corrective-fine hook — exhibiting the paper's divergent-fines
//! chaos), and fragments-and-agents (§2 design, NoPrep token movement —
//! one centralized fine).

use std::fmt;
use std::rc::Rc;

use fragdb_baselines::{
    mutex::MxOutcome, LogTransformConfig, LogTransformSystem, LoggedOp, MutexConfig, MutexSystem,
};
use fragdb_core::{MovePolicy, System, SystemConfig};
use fragdb_model::{NodeId, ObjectId};
use fragdb_net::{NetworkChange, Topology};
use fragdb_sim::{SimDuration, SimTime};
use fragdb_workloads::{BankConfig, BankDriver, BankSchema};

use crate::table::Table;

fn secs(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

const FINE: i64 = 50;

/// Outcome of one (system, scenario) cell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScenarioOutcome {
    /// System label.
    pub system: String,
    /// Withdrawal amount per request ($100 or $200).
    pub amount: i64,
    /// Was the customer served at node A?
    pub served_a: bool,
    /// Was the customer served at node B?
    pub served_b: bool,
    /// Final balance at node A after everything heals and drains.
    pub final_balance_a: i64,
    /// Final balance at node B.
    pub final_balance_b: i64,
    /// Number of overdraft fines assessed (and by whom).
    pub fines: u32,
}

/// The report: six cells.
#[derive(Clone, Debug)]
pub struct E2Report {
    /// All outcomes.
    pub outcomes: Vec<ScenarioOutcome>,
}

impl fmt::Display for E2Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E2 — §1 scenarios: balance $300, two withdrawals of $X during a partition"
        )?;
        let mut t = Table::new([
            "system",
            "X",
            "served@A",
            "served@B",
            "balance@A",
            "balance@B",
            "fines",
        ]);
        for o in &self.outcomes {
            t.row([
                o.system.clone(),
                format!("${}", o.amount),
                yn(o.served_a),
                yn(o.served_b),
                format!("${}", o.final_balance_a),
                format!("${}", o.final_balance_b),
                o.fines.to_string(),
            ]);
        }
        write!(f, "{t}")
    }
}

fn yn(b: bool) -> String {
    if b { "yes" } else { "NO" }.to_string()
}

/// Mutual exclusion: primary at A (node 0).
fn mutex_scenario(amount: i64, seed: u64) -> ScenarioOutcome {
    let mut sys = MutexSystem::build(
        Topology::full_mesh(2, SimDuration::from_millis(10)),
        MutexConfig {
            primary: NodeId(0),
            seed,
        },
    );
    let bal = ObjectId(0);
    // Fund the account.
    sys.submit_at(
        secs(1),
        NodeId(0),
        false,
        Rc::new(move |ctx| {
            ctx.write(bal, 300i64);
            Ok(())
        }),
    );
    sys.net_change_at(secs(5), NetworkChange::LinkDown(NodeId(0), NodeId(1)));
    let withdraw = move |ctx: &mut fragdb_baselines::mutex::MxCtx<'_>| {
        let cur = ctx.read_int(bal, 0);
        if cur < amount {
            return Err("insufficient".to_string());
        }
        ctx.write(bal, cur - amount);
        Ok(())
    };
    sys.submit_at(secs(10), NodeId(0), false, Rc::new(withdraw));
    sys.submit_at(secs(10), NodeId(1), false, Rc::new(withdraw));
    let outcomes = sys.run_until(secs(30));
    sys.net_change_at(secs(40), NetworkChange::HealAll);
    let outcomes2 = sys.run_until(secs(120));
    let all: Vec<&MxOutcome> = outcomes
        .iter()
        .chain(outcomes2.iter())
        .map(|(_, o)| o)
        .collect();
    let served = all
        .iter()
        .filter(|o| matches!(o, MxOutcome::Committed(_)))
        .count();
    let unavailable = all
        .iter()
        .filter(|o| ***o == MxOutcome::Unavailable)
        .count();
    ScenarioOutcome {
        system: "mutual exclusion".into(),
        amount,
        served_a: served >= 2, // the funding commit + A's withdrawal
        served_b: unavailable == 0,
        final_balance_a: sys.replica(NodeId(0)).read(bal).as_int_or(0).unwrap(),
        final_balance_b: sys.replica(NodeId(1)).read(bal).as_int_or(0).unwrap(),
        fines: 0,
    }
}

/// Log-transformation op with a per-node corrective-fine hook.
#[derive(Clone, Debug, PartialEq)]
pub enum LtOp {
    /// Deposit/withdrawal (signed).
    Post(i64),
    /// A fine assessed by some node's corrective logic.
    Fine(i64),
}

impl LoggedOp for LtOp {
    type State = i64;
    fn apply(&self, state: &mut i64) {
        match self {
            LtOp::Post(x) => *state += x,
            LtOp::Fine(x) => *state -= x,
        }
    }
}

/// Log transformation: both nodes serve; on merging a remote entry that
/// drives the local view negative, *each node* assesses a fine — the
/// paper's decentralised corrective-action chaos.
fn logtransform_scenario(amount: i64, seed: u64) -> ScenarioOutcome {
    let mut sys: LogTransformSystem<LtOp> = LogTransformSystem::build(
        Topology::full_mesh(2, SimDuration::from_millis(10)),
        LogTransformConfig { seed },
    );
    sys.submit_at(secs(1), NodeId(0), LtOp::Post(300));
    sys.net_change_at(secs(5), NetworkChange::LinkDown(NodeId(0), NodeId(1)));
    // Locally both look fine ($300 on hand), so both withdrawals proceed.
    sys.submit_at(secs(10), NodeId(0), LtOp::Post(-amount));
    sys.submit_at(secs(10), NodeId(1), LtOp::Post(-amount));
    sys.run_until(secs(30));
    let served_a = *sys.state(NodeId(0)) == 300 - amount;
    let served_b = *sys.state(NodeId(1)) == 300 - amount;
    sys.net_change_at(secs(40), NetworkChange::HealAll);

    // Reconciliation with per-node corrective hook: when a *merged remote*
    // entry exposes a negative balance, that node issues a fine. Both
    // nodes run the same policy independently.
    let mut fines = 0u32;
    let mut fined_at: Vec<NodeId> = Vec::new();
    let limit = secs(300);
    while let Some((at, merges)) = sys.step_until(limit) {
        for m in merges {
            let node = m.node;
            if matches!(m.entry.op, LtOp::Post(x) if x < 0)
                && *sys.state(node) < 0
                && !fined_at.contains(&node)
            {
                fined_at.push(node);
                fines += 1;
                sys.submit_at(at + SimDuration(1), node, LtOp::Fine(FINE));
            }
        }
    }
    ScenarioOutcome {
        system: "log transformation".into(),
        amount,
        served_a,
        served_b,
        final_balance_a: *sys.state(NodeId(0)),
        final_balance_b: *sys.state(NodeId(1)),
        fines,
    }
}

/// Fragments and agents (§2 design): both withdrawals served, one
/// centralized fine.
fn fragdb_scenario(amount: i64, seed: u64) -> ScenarioOutcome {
    let cfg = BankConfig {
        accounts: 1,
        slots_per_account: 8,
        central: NodeId(0),
        account_homes: vec![NodeId(0)],
        overdraft_fine: FINE,
    };
    let (catalog, schema, agents) = BankSchema::build(&cfg);
    let mut sys = System::build(
        Topology::full_mesh(2, SimDuration::from_millis(10)),
        catalog,
        agents,
        SystemConfig::unrestricted(seed).with_move_policy(MovePolicy::NoPrep),
    )
    .unwrap();
    let mut bank = BankDriver::new(schema, cfg);

    let dep = bank.deposit(0, 300).unwrap();
    sys.submit_at(secs(1), dep);
    bank.run(&mut sys, secs(5));

    sys.net_change_at(secs(5), NetworkChange::LinkDown(NodeId(0), NodeId(1)));
    let w1 = bank.withdraw(0, amount, false).unwrap();
    sys.submit_at(secs(10), w1);
    bank.run(&mut sys, secs(12));
    let served_a = sys.engine.metrics.counter("abort.logic") == 0;

    // The customer carries the token (card) to node B.
    sys.move_agent_at(secs(13), bank.schema.activity[0], NodeId(1));
    let w2 = bank.withdraw(0, amount, false).unwrap();
    sys.submit_at(secs(14), w2);
    bank.run(&mut sys, secs(20));
    let served_b = sys.engine.metrics.counter("abort.logic") == 0;

    sys.net_change_at(secs(40), NetworkChange::HealAll);
    bank.run(&mut sys, secs(600));

    let bal = bank.schema.bal_objs[0];
    ScenarioOutcome {
        system: "fragments+agents".into(),
        amount,
        served_a,
        served_b,
        final_balance_a: sys.replica(NodeId(0)).read(bal).as_int_or(0).unwrap(),
        final_balance_b: sys.replica(NodeId(1)).read(bal).as_int_or(0).unwrap(),
        fines: bank.letters().len() as u32,
    }
}

/// Run E2: all systems on both scenarios.
pub fn run(seed: u64) -> E2Report {
    let mut outcomes = Vec::new();
    for amount in [100i64, 200] {
        outcomes.push(mutex_scenario(amount, seed));
        outcomes.push(logtransform_scenario(amount, seed));
        outcomes.push(fragdb_scenario(amount, seed));
    }
    E2Report { outcomes }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn find<'a>(r: &'a E2Report, system: &str, amount: i64) -> &'a ScenarioOutcome {
        r.outcomes
            .iter()
            .find(|o| o.system == system && o.amount == amount)
            .expect("cell exists")
    }

    #[test]
    fn mutex_serves_a_denies_b() {
        let r = run(1);
        for amount in [100, 200] {
            let o = find(&r, "mutual exclusion", amount);
            assert!(o.served_a, "customer at the primary is served");
            assert!(!o.served_b, "customer at B goes home empty-handed");
            assert_eq!(o.final_balance_a, 300 - amount);
            assert_eq!(o.final_balance_a, o.final_balance_b, "replicas converge");
            assert_eq!(o.fines, 0);
        }
    }

    #[test]
    fn logtransform_serves_both_and_scenario1_is_consistent() {
        let r = run(2);
        let o = find(&r, "log transformation", 100);
        assert!(o.served_a && o.served_b);
        assert_eq!(o.final_balance_a, 100);
        assert_eq!(o.final_balance_b, 100);
        assert_eq!(o.fines, 0, "no corrective action needed");
    }

    #[test]
    fn logtransform_scenario2_exhibits_decentralized_fine_chaos() {
        let r = run(3);
        let o = find(&r, "log transformation", 200);
        assert!(o.served_a && o.served_b, "free-for-all serves everyone");
        // Both nodes independently discovered the overdraft and fined it:
        // the customer is charged twice — the paper's §1 chaos.
        assert_eq!(o.fines, 2);
        assert_eq!(o.final_balance_a, -100 - 2 * FINE);
        assert_eq!(o.final_balance_a, o.final_balance_b);
    }

    #[test]
    fn fragdb_serves_both_with_one_centralized_fine() {
        let r = run(4);
        let o1 = find(&r, "fragments+agents", 100);
        assert!(o1.served_a && o1.served_b);
        assert_eq!(o1.final_balance_a, 100);
        assert_eq!(o1.fines, 0);

        let o2 = find(&r, "fragments+agents", 200);
        assert!(o2.served_a && o2.served_b, "availability like free-for-all");
        assert_eq!(o2.fines, 1, "exactly one fine, decided at the agent");
        assert_eq!(o2.final_balance_a, -100 - FINE);
        assert_eq!(o2.final_balance_a, o2.final_balance_b, "no chaos");
    }

    #[test]
    fn report_renders() {
        let r = run(5);
        let s = r.to_string();
        assert!(s.contains("served@A"));
        assert_eq!(r.outcomes.len(), 6);
    }
}
