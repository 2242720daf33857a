//! The banking application of §1–§2.
//!
//! Fragment design, exactly as Figure 2.1/2.2:
//!
//! * **BALANCES** — one balance object per account; agent: the central
//!   office node.
//! * **ACTIVITY(i)** — per-account deposit/withdrawal records (a bounded
//!   number of entry slots; a deposit of $d writes `+d`, a withdrawal of
//!   $w writes `-w`); agent: the account's owner (a user), initially homed
//!   wherever the customer banks.
//! * **RECORDED(i)** — one boolean per ACTIVITY slot, flipped to `true`
//!   when the central office has posted that operation to BALANCES;
//!   agent: the central office.
//!
//! The *local view of balance* at any node is
//! `balance + Σ unrecorded deposits − Σ unrecorded withdrawals` — computed
//! from that node's replica alone, so withdrawals can be decided at any
//! node regardless of the network (§2's availability claim).
//!
//! [`BankDriver::react`] implements the central-office trigger: when an
//! ACTIVITY update becomes visible at the central node, it posts the
//! amount to BALANCES and flips RECORDED. If posting drives a balance
//! negative, the centralized **corrective action** fires: an overdraft
//! fine and a letter to the customer — decided only at the agent for
//! BALANCES, which is how the paper avoids the divergent-fines chaos
//! of §1.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

use fragdb_core::{Notification, Submission, System};
use fragdb_model::{AgentId, FragmentCatalog, FragmentId, NodeId, ObjectId, UserId, Value};
use fragdb_sim::{SimDuration, SimTime};
use fragdb_storage::Replica;

/// Static banking configuration.
#[derive(Clone, Debug)]
pub struct BankConfig {
    /// Number of accounts.
    pub accounts: u32,
    /// ACTIVITY slots pre-allocated per account (max ops per run).
    pub slots_per_account: u32,
    /// Node hosting the central office (agent of BALANCES and RECORDED).
    pub central: NodeId,
    /// Home node of each account's owner.
    pub account_homes: Vec<NodeId>,
    /// Fine charged when a posting overdraws an account (cents).
    pub overdraft_fine: i64,
}

/// Object layout of the banking schema.
#[derive(Clone, Debug)]
pub struct BankSchema {
    /// The BALANCES fragment.
    pub balances: FragmentId,
    /// Balance object per account.
    pub bal_objs: Vec<ObjectId>,
    /// ACTIVITY(i) fragment per account.
    pub activity: Vec<FragmentId>,
    /// ACTIVITY slots per account.
    pub act_objs: Vec<Vec<ObjectId>>,
    /// RECORDED(i) fragment per account.
    pub recorded: Vec<FragmentId>,
    /// RECORDED slots per account.
    pub rec_objs: Vec<Vec<ObjectId>>,
}

impl BankSchema {
    /// Build the catalog and the agent assignment from a config.
    pub fn build(
        cfg: &BankConfig,
    ) -> (
        FragmentCatalog,
        BankSchema,
        Vec<(FragmentId, AgentId, NodeId)>,
    ) {
        assert_eq!(
            cfg.account_homes.len(),
            cfg.accounts as usize,
            "one home per account"
        );
        let mut b = FragmentCatalog::builder();
        let (balances, bal_objs) = b.add_fragment("BALANCES", cfg.accounts as usize);
        let mut activity = Vec::new();
        let mut act_objs = Vec::new();
        let mut recorded = Vec::new();
        let mut rec_objs = Vec::new();
        for i in 0..cfg.accounts {
            let (f, objs) =
                b.add_fragment(format!("ACTIVITY({i:04})"), cfg.slots_per_account as usize);
            activity.push(f);
            act_objs.push(objs);
            let (f, objs) =
                b.add_fragment(format!("RECORDED({i:04})"), cfg.slots_per_account as usize);
            recorded.push(f);
            rec_objs.push(objs);
        }
        let catalog = b.build();
        let mut agents = vec![(balances, AgentId::Node(cfg.central), cfg.central)];
        for i in 0..cfg.accounts as usize {
            agents.push((
                activity[i],
                AgentId::User(UserId(i as u32)),
                cfg.account_homes[i],
            ));
            agents.push((recorded[i], AgentId::Node(cfg.central), cfg.central));
        }
        let schema = BankSchema {
            balances,
            bal_objs,
            activity,
            act_objs,
            recorded,
            rec_objs,
        };
        (catalog, schema, agents)
    }

    /// The §4.2 transaction-class declarations of the banking schema.
    /// Each ACTIVITY(i) class reads BALANCES and RECORDED(i); the central
    /// posting classes read nothing foreign. The undirected read-access
    /// graph is a forest (a star on BALANCES plus RECORDED leaves), so the
    /// banking design is admissible under §4.2 — a showcase of the
    /// paper's "good database design" claim.
    pub fn decls(&self) -> Vec<fragdb_model::AccessDecl> {
        use fragdb_model::AccessDecl;
        let mut decls = vec![AccessDecl::update(self.balances, [])];
        for i in 0..self.activity.len() {
            decls.push(AccessDecl::update(
                self.activity[i],
                [self.activity[i], self.balances, self.recorded[i]],
            ));
            decls.push(AccessDecl::update(self.recorded[i], []));
        }
        decls
    }

    /// The local view of `account`'s balance at `replica` (§2's formula).
    pub fn local_view(&self, replica: &Replica, account: usize) -> i64 {
        let balance = replica
            .read(self.bal_objs[account])
            .as_int_or(0)
            .expect("balance is an integer");
        let mut unrecorded = 0i64;
        for (k, &slot) in self.act_objs[account].iter().enumerate() {
            let amount = replica
                .read(slot)
                .as_int_or(0)
                .expect("amount is an integer");
            if amount == 0 {
                continue;
            }
            let posted = matches!(replica.read(self.rec_objs[account][k]), Value::Bool(true));
            if !posted {
                unrecorded += amount;
            }
        }
        balance + unrecorded
    }
}

/// One overdraft letter (corrective action evidence).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Letter {
    /// Account concerned.
    pub account: u32,
    /// Balance after the offending posting (before the fine).
    pub balance_before_fine: i64,
    /// Fine charged.
    pub fine: i64,
    /// When the central office assessed it.
    pub at: SimTime,
}

/// The banking driver: submission builders plus the central-office trigger.
pub struct BankDriver {
    /// The schema (public for experiment code).
    pub schema: BankSchema,
    cfg: BankConfig,
    next_slot: Vec<u32>,
    processed: BTreeSet<(u32, u32)>,
    letters: Rc<RefCell<Vec<Letter>>>,
    /// Count of withdrawals refused locally (insufficient local view).
    pub refused: u64,
    declare_reads: bool,
}

impl BankDriver {
    /// Create the driver for a schema built from `cfg`.
    pub fn new(schema: BankSchema, cfg: BankConfig) -> Self {
        let accounts = cfg.accounts as usize;
        BankDriver {
            schema,
            cfg,
            next_slot: vec![0; accounts],
            processed: BTreeSet::new(),
            letters: Rc::new(RefCell::new(Vec::new())),
            refused: 0,
            declare_reads: false,
        }
    }

    /// Declare withdrawals' foreign reads up front, as §4.1 read locking
    /// requires (the declared set is the account's balance plus its
    /// RECORDED slots — everything a withdrawal reads outside its own
    /// ACTIVITY fragment).
    pub fn with_declared_reads(mut self) -> Self {
        self.declare_reads = true;
        self
    }

    /// Letters the central office has sent so far.
    pub fn letters(&self) -> Vec<Letter> {
        self.letters.borrow().clone()
    }

    fn alloc_slot(&mut self, account: u32) -> Option<ObjectId> {
        let k = self.next_slot[account as usize];
        if k >= self.cfg.slots_per_account {
            return None;
        }
        self.next_slot[account as usize] = k + 1;
        Some(self.schema.act_objs[account as usize][k as usize])
    }

    /// A deposit: writes `+amount` into the account's next ACTIVITY slot.
    /// Returns `None` when the account ran out of pre-allocated slots.
    pub fn deposit(&mut self, account: u32, amount: i64) -> Option<Submission> {
        assert!(amount > 0, "deposits are positive");
        let slot = self.alloc_slot(account)?;
        let fragment = self.schema.activity[account as usize];
        Some(Submission::update(
            fragment,
            Box::new(move |ctx| {
                ctx.write(slot, amount)?;
                Ok(())
            }),
        ))
    }

    /// A withdrawal: checks the *local view* at the executing node and, if
    /// sufficient, writes `-amount` into the next ACTIVITY slot. With
    /// `strict`, insufficient local funds abort the transaction; otherwise
    /// the withdrawal is always recorded (the §2 semantics, where the
    /// central office fines overdrafts after the fact).
    pub fn withdraw(&mut self, account: u32, amount: i64, strict: bool) -> Option<Submission> {
        assert!(amount > 0, "withdrawals are positive");
        let slot = self.alloc_slot(account)?;
        let schema = self.schema.clone();
        let fragment = self.schema.activity[account as usize];
        let acct = account as usize;
        let foreign: Vec<fragdb_model::ObjectId> = if self.declare_reads {
            std::iter::once(self.schema.bal_objs[acct])
                .chain(self.schema.rec_objs[acct].iter().copied())
                .collect()
        } else {
            Vec::new()
        };
        Some(
            Submission::update(
                fragment,
                Box::new(move |ctx| {
                    // Compute the local view from this node's replica through
                    // transactional reads (so they enter the history).
                    let balance = ctx.read_int(schema.bal_objs[acct], 0);
                    let mut unrecorded = 0i64;
                    for (k, &s) in schema.act_objs[acct].iter().enumerate() {
                        if s == slot {
                            continue;
                        }
                        let a = ctx.read_int(s, 0);
                        if a == 0 {
                            continue;
                        }
                        let posted =
                            matches!(ctx.read(schema.rec_objs[acct][k]), Value::Bool(true));
                        if !posted {
                            unrecorded += a;
                        }
                    }
                    let view = balance + unrecorded;
                    if strict && view < amount {
                        return Err(
                            ctx.abort(format!("insufficient funds: local view {view} < {amount}"))
                        );
                    }
                    ctx.write(slot, -amount)?;
                    Ok(())
                }),
            )
            .with_foreign_reads(foreign),
        )
    }

    /// The central-office trigger. Call for every notification the system
    /// produces; reacts to ACTIVITY updates becoming visible at the
    /// central node by posting them to BALANCES and RECORDED.
    pub fn react(&mut self, sys: &mut System, at: SimTime, note: &Notification) {
        let account = match note {
            Notification::Installed { node, quasi, .. } if *node == self.cfg.central => {
                self.account_of_activity(quasi.fragment)
            }
            Notification::Committed { node, fragment, .. } if *node == self.cfg.central => {
                self.account_of_activity(*fragment)
            }
            _ => None,
        };
        let Some(account) = account else { return };
        self.post_visible_activity(sys, at, account);
    }

    fn account_of_activity(&self, fragment: FragmentId) -> Option<u32> {
        self.schema
            .activity
            .iter()
            .position(|&f| f == fragment)
            .map(|i| i as u32)
    }

    /// Post every visible-but-unprocessed ACTIVITY entry of `account`.
    fn post_visible_activity(&mut self, sys: &mut System, at: SimTime, account: u32) {
        let acct = account as usize;
        let central = self.cfg.central;
        let mut to_post = Vec::new();
        {
            let replica = sys.replica(central);
            for (k, &slot) in self.schema.act_objs[acct].iter().enumerate() {
                let amount = replica.read(slot).as_int_or(0).expect("amount is integer");
                if amount == 0 || self.processed.contains(&(account, k as u32)) {
                    continue;
                }
                to_post.push((k as u32, amount));
            }
        }
        for (k, amount) in to_post {
            self.processed.insert((account, k));
            let bal_obj = self.schema.bal_objs[acct];
            let rec_obj = self.schema.rec_objs[acct][k as usize];
            let fine = self.cfg.overdraft_fine;
            let letters = Rc::clone(&self.letters);
            // Posting transaction on BALANCES (single-fragment, per the
            // initiation requirement; RECORDED is flipped by a sibling
            // transaction — the paper's multi-fragment workaround).
            sys.submit_at(
                at + SimDuration(1),
                Submission::update(
                    self.schema.balances,
                    Box::new(move |ctx| {
                        let bal = ctx.read_int(bal_obj, 0);
                        let mut new = bal + amount;
                        if new < 0 {
                            letters.borrow_mut().push(Letter {
                                account,
                                balance_before_fine: new,
                                fine,
                                at: ctx.now(),
                            });
                            new -= fine;
                        }
                        ctx.write(bal_obj, new)?;
                        Ok(())
                    }),
                ),
            );
            sys.submit_at(
                at + SimDuration(2),
                Submission::update(
                    self.schema.recorded[acct],
                    Box::new(move |ctx| {
                        ctx.write(rec_obj, true)?;
                        Ok(())
                    }),
                ),
            );
        }
    }

    /// Pump the system to `limit`, running the trigger on every
    /// notification. Returns all notifications seen.
    pub fn run(&mut self, sys: &mut System, limit: SimTime) -> Vec<Notification> {
        let mut all = Vec::new();
        while let Some((at, notes)) = sys.step_until(limit) {
            for n in &notes {
                self.react(sys, at, n);
            }
            all.extend(notes);
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fragdb_core::SystemConfig;
    use fragdb_net::{NetworkChange, Topology};

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn two_node_bank(seed: u64) -> (System, BankDriver) {
        let cfg = BankConfig {
            accounts: 1,
            slots_per_account: 8,
            central: NodeId(0),
            account_homes: vec![NodeId(1)],
            overdraft_fine: 50,
        };
        let (catalog, schema, agents) = BankSchema::build(&cfg);
        let sys = System::build(
            Topology::full_mesh(2, SimDuration::from_millis(10)),
            catalog,
            agents,
            SystemConfig::unrestricted(seed),
        )
        .unwrap();
        (sys, BankDriver::new(schema, cfg))
    }

    #[test]
    fn deposit_is_posted_by_central_office() {
        let (mut sys, mut bank) = two_node_bank(1);
        let dep = bank.deposit(0, 300).unwrap();
        sys.submit_at(secs(1), dep);
        bank.run(&mut sys, secs(30));
        // Balance posted at the central office and propagated back.
        for n in 0..2u32 {
            assert_eq!(
                sys.replica(NodeId(n)).read(bank.schema.bal_objs[0]),
                &Value::Int(300)
            );
        }
        // Once recorded, the local view equals the balance.
        assert_eq!(bank.schema.local_view(sys.replica(NodeId(1)), 0), 300);
        assert!(bank.letters().is_empty());
    }

    #[test]
    fn local_view_counts_unrecorded_activity() {
        let (mut sys, mut bank) = two_node_bank(2);
        // Cut the network: the deposit commits at node 1 but never reaches
        // the central office.
        sys.net_change_at(SimTime::ZERO, NetworkChange::LinkDown(NodeId(0), NodeId(1)));
        let dep = bank.deposit(0, 200).unwrap();
        sys.submit_at(secs(1), dep);
        bank.run(&mut sys, secs(30));
        assert_eq!(
            bank.schema.local_view(sys.replica(NodeId(1)), 0),
            200,
            "node 1 sees its own unrecorded deposit"
        );
        assert_eq!(
            bank.schema.local_view(sys.replica(NodeId(0)), 0),
            0,
            "central office hasn't seen it"
        );
    }

    #[test]
    fn paper_scenario_two_200_withdrawals_fined_once_centrally() {
        // §2: balance $300; two withdrawals of $200 during a partition.
        // Both are granted (availability); on heal the central office
        // discovers the overdraft and fines it exactly once.
        let cfg = BankConfig {
            accounts: 1,
            slots_per_account: 8,
            central: NodeId(0),
            account_homes: vec![NodeId(0)], // customer banks at A first
            overdraft_fine: 50,
        };
        let (catalog, schema, agents) = BankSchema::build(&cfg);
        let mut sys = System::build(
            Topology::full_mesh(2, SimDuration::from_millis(10)),
            catalog,
            agents,
            SystemConfig::unrestricted(3).with_move_policy(fragdb_core::MovePolicy::NoPrep),
        )
        .unwrap();
        let mut bank = BankDriver::new(schema, cfg);

        // Fund the account, fully posted.
        let dep = bank.deposit(0, 300).unwrap();
        sys.submit_at(secs(1), dep);
        bank.run(&mut sys, secs(10));

        // Partition; withdrawal at A (the customer is at node 0).
        sys.net_change_at(secs(10), NetworkChange::LinkDown(NodeId(0), NodeId(1)));
        let w1 = bank.withdraw(0, 200, false).unwrap();
        sys.submit_at(secs(11), w1);
        bank.run(&mut sys, secs(15));
        // The customer (token holder) goes to node B and withdraws again.
        sys.move_agent_at(secs(16), bank.schema.activity[0], NodeId(1));
        let w2 = bank.withdraw(0, 200, false).unwrap();
        sys.submit_at(secs(17), w2);
        bank.run(&mut sys, secs(20));

        // Both withdrawals were served: availability.
        assert!(sys.engine.metrics.counter("txn.committed") >= 3);

        // Heal: the second withdrawal reaches the central office, which
        // posts it, discovers the overdraft, and fines it.
        sys.net_change_at(secs(30), NetworkChange::HealAll);
        bank.run(&mut sys, secs(120));
        let letters = bank.letters();
        assert_eq!(letters.len(), 1, "exactly one centralized fine");
        assert_eq!(letters[0].balance_before_fine, -100);
        // Final balance: 300 - 200 - 200 - 50 = -150, identical everywhere.
        for n in 0..2u32 {
            assert_eq!(
                sys.replica(NodeId(n)).read(bank.schema.bal_objs[0]),
                &Value::Int(-150)
            );
        }
        assert!(sys.divergent_fragments().is_empty());
    }

    #[test]
    fn strict_withdrawal_refused_when_local_view_insufficient() {
        let (mut sys, mut bank) = two_node_bank(4);
        let w = bank.withdraw(0, 100, true).unwrap();
        sys.submit_at(secs(1), w);
        let notes = bank.run(&mut sys, secs(10));
        assert!(notes.iter().any(|n| matches!(
            n,
            Notification::Aborted {
                reason: fragdb_core::AbortReason::Logic(_),
                ..
            }
        )));
        assert_eq!(bank.schema.local_view(sys.replica(NodeId(1)), 0), 0);
    }

    #[test]
    fn slots_exhaust_gracefully() {
        let cfg = BankConfig {
            accounts: 1,
            slots_per_account: 2,
            central: NodeId(0),
            account_homes: vec![NodeId(1)],
            overdraft_fine: 0,
        };
        let (_, schema, _) = BankSchema::build(&cfg);
        let mut bank = BankDriver::new(schema, cfg);
        assert!(bank.deposit(0, 1).is_some());
        assert!(bank.deposit(0, 1).is_some());
        assert!(bank.deposit(0, 1).is_none());
    }
}
