//! Differential tests: the incremental analyzer must agree with the
//! batch oracle (`fragdb_graphs::analyze`) on every prefix of seeded
//! random histories — including histories engineered to exercise the
//! paper's counterexamples (divergent install orders, torn reads, the
//! §4.3 three-transaction cycle).

use fragdb_graphs::{analyze, IncrementalAnalyzer};
use fragdb_model::{FragmentId, History, NodeId, ObjectId, OpKind, TxnId, TxnType};
use fragdb_sim::SimTime;

/// Rebuild a fresh history from the first `n` ops of `h` (sequence
/// numbers are re-assigned identically because the order is preserved).
fn prefix(h: &History, n: usize) -> History {
    let mut out = History::new();
    for op in h.ops().take(n) {
        if op.is_install {
            out.record_install(op.node, op.txn, op.ttype, op.object, op.at);
        } else {
            out.record_local(op.node, op.txn, op.ttype, op.kind, op.object, op.at);
        }
    }
    out
}

/// Assert incremental == batch on every prefix of `h`, feeding the
/// incremental analyzer one op at a time.
fn assert_agreement_on_all_prefixes(h: &History, label: &str) {
    let mut inc = IncrementalAnalyzer::new();
    for n in 0..=h.len() {
        if n > 0 {
            inc.observe(&h.ops().nth(n - 1).expect("n ops"));
        }
        let batch = analyze(&prefix(h, n));
        let v = inc.verdict();
        assert!(
            v.agrees_with(&batch),
            "{label}: divergence at prefix {n}/{}:\n incremental: {v:?}\n batch gsg={} p1={:?} p2={:?}",
            h.len(),
            batch.globally_serializable,
            batch.fragmentwise.property1_violations,
            batch.fragmentwise.property2_violations,
        );
    }
}

/// Seeded xorshift64* — the same in-tree generator the other property
/// tests use; no external RNG crates are available.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0 = self.0.wrapping_mul(0x2545_F491_4F6C_DD1D);
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Random histories: a few nodes, objects, and transactions; writes at a
/// transaction's home node plus installs at random other nodes (possibly
/// out of order across nodes — the §4.4.3 regime), reads everywhere.
fn random_history(seed: u64) -> History {
    let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let nodes = 2 + rng.below(3) as u32;
    let objects = 1 + rng.below(4);
    let frags = 1 + rng.below(3) as u32;
    let txns = 2 + rng.below(6);
    let ops = 10 + rng.below(50);

    let mut h = History::new();
    for i in 0..ops {
        let t = rng.below(txns);
        let home = NodeId((t % nodes as u64) as u32);
        let txn = TxnId::new(home, t / nodes as u64);
        let frag = FragmentId((t % frags as u64) as u32);
        let ttype = if rng.below(5) == 0 {
            TxnType::ReadOnly(frag)
        } else {
            TxnType::Update(frag)
        };
        let obj = ObjectId(rng.below(objects));
        match rng.below(3) {
            0 => {
                // Read at a random node.
                let at = NodeId(rng.below(nodes as u64) as u32);
                h.record_local(at, txn, ttype, OpKind::Read, obj, SimTime(i));
            }
            1 => {
                // Home write.
                h.record_local(home, txn, ttype, OpKind::Write, obj, SimTime(i));
            }
            _ => {
                // Install at a random non-home node.
                let mut at = NodeId(rng.below(nodes as u64) as u32);
                if at == home {
                    at = NodeId((at.0 + 1) % nodes);
                }
                h.record_install(at, txn, ttype, obj, SimTime(i));
            }
        }
    }
    h
}

#[test]
fn incremental_agrees_with_batch_on_random_histories() {
    for seed in 0..40u64 {
        let h = random_history(seed);
        assert_agreement_on_all_prefixes(&h, &format!("seed {seed}"));
    }
}

#[test]
fn incremental_agrees_on_paper_4_3_cycle() {
    // The §4.3 interleaving that is fragmentwise but not globally
    // serializable: T2 → T1 → T3 → T2.
    let t1 = TxnId::new(NodeId(1), 0);
    let t2 = TxnId::new(NodeId(2), 0);
    let t3 = TxnId::new(NodeId(3), 0);
    let (a, b, c) = (ObjectId(1), ObjectId(2), ObjectId(3));
    let upd = |i: u32| TxnType::Update(FragmentId(i));
    let mut h = History::new();
    h.record_local(NodeId(3), t3, upd(3), OpKind::Read, c, SimTime(0));
    h.record_local(NodeId(3), t3, upd(3), OpKind::Write, c, SimTime(1));
    h.record_install(NodeId(2), t3, upd(3), c, SimTime(2));
    h.record_local(NodeId(2), t2, upd(2), OpKind::Read, c, SimTime(3));
    h.record_local(NodeId(2), t2, upd(2), OpKind::Write, b, SimTime(4));
    h.record_install(NodeId(1), t2, upd(2), b, SimTime(5));
    h.record_local(NodeId(1), t1, upd(1), OpKind::Read, c, SimTime(6));
    h.record_local(NodeId(1), t1, upd(1), OpKind::Read, b, SimTime(7));
    h.record_local(NodeId(1), t1, upd(1), OpKind::Write, a, SimTime(8));
    h.record_install(NodeId(1), t3, upd(3), c, SimTime(9));
    assert_agreement_on_all_prefixes(&h, "paper §4.3 cycle");
    let v = IncrementalAnalyzer::from_history(&h).verdict();
    assert!(!v.globally_serializable);
    assert!(v.fragmentwise_serializable());
}

#[test]
fn incremental_flags_divergent_install_orders() {
    // Property 1 violation: two nodes install a fragment's updates in
    // opposite orders.
    let f = FragmentId(0);
    let t1 = TxnId::new(NodeId(0), 0);
    let t2 = TxnId::new(NodeId(0), 1);
    let mut h = History::new();
    h.record_install(NodeId(1), t1, TxnType::Update(f), ObjectId(1), SimTime(1));
    h.record_install(NodeId(1), t2, TxnType::Update(f), ObjectId(1), SimTime(2));
    h.record_install(NodeId(2), t2, TxnType::Update(f), ObjectId(1), SimTime(3));
    h.record_install(NodeId(2), t1, TxnType::Update(f), ObjectId(1), SimTime(4));
    assert_agreement_on_all_prefixes(&h, "divergent installs");
    let inc = IncrementalAnalyzer::from_history(&h);
    let v = inc.verdict();
    assert_eq!(
        v.property1_violations.into_iter().collect::<Vec<_>>(),
        vec![f]
    );
    assert!(!v.globally_serializable, "w-w chains disagree");
}

#[test]
fn incremental_flags_torn_reads() {
    // Property 2 violation: reader sees object 1 before the install and
    // object 2 after it.
    let u = TxnId::new(NodeId(0), 0);
    let r = TxnId::new(NodeId(1), 0);
    let f = FragmentId(0);
    let ro = TxnType::ReadOnly(FragmentId(1));
    let mut h = History::new();
    h.record_local(NodeId(1), r, ro, OpKind::Read, ObjectId(1), SimTime(1));
    h.record_install(NodeId(1), u, TxnType::Update(f), ObjectId(1), SimTime(2));
    h.record_install(NodeId(1), u, TxnType::Update(f), ObjectId(2), SimTime(2));
    h.record_local(NodeId(1), r, ro, OpKind::Read, ObjectId(2), SimTime(3));
    assert_agreement_on_all_prefixes(&h, "torn read");
    let inc = IncrementalAnalyzer::from_history(&h);
    let v = inc.verdict();
    assert_eq!(
        v.property2_violations.into_iter().collect::<Vec<_>>(),
        vec![(r, u, NodeId(1))]
    );
}

#[test]
fn ingest_consumes_only_new_ops() {
    let mut h = History::new();
    let t = TxnId::new(NodeId(0), 0);
    let ty = TxnType::Update(FragmentId(0));
    h.record_local(NodeId(0), t, ty, OpKind::Write, ObjectId(0), SimTime(0));
    let mut inc = IncrementalAnalyzer::new();
    assert_eq!(inc.ingest(&h), 1);
    assert_eq!(inc.ingest(&h), 0);
    h.record_install(NodeId(1), t, ty, ObjectId(0), SimTime(1));
    assert_eq!(inc.ingest(&h), 1);
    assert_eq!(inc.ops_seen(), 2);
    assert!(inc.verdict().agrees_with(&analyze(&h)));
}

/// Transaction-shaped histories at scale. Fragment `f` owns the objects
/// `o` with `o % 3 == f` and is homed at node `f`. An updater writes two
/// to four of its fragment's objects at home and then installs them at
/// the other nodes; a reader takes three to five reads of any objects at
/// one node. Two to six transactions interleave their ops. On odd seeds
/// a fragment has one updater at a time, as under its agent, so installs
/// reach every node in one order; on even seeds updaters race. On seeds
/// 3 mod 4 a transaction's ops at one node also run back to back, so no
/// read is torn and the history stays fragmentwise serializable.
fn scaled_history(seed: u64, ops: usize) -> History {
    let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let objects = 6 + rng.below(12);
    let width = 2 + rng.below(5) as usize;
    type Step = (NodeId, OpKind, ObjectId, bool);
    let mut active: Vec<(TxnId, TxnType, Vec<Step>)> = Vec::new();
    let mut h = History::new();
    let mut next = 0;
    while h.len() < ops {
        while active.len() < width {
            let frag = FragmentId(rng.below(3) as u32);
            let home = NodeId(frag.0);
            let txn = TxnId::new(home, next);
            next += 1;
            let busy = seed % 2 == 1 && active.iter().any(|&(_, t, _)| t == TxnType::Update(frag));
            let mut steps: Vec<Step> = Vec::new();
            let ttype = if !busy && rng.below(2) == 0 {
                let writes: Vec<ObjectId> = (0..2 + rng.below(3))
                    .map(|_| ObjectId(rng.below(objects / 3) * 3 + frag.0 as u64))
                    .collect();
                if rng.below(2) == 0 {
                    steps.push((home, OpKind::Read, ObjectId(rng.below(objects)), false));
                }
                steps.extend(writes.iter().map(|&o| (home, OpKind::Write, o, false)));
                for n in (0..3).map(NodeId).filter(|&n| n != home) {
                    steps.extend(writes.iter().map(|&o| (n, OpKind::Write, o, true)));
                }
                TxnType::Update(frag)
            } else {
                let at = NodeId(rng.below(3) as u32);
                for _ in 0..3 + rng.below(3) {
                    steps.push((at, OpKind::Read, ObjectId(rng.below(objects)), false));
                }
                TxnType::ReadOnly(frag)
            };
            steps.reverse();
            active.push((txn, ttype, steps));
        }
        let i = rng.below(active.len() as u64) as usize;
        let (txn, ttype, steps) = &mut active[i];
        let node = steps.last().expect("active scripts are non-empty").0;
        let burst = match seed % 4 {
            3 => steps.iter().rev().take_while(|s| s.0 == node).count(),
            _ => 1,
        };
        for (node, kind, object, install) in steps.drain(steps.len() - burst..).rev() {
            let at = SimTime(h.len() as u64);
            if install {
                h.record_install(node, *txn, *ttype, object, at);
            } else {
                h.record_local(node, *txn, *ttype, kind, object, at);
            }
        }
        if steps.is_empty() {
            active.swap_remove(i);
        }
    }
    h
}

#[test]
fn incremental_agrees_with_batch_on_scaled_histories() {
    let (mut torn, mut clean) = (0, 0);
    for seed in 0..8u64 {
        let h = scaled_history(seed, 2_000 + 100 * seed as usize);
        let mut inc = IncrementalAnalyzer::new();
        for (i, op) in h.ops().enumerate() {
            inc.observe(&op);
            let n = i + 1;
            if n % 100 == 0 || n == h.len() {
                let batch = analyze(&prefix(&h, n));
                assert!(
                    inc.verdict().agrees_with(&batch),
                    "seed {seed}: divergence at prefix {n}/{}:\n incremental: {:?}\n batch gsg={} p1={:?} p2={:?}",
                    h.len(),
                    inc.verdict(),
                    batch.globally_serializable,
                    batch.fragmentwise.property1_violations,
                    batch.fragmentwise.property2_violations,
                );
            }
        }
        let v = inc.verdict();
        torn += v.property2_violations.len();
        clean += usize::from(v.fragmentwise_serializable());
    }
    assert!(torn > 0, "the scaled histories never tear a read");
    assert!(
        clean > 0,
        "every scaled history breaks fragmentwise serializability"
    );
}
