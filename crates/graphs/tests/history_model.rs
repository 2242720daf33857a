//! The packed `History` against a model: a plain `Vec<HistoryOp>` whose
//! `i`-th op has `seq` `i`. Seeded streams record locals and installs
//! interleaved, with instants that step backwards and reach `u64::MAX`,
//! object ids and transaction seqs at `u64::MAX`, sparse seqs over 1 024
//! origins (the shape of the benchmark's traced history pass), and one
//! transaction recorded under two types. After every record the history
//! must read back as the model; at the end its projections must equal the
//! model's renumbered, and both verdict paths must agree on the history
//! and on each projection.

use std::collections::BTreeMap;

use fragdb_graphs::{analyze, IncrementalAnalyzer};
use fragdb_model::{FragmentId, History, HistoryOp, NodeId, ObjectId, OpKind, TxnId, TxnType};
use fragdb_sim::{SimRng, SimTime};

/// A value that is small most of the time and sometimes anywhere up to
/// `u64::MAX`, `u64::MAX` itself included.
fn wide(rng: &mut SimRng, small: u64) -> u64 {
    match rng.gen_range(0..8u32) {
        0 => u64::MAX,
        1 => rng.next_u64(),
        _ => rng.gen_range(0..small),
    }
}

/// The model's transactions: the first type recorded wins.
fn model_transactions(model: &[HistoryOp]) -> BTreeMap<TxnId, TxnType> {
    let mut out = BTreeMap::new();
    for op in model {
        out.entry(op.txn).or_insert(op.ttype);
    }
    out
}

/// The ops of `model` that `keep`, renumbered by their new positions.
fn project(model: &[HistoryOp], keep: impl Fn(&HistoryOp) -> bool) -> Vec<HistoryOp> {
    (model.iter().filter(|op| keep(op)).cloned())
        .enumerate()
        .map(|(i, op)| HistoryOp {
            seq: i as u64,
            ..op
        })
        .collect()
}

/// The batch and incremental verdicts over `history` agree with each
/// other and with an incremental analyzer fed `model` op by op.
fn assert_verdicts_agree(history: &History, model: &[HistoryOp], label: &str) {
    let mut fed = IncrementalAnalyzer::new();
    for op in model {
        fed.observe(op);
    }
    let ingested = IncrementalAnalyzer::from_history(history).verdict();
    assert_eq!(ingested, fed.verdict(), "{label}");
    assert!(ingested.agrees_with(&analyze(history)), "{label}");
}

#[test]
fn the_packed_history_matches_a_vec_of_ops() {
    for seed in 0..6u64 {
        let mut rng = SimRng::new(seed);
        // A pool of transactions with sparse seqs over 1 024 origins; the
        // first is recorded as an update and as a read-only transaction.
        let pool: Vec<(TxnId, TxnType)> = (0..24)
            .map(|_| {
                let origin = NodeId(rng.gen_range(0..1024u32));
                let txn = TxnId::new(origin, wide(&mut rng, 640_000));
                let fragment = FragmentId(rng.gen_range(0..6u32));
                let ttype = if rng.gen_range(0..5u32) == 0 {
                    TxnType::ReadOnly(fragment)
                } else {
                    TxnType::Update(fragment)
                };
                (txn, ttype)
            })
            .collect();
        let (twice, _) = pool[0];
        let mut history = History::new();
        let mut model: Vec<HistoryOp> = Vec::new();
        let mut at = 0u64;
        for i in 0..400 {
            at = match rng.gen_range(0..10u32) {
                0 => u64::MAX,
                1 => at.wrapping_sub(rng.gen_range(0..1_000_000u64)),
                2 => rng.next_u64(),
                _ => at.wrapping_add(rng.gen_range(0..20_000u64)),
            };
            let (txn, mut ttype) = *rng.pick(&pool);
            if txn == twice && i % 2 == 1 {
                ttype = TxnType::ReadOnly(FragmentId(u32::MAX));
            }
            let node = if rng.gen_range(0..16u32) == 0 {
                NodeId(u32::MAX)
            } else {
                NodeId(rng.gen_range(0..8u32))
            };
            let object = ObjectId(wide(&mut rng, 12));
            let seq = model.len() as u64;
            let op = match rng.gen_range(0..3u32) {
                0 => {
                    let s = history.record_install(node, txn, ttype, object, SimTime(at));
                    assert_eq!(s, seq);
                    HistoryOp {
                        node,
                        txn,
                        ttype,
                        kind: OpKind::Write,
                        object,
                        at: SimTime(at),
                        seq,
                        is_install: true,
                    }
                }
                k => {
                    let kind = [OpKind::Read, OpKind::Write][k as usize - 1];
                    let s = history.record_local(node, txn, ttype, kind, object, SimTime(at));
                    assert_eq!(s, seq);
                    HistoryOp {
                        node,
                        txn,
                        ttype,
                        kind,
                        object,
                        at: SimTime(at),
                        seq,
                        is_install: false,
                    }
                }
            };
            model.push(op);
            assert_eq!(history.len(), model.len(), "seed {seed}, op {i}");
            assert_eq!(history.ops().len(), model.len(), "seed {seed}, op {i}");
            assert!(
                history.ops().eq(model.iter().cloned()),
                "seed {seed}, op {i}"
            );
            assert_eq!(history.transactions(), model_transactions(&model));
        }
        assert_verdicts_agree(&history, &model, &format!("seed {seed}"));

        // Projections by type, by fragment and by origin.
        let by_fragment = |f: u32| move |_: TxnId, ty: TxnType| ty.fragment() == FragmentId(f);
        for f in [0, 3, u32::MAX] {
            let projected = history.filter_txns(by_fragment(f));
            let expected = project(&model, |op| by_fragment(f)(op.txn, op.ttype));
            assert!(projected.ops().eq(expected.iter().cloned()), "seed {seed}");
            assert_eq!(projected.len(), expected.len());
            assert_verdicts_agree(&projected, &expected, &format!("seed {seed}, F{f}"));
        }
        let updates = history.filter_txns(|_, ty| ty.is_update());
        let expected = project(&model, |op| op.ttype.is_update());
        assert!(updates.ops().eq(expected.iter().cloned()), "seed {seed}");
        let low = history.filter_txns(|t, _| t.origin.0 < 512);
        let expected = project(&model, |op| op.txn.origin.0 < 512);
        assert!(low.ops().eq(expected.iter().cloned()), "seed {seed}");
        assert_verdicts_agree(&low, &expected, &format!("seed {seed}, low origins"));
    }
}
