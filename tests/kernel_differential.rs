//! Kernel differentials: the hot structures must be observationally
//! identical to a reference that shares no code with them.
//!
//! Two layers, both driven by seeded histories:
//!
//! * **Event queue** — the engine (a `BinaryHeap` beside a FIFO run of
//!   in-order schedules, keyed `(at, seq)`) versus an oracle that is not a
//!   heap: a plain unsorted `Vec` whose pop is a linear scan for the
//!   smallest `(at, seq)`. Random mixes of single schedules (1 µs –
//!   4 000 s ahead), same-instant bursts, `pop`, `pop_until`, `mc_pending`
//!   listings and `mc_take`, then a phase that holds 20 000 events pending
//!   while scheduling 10 ms ahead — the shape the 1024-node benchmark
//!   workloads give the queue. Every returned event and the clock after
//!   every call must match.
//! * **Full system** — chaos runs (random link faults, a crash/recovery
//!   cycle) over the new kernel: the same seed must reproduce the exact
//!   history twice, every replica pair must agree on every fragment
//!   digest, the history must stay fragmentwise serializable, and each
//!   replica's dense store must digest identically to a `BTreeStore`
//!   oracle rebuilt from its contents (old layout vs new layout on real
//!   histories, not synthetic ones).

use fragdb::core::{Notification, Submission, System, SystemConfig};
use fragdb::model::{AgentId, FragmentCatalog, HistoryOp, NodeId, UserId};
use fragdb::net::{FaultConfig, FaultPlan, Topology};
use fragdb::sim::{Engine, SimDuration, SimRng, SimTime};
use fragdb::storage::BTreeStore;

const SEEDS: u64 = 20;

// ---- event-queue differential -------------------------------------------

/// Reference model of the scheduler: pending events in arrival order, the
/// next one found by scanning. It stamps `seq` the way the engine does (one
/// counter, one step per schedule), which `mc_pending` lets the test verify.
#[derive(Default)]
struct ScanModel {
    pending: Vec<(SimTime, u64, u32)>,
    now: SimTime,
    next_seq: u64,
}

impl ScanModel {
    fn schedule(&mut self, at: SimTime, payload: u32) {
        self.pending.push((at, self.next_seq, payload));
        self.next_seq += 1;
    }

    fn next_index(&self) -> Option<usize> {
        let earliest = self.pending.iter().enumerate();
        Some(earliest.min_by_key(|&(_, &(at, seq, _))| (at, seq))?.0)
    }

    fn pop(&mut self) -> Option<(SimTime, u32)> {
        let (at, _, payload) = self.pending.swap_remove(self.next_index()?);
        self.now = at;
        Some((at, payload))
    }

    fn pop_until(&mut self, limit: SimTime) -> Option<(SimTime, u32)> {
        match self.next_index() {
            Some(i) if self.pending[i].0 <= limit => self.pop(),
            _ => {
                self.now = self.now.max(limit);
                None
            }
        }
    }

    fn take(&mut self, seq: u64) -> Option<(SimTime, u32)> {
        let i = self.pending.iter().position(|&(_, s, _)| s == seq)?;
        let (at, _, payload) = self.pending.swap_remove(i);
        self.now = self.now.max(at);
        Some((self.now, payload))
    }

    fn sorted(&self) -> Vec<(SimTime, u64, u32)> {
        let mut all = self.pending.clone();
        all.sort_unstable();
        all
    }
}

/// The engine and the model side by side; every call goes to both and
/// asserts the same answer and the same clock.
struct Pair {
    eng: Engine<u32>,
    model: ScanModel,
    seed: u64,
    payload: u32,
}

impl Pair {
    fn schedule(&mut self, at: SimTime) {
        self.model.schedule(at, self.payload);
        self.eng.schedule_at(at, self.payload);
        self.payload += 1;
    }

    fn check_clock(&self, what: &str) {
        let seed = self.seed;
        assert_eq!(
            self.eng.now(),
            self.model.now,
            "seed {seed:#x}: clock after {what}"
        );
        assert_eq!(self.eng.pending(), self.model.pending.len());
    }

    fn pop(&mut self) {
        let got = self.eng.pop();
        assert_eq!(got, self.model.pop(), "seed {:#x}: pop diverged", self.seed);
        self.check_clock("pop");
    }

    fn pop_until(&mut self, limit: SimTime) {
        let got = self.eng.pop_until(limit);
        let want = self.model.pop_until(limit);
        assert_eq!(got, want, "seed {:#x}: pop_until({limit:?})", self.seed);
        self.check_clock(if got.is_some() {
            "pop_until hit"
        } else {
            "pop_until miss"
        });
    }

    fn take(&mut self, seq: u64) {
        let got = self.eng.mc_take(seq);
        assert_eq!(
            got,
            self.model.take(seq),
            "seed {:#x}: mc_take({seq})",
            self.seed
        );
        self.check_clock("mc_take");
    }

    fn check_listing(&self) {
        let listed: Vec<(SimTime, u64, u32)> = self
            .eng
            .mc_pending()
            .into_iter()
            .map(|(at, seq, &p)| (at, seq, p))
            .collect();
        assert_eq!(
            listed,
            self.model.sorted(),
            "seed {:#x}: mc_pending",
            self.seed
        );
    }
}

/// Longest delay drawn, in microseconds: the spectrum is 1 µs – 4 000 s.
const SPECTRUM: u64 = 4_000_000_000;

/// Drive the engine and the scan model through one seeded history.
fn queue_history(seed: u64) {
    let mut rng = SimRng::new(seed);
    let mut q = Pair {
        eng: Engine::new(seed),
        model: ScanModel::default(),
        seed,
        payload: 0,
    };

    for op in 0..2_000 {
        // Once, while the population is still a few hundred: take a random
        // pending event out of order. The clock becomes `max(now, at)`,
        // which can leave earlier events behind it; `pop` asserts the clock
        // never runs backwards, so those are consumed the way a model
        // checker consumes them — by further takes, in model order. The
        // remaining 1 800 ops then run on the heap the takes rebuilt.
        if op == 200 {
            let pick = rng.gen_range(0..q.model.pending.len() as u64) as usize;
            let victim = q.model.pending[pick].1;
            q.take(victim);
            q.check_listing();
            assert_eq!(q.eng.mc_take(victim), None, "already taken");
            for (at, seq, _) in q.model.sorted() {
                if at >= q.model.now {
                    break;
                }
                q.take(seq);
            }
        }
        match rng.gen_range(0..100u64) {
            0..=39 => q.schedule(q.eng.now() + SimDuration(rng.gen_range(1..SPECTRUM))),
            // Same-instant burst: must come back FIFO by `seq`.
            40..=44 => {
                let at = q.eng.now() + SimDuration(rng.gen_range(1..SPECTRUM));
                for _ in 0..rng.gen_range(2..51u64) {
                    q.schedule(at);
                }
            }
            // A horizon between now and the farthest pending instant, on a
            // log scale so that it falls short of the next event (the miss
            // path) about as often as it reaches it.
            45..=54 => {
                let now = q.eng.now();
                let far = q.model.pending.iter().map(|e| e.0).max().unwrap_or(now);
                let ahead = rng.gen_range(0..far.0 - now.0 + 1) >> rng.gen_range(0..32u64);
                q.pop_until(now + SimDuration(ahead));
            }
            55 => q.check_listing(),
            _ => q.pop(),
        }
    }

    // A deep queue: top up to 20 000 pending across the whole spectrum,
    // then pop while scheduling one or two events 10 ms ahead, as a message
    // hop and its ack do.
    while q.model.pending.len() < 20_000 {
        q.schedule(q.eng.now() + SimDuration(rng.gen_range(1..SPECTRUM)));
    }
    for _ in 0..100 {
        q.pop();
        for _ in 0..rng.gen_range(1..3u64) {
            q.schedule(q.eng.now() + SimDuration::from_millis(10));
        }
    }
    assert!(q.model.pending.len() >= 20_000);
    q.check_listing();

    // Drain to the end: the tail must agree too. (Against the model's
    // sorted listing: 20 000 linear scans of 20 000 would dominate the
    // suite, and `check_listing` has just tied the two together.)
    for (at, _, payload) in q.model.sorted() {
        assert_eq!(
            q.eng.pop(),
            Some((at, payload)),
            "seed {seed:#x}: drain diverged"
        );
    }
    assert_eq!(q.eng.pop(), None);
}

#[test]
fn queue_matches_heap_model_on_seeded_histories() {
    for s in 0..SEEDS {
        queue_history(0x9e37_79b9 ^ (s * 0x1234_5677 + 1));
    }
}

// ---- full-system differential -------------------------------------------

struct ChaosDigest {
    ops: Vec<HistoryOp>,
    divergent: usize,
    fragmentwise: bool,
    committed: u64,
    /// One digest per (node, fragment): dense store vs rebuilt oracle.
    store_digests: Vec<(u64, u64)>,
}

/// A 5-node chaos run: 4 fragments, random per-seed fault plan, node 4
/// crashing and recovering mid-run. Returns everything the differential
/// needs to compare layouts and replays.
fn chaos_digest(seed: u64) -> ChaosDigest {
    let mut plan_rng = SimRng::new(seed ^ 0xD1FF_0000);
    let plan = FaultPlan::new(
        plan_rng.gen_range(0..25u64) as f64 / 100.0,
        plan_rng.gen_range(0..25u64) as f64 / 100.0,
        SimDuration::from_millis(plan_rng.gen_range(0..40u64)),
    );

    let mut b = FragmentCatalog::builder();
    let frags: Vec<_> = (0..4).map(|i| b.add_fragment(format!("F{i}"), 3)).collect();
    let catalog = b.build();
    let agents = frags
        .iter()
        .enumerate()
        .map(|(i, &(f, _))| (f, AgentId::User(UserId(i as u32)), NodeId(i as u32)))
        .collect();
    let mut sys = System::build(
        Topology::full_mesh(5, SimDuration::from_millis(10)),
        catalog,
        agents,
        SystemConfig::unrestricted(seed).with_faults(FaultConfig::uniform(plan)),
    )
    .unwrap();

    let horizon = 30u64;
    for (fi, (f, objs)) in frags.iter().enumerate() {
        let (f, objs) = (*f, objs.clone());
        for k in 0..horizon / 3 {
            let obj = objs[k as usize % objs.len()];
            sys.submit_at(
                SimTime::from_secs(3 * k + fi as u64 + 1),
                Submission::update(
                    f,
                    Box::new(move |ctx| {
                        let v = ctx.read_int(obj, 0);
                        ctx.write(obj, v + 1)?;
                        Ok(())
                    }),
                ),
            );
        }
    }
    sys.crash_at(SimTime::from_secs(12), NodeId(4));
    sys.recover_at(SimTime::from_secs(20), NodeId(4));

    let mut committed = 0u64;
    let limit = SimTime::from_secs(horizon + 300);
    while let Some((_, notes)) = sys.step_until(limit) {
        for note in notes {
            if matches!(note, Notification::Committed { .. }) {
                committed += 1;
            }
        }
    }

    // Rebuild each replica's contents in the old map-of-records layout
    // and digest both over the same key set.
    let mut store_digests = Vec::new();
    let all_objects: Vec<_> = frags.iter().flat_map(|(_, objs)| objs.clone()).collect();
    for node in 0..5u32 {
        let store = sys.replica(NodeId(node)).store();
        let mut oracle = BTreeStore::new();
        for &o in &all_objects {
            if let Some(rec) = store.version(o) {
                oracle.put(
                    o,
                    rec.value.clone(),
                    rec.writer.expect("written objects have a writer"),
                    rec.installed_at,
                );
            }
        }
        assert_eq!(
            store.len(),
            oracle.len(),
            "node {node}: oracle must cover every written object"
        );
        store_digests.push((store.digest_all(), oracle.digest_all()));
        store_digests.push((store.digest(&all_objects), oracle.digest(&all_objects)));
    }

    let verdict = fragdb::graphs::analyze(&sys.history);
    ChaosDigest {
        ops: sys.history.ops().to_vec(),
        divergent: sys.divergent_fragments().len(),
        fragmentwise: verdict.fragmentwise_serializable(),
        committed,
        store_digests,
    }
}

#[test]
fn chaos_histories_agree_across_layouts_and_replays() {
    for s in 0..SEEDS {
        let seed = 0xD1FF_C0DE ^ (s * 0x517c_c1b7 + 1);
        let a = chaos_digest(seed);
        assert_eq!(a.divergent, 0, "seed {seed:#x}: replicas diverged");
        assert!(a.fragmentwise, "seed {seed:#x}: history not fragmentwise");
        assert!(a.committed > 0, "seed {seed:#x}: nothing committed");
        for (i, &(dense, oracle)) in a.store_digests.iter().enumerate() {
            assert_eq!(
                dense, oracle,
                "seed {seed:#x}: store layout digest mismatch at probe {i}"
            );
        }
        // Replay determinism: the same seed must reproduce the identical
        // history through the new queue, op for op.
        let b = chaos_digest(seed);
        assert_eq!(a.ops, b.ops, "seed {seed:#x}: replay diverged");
    }
}
