//! Golden-trace determinism: the performance and simplicity work
//! (Arc-shared payloads, incremental checkers, the WAL's one index, the
//! one install path) must not perturb execution.
//!
//! Each seeded configuration is fingerprinted three ways (FNV-1a): its
//! telemetry export, its recorded history, and every replica's WAL in log
//! order (`txn fragment epoch frag_seq` per entry, node by node). The
//! three hashes are pinned to constants, so a refactor that changes what
//! runs, what is recorded or what is logged fails here even when it is
//! deterministic; a second run of the same seed must reproduce them, and
//! the incremental analyzer — the "new path" — must return the exact same
//! verdict as the batch oracle on every recorded history. The checkers are
//! post-hoc, so any divergence here means a change altered observable
//! behaviour, not just speed. A change that means to alter it re-pins the
//! constants and says why.

use fragdb::core::{Submission, System, SystemConfig};
use fragdb::model::{AgentId, FragmentCatalog, FragmentId, NodeId, ObjectId, UserId};
use fragdb::net::{FaultConfig, FaultPlan, Topology};
use fragdb::sim::{SimDuration, SimRng, SimTime, Telemetry};
use fragdb::workloads::{arrivals, partitions};

const GOLDEN_SEED: u64 = 42;

fn secs(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

/// FNV-1a, 64-bit: the standard offset basis and prime.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The run's fingerprint: hashes of the telemetry stream's JSONL export,
/// of the recorded history and of every replica's WAL, plus both
/// checkers' verdicts.
struct Fingerprint {
    trace_hash: u64,
    history_hash: u64,
    wal_hash: u64,
    trace_len: usize,
    ops: usize,
    batch: fragdb::graphs::Verdict,
    incremental: fragdb::graphs::IncrementalVerdict,
}

fn fingerprint(mut sys: System, limit: SimTime) -> Fingerprint {
    sys.engine.telemetry = Telemetry::bounded(200_000);
    while sys.step_until(limit).is_some() {}
    let rendered = sys.engine.telemetry.render_jsonl();
    let mut h = String::new();
    for op in sys.history.ops() {
        h.push_str(&format!("{op:?}\n"));
    }
    let mut wal = String::new();
    for n in 0..sys.node_count() {
        wal.push_str(&format!("node {n}\n"));
        for e in sys.replica(NodeId(n)).wal().entries() {
            wal.push_str(&format!(
                "{}.{} {} {} {}\n",
                e.txn.origin.0, e.txn.seq, e.fragment.0, e.epoch, e.frag_seq
            ));
        }
    }
    let batch = fragdb::graphs::analyze(&sys.history);
    let incremental = fragdb::graphs::IncrementalAnalyzer::from_history(&sys.history).verdict();
    Fingerprint {
        trace_hash: fnv1a(rendered.as_bytes()),
        history_hash: fnv1a(h.as_bytes()),
        wal_hash: fnv1a(wal.as_bytes()),
        trace_len: sys.engine.telemetry.len(),
        ops: sys.history.len(),
        batch,
        incremental,
    }
}

/// A chaos-style system: 4 fragments homed at nodes 0-3, node 4
/// agent-free, lossy links, a crash/recovery cycle — the same shape as
/// `tests/chaos.rs`, with telemetry enabled.
fn chaos_system(seed: u64) -> (System, SimTime) {
    let mut plan_rng = SimRng::new(seed ^ 0xC4A0_5000);
    let plan = FaultPlan::new(
        plan_rng.gen_range(0..30u64) as f64 / 100.0,
        plan_rng.gen_range(0..30u64) as f64 / 100.0,
        SimDuration::from_millis(plan_rng.gen_range(0..50u64)),
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
    for (fi, (f, objs)) in frags.iter().enumerate() {
        let (f, objs) = (*f, objs.clone());
        for k in 0..20 {
            let obj = objs[k as usize % objs.len()];
            sys.submit_at(
                secs(3 * k + fi as u64 + 1),
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
    sys.crash_at(secs(40), NodeId(4));
    sys.recover_at(secs(70), NodeId(4));
    (sys, secs(500))
}

/// An E9-shaped system: multi-object updates reading foreign fragments,
/// cross-fragment readers at random nodes, adversarial partitions.
fn sweep_system(seed: u64) -> (System, SimTime) {
    let mut rng = SimRng::new(seed);
    let k = 4usize;
    let mut b = FragmentCatalog::builder();
    let mut objects = Vec::with_capacity(k);
    for i in 0..k {
        let (_, objs) = b.add_fragment(format!("F{i}"), 3);
        objects.push(objs);
    }
    let catalog = b.build();
    let agents: Vec<(FragmentId, AgentId, NodeId)> = (0..k)
        .map(|i| {
            (
                FragmentId(i as u32),
                AgentId::Node(NodeId(i as u32)),
                NodeId(i as u32),
            )
        })
        .collect();
    let mut sys = System::build(
        Topology::full_mesh(k as u32, SimDuration::from_millis(10)),
        catalog,
        agents,
        SystemConfig::unrestricted(seed),
    )
    .unwrap();
    let horizon = secs(60);
    let sched = partitions::random_alternating(
        &mut rng,
        k as u32,
        SimDuration::from_secs(12),
        0.5,
        horizon,
    );
    sys.schedule_partitions(&sched);
    for i in 0..k {
        for t in arrivals::poisson(&mut rng, 0.4, SimTime::ZERO, horizon) {
            let own = objects[i].clone();
            let j = rng.gen_range(0..k);
            let foreign: Vec<ObjectId> = if j == i {
                Vec::new()
            } else {
                objects[j].clone()
            };
            sys.submit_at(
                t,
                Submission::update(
                    FragmentId(i as u32),
                    Box::new(move |ctx| {
                        let mut acc = 1i64;
                        for &o in &foreign {
                            acc = acc.wrapping_add(ctx.read_int(o, 0));
                        }
                        for &o in &own {
                            let v = ctx.read_int(o, 0);
                            ctx.write(o, v.wrapping_add(acc) % 1_000_003)?;
                        }
                        Ok(())
                    }),
                ),
            );
        }
        for t in arrivals::poisson(&mut rng, 0.3, SimTime::ZERO, horizon) {
            let all: Vec<ObjectId> = objects.iter().flatten().copied().collect();
            let at_node = NodeId(rng.gen_range(0..k as u32));
            sys.submit_at(
                t,
                Submission::read_only(
                    FragmentId(i as u32),
                    Box::new(move |ctx| {
                        for &o in &all {
                            ctx.read(o);
                        }
                        Ok(())
                    }),
                )
                .at(at_node),
            );
        }
    }
    (sys, horizon + SimDuration::from_secs(300))
}

/// `(trace_hash, history_hash, wal_hash)` at `GOLDEN_SEED`. Both were
/// re-pinned when selective repair replaced go-back-N retransmission,
/// which changes when packets get through lossy or partitioned links.
type Pinned = (u64, u64, u64);

const CHAOS_PINNED: Pinned = (
    0x9117_50FC_3CEC_08FD,
    0x7D4D_6D01_3F54_AD8A,
    0xFF2F_7DA2_7B2B_2E29,
);
const SWEEP_PINNED: Pinned = (
    0x65FD_5E64_0616_D437,
    0x244B_9165_2226_F172,
    0xAC88_71FA_8B99_303D,
);

fn assert_golden(build: impl Fn(u64) -> (System, SimTime), pinned: Pinned, label: &str) {
    let (sys_a, limit_a) = build(GOLDEN_SEED);
    let (sys_b, limit_b) = build(GOLDEN_SEED);
    let a = fingerprint(sys_a, limit_a);
    let b = fingerprint(sys_b, limit_b);
    assert!(a.trace_len > 0, "{label}: trace captured nothing");
    assert!(a.ops > 0, "{label}: history is empty");
    assert_eq!(
        (a.trace_hash, a.history_hash, a.wal_hash),
        pinned,
        "{label}: seed {GOLDEN_SEED} must replay the pinned trace, history and WAL"
    );
    assert_eq!(
        (b.trace_hash, b.history_hash, b.wal_hash),
        pinned,
        "{label}: a second run of the same seed must replay them too"
    );
    assert!(
        a.incremental.agrees_with(&a.batch),
        "{label}: incremental checker diverged from the batch oracle"
    );
}

#[test]
fn chaos_trace_is_golden_at_seed_42() {
    assert_golden(chaos_system, CHAOS_PINNED, "chaos");
}

#[test]
fn sweep_trace_is_golden_at_seed_42() {
    assert_golden(sweep_system, SWEEP_PINNED, "sweep");
}

#[test]
fn harness_configs_admit_at_seed_42() {
    // Every named harness configuration must still pass static admission
    // at the golden seed — the perf pass changed no configuration.
    for named in fragdb::harness::configs::all(GOLDEN_SEED) {
        let report = named
            .admit(fragdb::check::AdmissionPolicy::Warn)
            .expect("admission ran");
        assert!(
            report.is_admissible(),
            "config {:?} failed admission: {report}",
            named.name
        );
    }
}
