//! Span-reconstruction acceptance tests (the `fragdb-obs` layer).
//!
//! * Determinism: two seed-42 chaos runs produce **byte-identical**
//!   folded-stack output, and reconstructing from the JSONL export gives
//!   the same bytes as reconstructing from the in-memory stream.
//! * R-join property: fault-free, every reconstructed span is complete
//!   with exactly R install legs (R = replica count; the home leg rides
//!   at net = 0).
//! * Phase accounting: on the fault-free mesh the critical path of every
//!   span is dominated by the network leg (10 ms links, no queue/lock
//!   contention), and the folded output validates against the leaf
//!   vocabulary.

use fragdb::core::{Submission, System, SystemConfig};
use fragdb::harness::trace::{self, UNRESTRICTED_FAULTS};
use fragdb::model::{AgentId, FragmentCatalog, NodeId, UserId};
use fragdb::net::Topology;
use fragdb::obs::{folded, validate_folded, SpanReport, SpanStatus};
use fragdb::sim::{SimDuration, SimTime, Telemetry};

const SEED: u64 = 42;

fn secs(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

/// A fault-free chaos-shaped system: 4 fragments homed at nodes 0-3 of a
/// 5-node full mesh (full replication, so R = 5), 8 updates per fragment.
fn fault_free_system(seed: u64) -> (System, SimTime) {
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
        SystemConfig::unrestricted(seed),
    )
    .unwrap();
    for (fi, (f, objs)) in frags.iter().enumerate() {
        let (f, objs) = (*f, objs.clone());
        for k in 0..8 {
            let obj = objs[k as usize % objs.len()];
            sys.submit_at(
                secs(2 * k + fi as u64 + 1),
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
    (sys, secs(60))
}

fn run_fault_free(seed: u64) -> System {
    let (mut sys, limit) = fault_free_system(seed);
    sys.engine.telemetry = Telemetry::bounded(200_000);
    while sys.step_until(limit).is_some() {}
    sys
}

#[test]
fn fault_free_spans_are_complete_r_joins() {
    let sys = run_fault_free(SEED);
    let replicas = sys.node_count() as usize;
    let report = SpanReport::from_records(sys.engine.telemetry.events());
    assert_eq!(report.len(), 32, "4 fragments x 8 updates");
    assert_eq!(report.truncated, 0);
    assert_eq!(report.discarded, 0);
    assert_eq!(report.complete as usize, report.len());
    for s in &report.spans {
        assert_eq!(s.status, SpanStatus::Complete);
        assert_eq!(
            s.legs.len(),
            replicas,
            "fault-free span must join exactly R installs"
        );
        // The home leg installs at the commit instant.
        let home = s.commit_node.expect("complete span has a commit site");
        let home_leg = s.legs.iter().find(|l| l.node == home).expect("home leg");
        assert_eq!(home_leg.net_us, 0);
        assert_eq!(home_leg.holdback_us, 0);
        // Remote legs cross one 10 ms link with no gaps to fill.
        for leg in s.legs.iter().filter(|l| l.node != home) {
            assert_eq!(leg.net_us, 10_000, "one clean 10ms hop");
            assert_eq!(leg.holdback_us, 0, "in-order FIFO needs no hold-back");
            assert!(!leg.retransmitted);
        }
        // So the critical path is a single network segment.
        let path = SpanReport::critical_path(s);
        assert_eq!(path, vec![("net", 10_000)]);
    }
    // And the attribution table charges everything to the network.
    assert_eq!(
        report.critical.get("net"),
        Some(&(32, 32 * 10_000)),
        "all 32 critical paths are network-dominated"
    );
}

#[test]
fn folded_output_is_byte_identical_across_replays() {
    let scenario_folded = |seed| {
        let run = trace::run_scenario(UNRESTRICTED_FAULTS, seed, true).unwrap();
        folded(&SpanReport::from_records(run.records.iter()))
    };
    let a = scenario_folded(SEED);
    let b = scenario_folded(SEED);
    assert!(!a.is_empty());
    assert_eq!(a, b, "seed-42 folded stacks must be byte-identical");
    // Pinned at commit 528cb2e, before span reconstruction started to match
    // `TelemetryEvent` directly (FNV-1a, as in `tests/golden_trace.rs`).
    let fnv1a = a.bytes().fold(0xcbf2_9ce4_8422_2325, |h: u64, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    assert_eq!(fnv1a, 0x1944_a0b9_783b_499f, "{fnv1a:#018x}");
    validate_folded(&a).expect("folded output must satisfy the leaf schema");
    // A different seed perturbs the fault plan and therefore the stacks.
    let c = scenario_folded(7);
    validate_folded(&c).expect("any seed must produce schema-valid stacks");
    assert_ne!(a, c, "different seeds must not collide byte-for-byte");
}

#[test]
fn jsonl_export_replays_to_the_same_spans_as_the_live_stream() {
    let run = trace::run_scenario(UNRESTRICTED_FAULTS, SEED, true).unwrap();
    let live = SpanReport::from_records(run.records.iter());
    let exported = trace::render_jsonl(&run);
    let replayed = SpanReport::from_jsonl(&exported).expect("export parses");
    assert_eq!(live.len(), replayed.len());
    assert_eq!(live.truncated, replayed.truncated);
    assert_eq!(live.complete, replayed.complete);
    assert_eq!(
        folded(&live),
        folded(&replayed),
        "reconstruction must be pure over the JSONL export"
    );
    for (a, b) in live.spans.iter().zip(replayed.spans.iter()) {
        assert_eq!(a.cause, b.cause);
        assert_eq!(a.queue_us, b.queue_us);
        assert_eq!(a.lock_wait_us, b.lock_wait_us);
        assert_eq!(a.exec_us, b.exec_us);
        assert_eq!(a.legs.len(), b.legs.len());
    }
}

#[test]
fn a_file_of_several_runs_is_refused_not_merged() {
    // `fragdb-trace --quick --out F` writes every scenario into one file.
    // Causal ids restart with each run, so reading F as one stream would
    // join one run's installs to another's commits.
    let mut file = String::new();
    let mut lines_before_second_header = 0;
    for name in [UNRESTRICTED_FAULTS, trace::READ_LOCKS_FIXED] {
        let run = trace::run_scenario(name, SEED, true).unwrap();
        lines_before_second_header = file.lines().count();
        file.push_str(&trace::render_jsonl(&run));
    }
    trace::validate_jsonl(&file).expect("each run of the file is valid");
    let err = SpanReport::from_jsonl(&file).err().expect("two runs");
    let line = lines_before_second_header + 1;
    assert!(
        err.starts_with(&format!("line {line}: second `# scenario:` header")),
        "{err}"
    );
}

#[test]
fn lock_scenario_spans_carry_lock_wait_phases() {
    // §4.1 read locks: multi-site lock acquisition precedes the commit,
    // so spans must surface lock_wait_started/lock_granted pairs.
    let run = trace::run_scenario(trace::READ_LOCKS_FIXED, SEED, true).unwrap();
    let report = SpanReport::from_records(run.records.iter());
    assert!(!report.is_empty());
    let with_locks = report.spans.iter().filter(|s| s.lock_wait_us > 0).count();
    assert!(
        with_locks > 0,
        "remote-read transfers must wait on §4.1 locks"
    );
    assert!(
        report.phase.contains_key("lock_wait"),
        "the lock_wait phase must aggregate"
    );
}
