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
//! * Repair attribution: the overdue packets a home resends when ack
//!   progress answers its probe after a heal are exported as a
//!   `Retransmit` on the home → replica link, and the legs they carried
//!   read as retransmitted.
//! * Pinned reconstruction: a lossy self-healing run with retransmitted
//!   legs reconstructs, from the live stream and from its export alike,
//!   to a report whose digest is a constant.
//! * Hold-back accounting: a broadcast that overtakes a recovering
//!   node's catch-up reply is held back for exactly the gap.
//! * A §4.4.1 prepare whose home crashed before committing is reported as
//!   uncommitted, not as a ring-evicted (truncated) span.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use fragdb::core::{Submission, System, SystemConfig};
use fragdb::harness::configs;
use fragdb::harness::trace::{self, UNRESTRICTED_FAULTS};
use fragdb::model::{AgentId, FragmentCatalog, NodeId, UserId};
use fragdb::net::{FaultConfig, FaultPlan, NetworkChange, Topology};
use fragdb::obs::{folded, validate_folded, SpanReport, SpanStatus};
use fragdb::sim::telemetry::{read_jsonl, render_jsonl, JsonlEntry};
use fragdb::sim::{QuantileSketch, SimDuration, SimTime, Telemetry, TelemetryEvent};

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
        assert_eq!(s.net_us(home_leg), 0);
        assert_eq!(home_leg.holdback_us(), 0);
        // Remote legs cross one 10 ms link with no gaps to fill.
        for leg in s.legs.iter().filter(|l| l.node != home) {
            assert_eq!(s.net_us(leg), 10_000, "one clean 10ms hop");
            assert_eq!(leg.holdback_us(), 0, "in-order FIFO needs no hold-back");
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
    // `TelemetryEvent` directly (FNV-1a, as in `tests/golden_trace.rs`), and
    // re-pinned when selective repair replaced go-back-N retransmission.
    let fnv1a = a.bytes().fold(0xcbf2_9ce4_8422_2325, |h: u64, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    assert_eq!(fnv1a, 0x0c8c_48a1_8886_a621, "{fnv1a:#018x}");
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

#[test]
fn repair_on_ack_progress_is_a_retransmit_from_the_home() {
    // F0 homed at node 0 of a 3-node mesh; node 0 is cut off over
    // [1 s, 3 s) and commits three updates meanwhile. After the heal, the
    // next probe resends the lowest unacked packet to each replica, and
    // its ack — handled in `on_packet`, not by a timer — resends the other
    // two at once.
    let mut b = FragmentCatalog::builder();
    let (f, objs) = b.add_fragment("F0", 1);
    let obj = objs[0];
    let mut sys = System::build(
        Topology::full_mesh(3, SimDuration::from_millis(10)),
        b.build(),
        vec![(f, AgentId::User(UserId(0)), NodeId(0))],
        SystemConfig::unrestricted(SEED),
    )
    .unwrap();
    let heal = secs(3);
    let split = vec![vec![NodeId(0)], vec![NodeId(1), NodeId(2)]];
    sys.net_change_at(secs(1), NetworkChange::Split(split));
    sys.net_change_at(heal, NetworkChange::HealAll);
    for k in 0..3 {
        let update = Submission::update(
            f,
            Box::new(move |ctx| {
                let v = ctx.read_int(obj, 0);
                ctx.write(obj, v + 1)?;
                Ok(())
            }),
        );
        sys.submit_at(SimTime::from_millis(1_500 + 100 * k), update);
    }
    sys.engine.telemetry = Telemetry::bounded(10_000);
    while sys.step_until(secs(10)).is_some() {}

    let mut repaired = Vec::new();
    for r in sys.engine.telemetry.events() {
        if let TelemetryEvent::Retransmit { from, to, count } = r.event {
            // Only the home sends data, so only it can retransmit.
            assert_eq!(from, 0, "retransmit on {from} -> {to} at {:?}", r.at);
            // A timeout probe is one packet; two at once is ack repair.
            if count == 2 && r.at > heal {
                repaired.push(to);
            }
        }
    }
    repaired.sort_unstable();
    assert_eq!(repaired, [1, 2], "one ack-driven repair per replica");

    let report = SpanReport::from_records(sys.engine.telemetry.events());
    assert_eq!(report.len(), 3);
    for s in &report.spans {
        assert_eq!(s.status, SpanStatus::Complete);
        for leg in s.legs.iter().filter(|l| l.node != 0) {
            assert!(
                leg.installed_at > heal.micros(),
                "installed before the heal"
            );
            assert!(
                leg.retransmitted,
                "leg to {} not marked retransmitted",
                leg.node
            );
        }
    }
}

/// FNV-1a, as in `tests/golden_trace.rs`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// §5 self-healing over lossy links: the `self-heal` configuration (one
/// majority-commit fragment on five nodes, failure detector on) with 10 %
/// loss, 5 % duplication and up to 5 ms of jitter on every link. The home
/// crashes at 4 s, as a prepare goes out; an elected home takes over and
/// the crashed one recovers at 9 s. Returns the run's export.
fn lossy_self_heal_export() -> String {
    let named = configs::by_name("self-heal", SEED).expect("registered");
    let plan = FaultPlan::new(0.10, 0.05, SimDuration::from_millis(5));
    let config = named.config.with_faults(FaultConfig::uniform(plan));
    let fragment = &named.catalog.fragments()[0];
    let (f, objs) = (fragment.id, fragment.objects.clone());
    let mut sys = System::build(named.topology, named.catalog, named.agents, config).unwrap();
    for k in 0..12u64 {
        let obj = objs[k as usize % objs.len()];
        sys.submit_at(
            secs(k + 1),
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
    sys.crash_at(secs(4), NodeId(0));
    sys.recover_at(secs(9), NodeId(0));
    sys.engine.telemetry = Telemetry::bounded(100_000);
    while sys.step_until(secs(60)).is_some() {}
    let t = &sys.engine.telemetry;
    render_jsonl(None, t.dropped(), t.events())
}

/// A digest of everything a report says: every span's fields and legs,
/// the status counts, each phase sketch's moments and quantiles, and the
/// critical-path map. `as_parent` reports an uncommitted span the way the
/// parent of that status did, as truncated.
fn report_digest(r: &SpanReport, as_parent: bool) -> u64 {
    let status = |s: SpanStatus| match s {
        SpanStatus::Uncommitted if as_parent => SpanStatus::Truncated,
        s => s,
    };
    let mut text = String::new();
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    for s in &r.spans {
        *counts.entry(format!("{:?}", status(s.status))).or_default() += 1;
        let _ = writeln!(
            text,
            "{:?} {:?} {:?} {:?} {:?} {} {:?} {} {} {:?}",
            s.cause,
            status(s.status),
            s.commit_node,
            s.committed_at,
            s.initiated_at,
            s.queue_us,
            s.queue_attr,
            s.lock_wait_us,
            s.exec_us,
            s.recipients
        );
        for l in &s.legs {
            let _ = writeln!(
                text,
                "  {} {} {} {} {} {}",
                l.node,
                l.installed_at,
                l.arrived_at,
                s.net_us(l),
                l.holdback_us(),
                l.retransmitted
            );
        }
    }
    let _ = writeln!(text, "{counts:?}");
    let quantiles = |sk: &QuantileSketch| [50.0, 90.0, 99.0, 100.0].map(|q| sk.quantile(q));
    for (name, sk) in &r.phase {
        let _ = writeln!(
            text,
            "{name} n={} sum={} min={:?} max={:?} q={:?}",
            sk.count(),
            sk.sum(),
            sk.min(),
            sk.max(),
            quantiles(sk)
        );
    }
    let _ = writeln!(text, "{:?}", r.critical);
    let len = &r.critical_len;
    let _ = writeln!(
        text,
        "critical_len n={} q={:?}",
        len.count(),
        quantiles(len)
    );
    fnv1a(text.as_bytes())
}

#[test]
fn lossy_self_heal_reconstruction_hashes_to_the_pinned_digest() {
    let text = lossy_self_heal_export();
    let mut records = Vec::new();
    read_jsonl(&text, |entry| {
        if let JsonlEntry::Record(r) = entry {
            records.push(r);
        }
        Ok(())
    })
    .unwrap();
    let live = SpanReport::from_records(&records);
    let replayed = SpanReport::from_jsonl(&text).expect("export parses");
    // The pin covers the legs that are easy to get wrong.
    let legs = || live.spans.iter().flat_map(|s| &s.legs);
    assert!(legs().any(|l| l.retransmitted), "no retransmitted leg");
    // The elected home resurrects (0, 0, 3) from the staged majority and
    // pushes it to every member behind it before its first prepare, so
    // (0, 1, 4) is held back nowhere; before that push it waited at nodes
    // 2, 3 and 4 until each asked for the hole.
    assert!(!legs().any(|l| l.holdback_us() > 0), "a held-back leg");
    assert_eq!(live.uncommitted, 1, "the prepare the crash interrupted");
    // `PARENT` renders that one span as truncated, the way the parent of
    // `SpanStatus::Uncommitted` reported it; the digests differ by that
    // status alone. Both were re-pinned when the tail push above removed
    // the three held-back legs.
    const PARENT: u64 = 0xca3c_99bd_bf38_a1e5;
    const PINNED: u64 = 0x0e61_b599_e00e_2b7d;
    for report in [&live, &replayed] {
        assert_eq!(report_digest(report, true), PARENT);
        let got = report_digest(report, false);
        assert_eq!(got, PINNED, "report hashes to {got:#018x}");
    }
}

#[test]
fn a_prepare_the_home_crashed_on_is_uncommitted_not_truncated() {
    // The home crashes at 4 s as the prepare of (0, 0, 3) goes out; the
    // elected home resurrects the staged entry and installs it at all
    // five nodes. The ring evicted nothing, so nothing is truncated.
    let run = trace::run_scenario(trace::SELF_HEAL, SEED, true).unwrap();
    assert_eq!(run.dropped, 0);
    let live = SpanReport::from_records(run.records.iter());
    let replayed = SpanReport::from_jsonl(&trace::render_jsonl(&run)).expect("export parses");
    for report in [&live, &replayed] {
        assert_eq!((report.truncated, report.uncommitted), (0, 1));
        let s = report
            .spans
            .iter()
            .find(|s| s.status == SpanStatus::Uncommitted)
            .expect("one uncommitted span");
        assert_eq!(
            (s.cause.fragment, s.cause.epoch, s.cause.frag_seq),
            (0, 0, 3)
        );
        assert_eq!((s.committed_at, s.recipients), (None, Some(4)));
        assert_eq!(s.legs.len(), 5);
    }
}

#[test]
fn a_broadcast_racing_a_crash_catch_up_is_held_back() {
    // One §4.3 fragment homed at node 0 of a 3-node mesh with 10 ms links.
    // Node 2 misses (0, 0, 1) while down; it recovers at 5 s and asks the
    // home for it. (0, 0, 2) commits 1 ms later and its broadcast reaches
    // node 2 at 5.011 s, ahead of the catch-up reply, so it is held back
    // until the reply lands at 5.020 s plus 1 µs: the reply trails the
    // home's ack on the same link by one FIFO slot.
    let mut b = FragmentCatalog::builder();
    let (f, objs) = b.add_fragment("F", 1);
    let obj = objs[0];
    let mut sys = System::build(
        Topology::full_mesh(3, SimDuration::from_millis(10)),
        b.build(),
        vec![(f, AgentId::User(UserId(0)), NodeId(0))],
        SystemConfig::unrestricted(SEED),
    )
    .unwrap();
    let bump = || {
        Submission::update(
            f,
            Box::new(move |ctx| {
                let v = ctx.read_int(obj, 0);
                ctx.write(obj, v + 1)?;
                Ok(())
            }),
        )
    };
    sys.submit_at(secs(1), bump());
    sys.crash_at(secs(2), NodeId(2));
    sys.submit_at(secs(3), bump());
    sys.recover_at(secs(5), NodeId(2));
    sys.submit_at(secs(5) + SimDuration::from_millis(1), bump());
    sys.engine.telemetry = Telemetry::bounded(10_000);
    while sys.step_until(secs(10)).is_some() {}
    let report = SpanReport::from_records(sys.engine.telemetry.events());
    let held: Vec<_> = report
        .spans
        .iter()
        .flat_map(|s| s.legs.iter().map(move |l| (s.cause.frag_seq, l)))
        .filter(|(_, l)| l.holdback_us() > 0)
        .map(|(seq, l)| (seq, l.node, l.holdback_us()))
        .collect();
    assert_eq!(held, vec![(2, 2, 9_001)]);
}
