//! Structured-telemetry acceptance tests.
//!
//! * Causality: fault-free, every commit joins to **exactly R** install
//!   events (R = replica count; the home's commit counts as its install).
//! * Determinism: two seed-42 runs of the chaos and movement scenarios
//!   produce byte-identical JSON-lines event logs, and the seed-42 quick
//!   export of every scenario hashes to the value pinned before the codec
//!   was rewritten.
//! * Differential: the online lag probe equals a batch recomputation from
//!   the raw event log (count, sum, min, max — exact, not approximate).
//! * Regime contrasts: the fault-free §4.1 run records zero drops and zero
//!   staleness; the §4.3 and §4.4.1 runs under faults measure nonzero lag,
//!   staleness, and move stall.
//! * Hygiene: every metric name a chaos run lists reads back through the
//!   registry, and disabled telemetry leaves no probe state behind
//!   (zero-cost hot path).

use std::collections::BTreeMap;

use fragdb::core::{Submission, System, SystemConfig};
use fragdb::harness::trace::{self, MAJORITY_MOVEMENT, READ_LOCKS_FIXED, UNRESTRICTED_FAULTS};
use fragdb::model::{AgentId, FragmentCatalog, NodeId, UserId};
use fragdb::net::{FaultConfig, FaultPlan, Topology};
use fragdb::obs::SpanReport;
use fragdb::sim::metrics::keys;
use fragdb::sim::{CausalId, SimDuration, SimTime, Telemetry, TelemetryEvent};

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

#[test]
fn every_commit_joins_to_exactly_r_installs_fault_free() {
    let (mut sys, limit) = fault_free_system(SEED);
    sys.engine.telemetry = Telemetry::bounded(200_000);
    while sys.step_until(limit).is_some() {}
    assert_eq!(sys.engine.telemetry.dropped(), 0);

    let replicas = sys.node_count() as usize;
    let mut commits: Vec<CausalId> = Vec::new();
    let mut installs: BTreeMap<CausalId, Vec<u32>> = BTreeMap::new();
    for r in sys.engine.telemetry.events() {
        match &r.event {
            TelemetryEvent::Committed { cause, .. } => commits.push(*cause),
            TelemetryEvent::Installed { cause, node } => {
                installs.entry(*cause).or_default().push(*node)
            }
            _ => {}
        }
    }
    assert_eq!(commits.len(), 4 * 8, "all submitted updates committed");
    for cause in &commits {
        let mut nodes = installs.get(cause).cloned().unwrap_or_default();
        nodes.sort_unstable();
        nodes.dedup();
        assert_eq!(
            nodes.len(),
            replicas,
            "commit {cause:?} must install at exactly R={replicas} nodes, got {nodes:?}"
        );
    }
    // No install without a commit either.
    assert_eq!(installs.len(), commits.len());
}

#[test]
fn event_logs_are_byte_identical_across_seed_42_runs() {
    for name in [UNRESTRICTED_FAULTS, MAJORITY_MOVEMENT] {
        let a = trace::run_scenario(name, SEED, true).unwrap();
        let b = trace::run_scenario(name, SEED, true).unwrap();
        assert_eq!(
            trace::render_jsonl(&a),
            trace::render_jsonl(&b),
            "{name}: same seed must replay the identical event log"
        );
        assert_eq!(
            a.metrics.render(),
            b.metrics.render(),
            "{name}: same seed must derive the identical probe metrics"
        );
    }
}

/// FNV-1a, as in `tests/golden_trace.rs`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The export is a file format other tools read: its bytes are pinned.
/// These hashes were computed at commit 528cb2e, before one declaration
/// replaced the hand-written encoder, so passing proves the bytes did not
/// move. An intended format change re-pins them, and so does a change to
/// what runs: the three scenarios with faults were re-pinned when
/// selective repair replaced go-back-N retransmission, and `self-heal`
/// again when an elected home began pushing the recovered tail to the
/// members behind it (three pushes at seed 42).
#[test]
fn seed_42_quick_exports_hash_to_the_pinned_values() {
    let pinned: [(&str, u64); 4] = [
        (READ_LOCKS_FIXED, 0x766c_06ed_c698_90e3),
        (UNRESTRICTED_FAULTS, 0x44e5_7e4e_7e33_f00c),
        (MAJORITY_MOVEMENT, 0x4c88_19d0_c160_9dc6),
        (trace::SELF_HEAL, 0xfff0_56f8_501d_6897),
    ];
    assert_eq!(pinned.map(|(name, _)| name), trace::SCENARIOS);
    for (name, hash) in pinned {
        let run = trace::run_scenario(name, SEED, true).unwrap();
        let got = fnv1a(trace::render_jsonl(&run).as_bytes());
        assert_eq!(got, hash, "{name}: export hashes to {got:#018x}");
    }
}

/// `Metrics::render` of a telemetry-on run wide enough that name order and
/// id order differ (`frag.10.lag` sorts before `frag.2.lag`): twelve
/// nodes, twelve fragments, lossy links, reads at a non-home node of each
/// fragment, and the reconstructed spans published. The hash was taken
/// while histograms were still stored under their names, so passing
/// proves that typed keys render the same names in the same order.
#[test]
fn wide_run_renders_metrics_to_the_pinned_hash() {
    const N: u32 = 12;
    let ms = SimDuration::from_millis;
    let mut b = FragmentCatalog::builder();
    let frags: Vec<_> = (0..N).map(|i| b.add_fragment(format!("F{i}"), 2)).collect();
    let agents = frags
        .iter()
        .enumerate()
        .map(|(i, &(f, _))| (f, AgentId::User(UserId(i as u32)), NodeId(i as u32)))
        .collect();
    let faults = FaultConfig::uniform(FaultPlan::new(0.1, 0.05, ms(20)));
    let mut sys = System::build(
        Topology::full_mesh(N, ms(10)),
        b.build(),
        agents,
        SystemConfig::unrestricted(SEED).with_faults(faults),
    )
    .unwrap();
    sys.engine.telemetry = Telemetry::bounded(200_000);
    for (fi, (f, objs)) in frags.into_iter().enumerate() {
        let obj = objs[0];
        for k in 0..4u32 {
            let at = secs(2 * u64::from(k) + 1) + ms(100 * fi as u64);
            let bump = Submission::update(
                f,
                Box::new(move |ctx| {
                    let v = ctx.read_int(obj, 0);
                    ctx.write(obj, v + 1)?;
                    Ok(())
                }),
            );
            sys.submit_at(at, bump);
            // 5 ms in, the broadcast over 10 ms links is still in flight.
            let reader = NodeId((fi as u32 + 1 + k) % N);
            let read = Submission::read_only(
                f,
                Box::new(move |ctx| {
                    ctx.read(obj);
                    Ok(())
                }),
            );
            sys.submit_at(at + ms(5), read.at(reader));
        }
    }
    while sys.step_until(secs(60)).is_some() {}
    SpanReport::from_records(sys.engine.telemetry.events()).publish(&mut sys.engine.metrics);
    let rendered = sys.engine.metrics.render();
    for key in ["frag.10.lag", "node.11.staleness", "span.phase.net"] {
        assert!(rendered.contains(key), "{key} missing:\n{rendered}");
    }
    let got = fnv1a(rendered.as_bytes());
    assert_eq!(
        got, 0xdd93_e52c_7d6b_ae73,
        "render hashes to {got:#018x}:\n{rendered}"
    );
}

#[test]
fn probe_lag_matches_batch_recomputation_from_event_log() {
    let run = trace::run_scenario(UNRESTRICTED_FAULTS, SEED, true).unwrap();
    assert_eq!(run.dropped, 0, "differential needs the complete event log");

    let mut commit_at: BTreeMap<CausalId, SimTime> = BTreeMap::new();
    let mut lags: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
    for r in &run.records {
        match &r.event {
            TelemetryEvent::Committed { cause, .. } => {
                commit_at.insert(*cause, r.at);
            }
            TelemetryEvent::Installed { cause, .. } => {
                let t0 = commit_at[cause];
                lags.entry(cause.fragment)
                    .or_default()
                    .push(r.at.micros().saturating_sub(t0.micros()));
            }
            _ => {}
        }
    }
    assert!(!lags.is_empty());
    for (fragment, samples) in lags {
        let h = run
            .metrics
            .histogram(&format!("frag.{fragment}.lag"))
            .expect("probe histogram exists");
        assert_eq!(h.count(), samples.len() as u64, "frag {fragment} count");
        assert_eq!(
            h.sum(),
            samples.iter().map(|&v| u128::from(v)).sum::<u128>(),
            "frag {fragment} sum"
        );
        assert_eq!(
            h.min(),
            samples.iter().min().copied(),
            "frag {fragment} min"
        );
        assert_eq!(
            h.max(),
            samples.iter().max().copied(),
            "frag {fragment} max"
        );
    }
}

#[test]
fn regimes_contrast_as_the_paper_predicts() {
    // §4.1 fault-free: zero drops, zero staleness.
    let locks = trace::run_scenario(READ_LOCKS_FIXED, SEED, true).unwrap();
    assert!(!locks
        .records
        .iter()
        .any(|r| matches!(r.event, TelemetryEvent::Dropped { .. })));
    for (key, h) in locks.metrics.histograms() {
        if key.ends_with(".staleness") {
            assert_eq!(h.max(), Some(0), "{key} must be all-zero fault-free");
        }
    }

    // §4.3 under faults: lag and staleness both strictly positive somewhere.
    let chaos = trace::run_scenario(UNRESTRICTED_FAULTS, SEED, true).unwrap();
    let max_of = |run: &trace::TraceRun, suffix: &str| {
        run.metrics
            .histograms()
            .filter(|(k, _)| k.ends_with(suffix))
            .filter_map(|(_, h)| h.max())
            .max()
            .unwrap_or(0)
    };
    assert!(max_of(&chaos, ".lag") > 0, "§4.3 must measure nonzero lag");
    assert!(
        max_of(&chaos, ".staleness") > 0,
        "§4.3 must observe stale reads"
    );
    assert!(chaos
        .records
        .iter()
        .any(|r| matches!(r.event, TelemetryEvent::Dropped { .. })));

    // §4.4.1 with moves: the token stall window is measured.
    let movement = trace::run_scenario(MAJORITY_MOVEMENT, SEED, true).unwrap();
    assert!(max_of(&movement, ".lag") > 0);
    assert!(
        max_of(&movement, ".move_stall") > 0,
        "§4.4.1 must measure the move-stall window"
    );
    assert!(movement
        .records
        .iter()
        .any(|r| matches!(r.event, TelemetryEvent::TokenArrived { .. })));
}

#[test]
fn chaos_run_emits_only_registered_metric_keys() {
    // Writers address metrics by typed key, so what is left to check is
    // the way back: every name the run lists reads back what it lists.
    let run = trace::run_scenario(UNRESTRICTED_FAULTS, SEED, true).unwrap();
    for (name, value) in run.metrics.counters() {
        assert_eq!(run.metrics.counter(name), value, "{name}");
    }
    for (name, h) in run.metrics.histograms() {
        let read = run.metrics.histogram(&name);
        assert!(read.is_some_and(|r| std::ptr::eq(r, h)), "{name}");
    }
    // The satellite metrics are wired up.
    assert_eq!(run.metrics.counter(keys::TELEMETRY_DROPPED), run.dropped);
}

#[test]
fn disabled_telemetry_is_zero_cost_on_hot_paths() {
    // Same workload, telemetry left at its default (disabled): no events
    // and no probe histograms — i.e. the commit/install hot path
    // performed no telemetry allocation (closure-deferred emission), while
    // the workload itself demonstrably ran.
    let (mut sys, limit) = fault_free_system(SEED);
    while sys.step_until(limit).is_some() {}
    assert!(sys.engine.metrics.counter(keys::TXN_COMMITTED) > 0);
    assert!(!sys.engine.telemetry.is_enabled());
    assert!(sys.engine.telemetry.is_empty());
    assert_eq!(sys.engine.telemetry.dropped(), 0);
    assert!(
        !sys.engine
            .metrics
            .histograms()
            .any(|(k, _)| k.starts_with("frag.") || k.starts_with("node.")),
        "disabled telemetry must publish no probe histograms"
    );
}
