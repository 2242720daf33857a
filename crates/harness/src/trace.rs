//! Telemetry trace scenarios and renderers behind the `fragdb-trace`
//! explorer.
//!
//! Four shipped scenarios exercise the regimes the paper contrasts:
//!
//! * [`READ_LOCKS_FIXED`] — §4.1 read locks with fixed agents, fault-free:
//!   the globally-serializable end of the spectrum. Expected telemetry:
//!   **zero** network drops and **zero** read staleness (every read runs
//!   under locks at the lock site, which is the agent home).
//! * [`UNRESTRICTED_FAULTS`] — §4.3 unrestricted reads over lossy links
//!   with a crash/recovery cycle: reads at non-home nodes observe the
//!   mutual-consistency window directly (nonzero `node.<n>.staleness`),
//!   and commit→install lag (`frag.<f>.lag`) widens under retransmission.
//! * [`MAJORITY_MOVEMENT`] — §4.4.1 majority commit with token moves under
//!   faults: `frag.<f>.move_stall` measures the §5 unavailability window
//!   between `MoveRequested` and `TokenArrived`.
//! * [`SELF_HEAL`] — §5 failure detector + quorum election: the crashed
//!   home's token is re-homed without an operator, and
//!   `frag.<f>.unavail_window` measures the outage.
//!
//! A [`TraceRun`] captures the full structured event log plus the derived
//! probe metrics; the renderers turn it into a per-fragment causality
//! timeline, a lag/staleness summary table, and a JSON-lines export. The
//! wire format belongs to `fragdb_sim::telemetry`; the renderer and the
//! validator here only call it.

use std::collections::BTreeMap;

use fragdb_core::{Submission, System};
use fragdb_model::{FragmentId, NodeId, ObjectId};
use fragdb_net::{FaultConfig, FaultPlan};
use fragdb_sim::metrics::{keys, Metrics};
use fragdb_sim::telemetry::{self, JsonlEntry};
use fragdb_sim::{CausalId, SimDuration, SimTime, Telemetry, TelemetryEvent, TelemetryRecord};

use crate::configs;
use crate::table::Table;

/// §4.1 scenario name: read locks, fixed agents, fault-free.
pub const READ_LOCKS_FIXED: &str = "read-locks-fixed";
/// §4.3 scenario name: unrestricted reads under injected faults.
pub const UNRESTRICTED_FAULTS: &str = "unrestricted-faults";
/// §4.4.1 scenario name: majority commit with token movement under faults.
pub const MAJORITY_MOVEMENT: &str = "majority-movement";
/// §5 scenario name: failure detector + quorum election re-homing the
/// token after the home crashes, without an operator in the loop.
pub const SELF_HEAL: &str = "self-heal";

/// Every shipped scenario name, in a stable order.
pub const SCENARIOS: [&str; 4] = [
    READ_LOCKS_FIXED,
    UNRESTRICTED_FAULTS,
    MAJORITY_MOVEMENT,
    SELF_HEAL,
];

/// Cap on retained telemetry events per run (probes stay exact past it).
const TELEMETRY_CAP: usize = 200_000;

/// A completed scenario run: the retained event log plus derived metrics.
pub struct TraceRun {
    /// Scenario name (one of [`SCENARIOS`]).
    pub scenario: &'static str,
    /// Paper section the scenario reproduces.
    pub section: &'static str,
    /// Retained telemetry records, oldest first.
    pub records: Vec<TelemetryRecord>,
    /// Events evicted from the bounded buffer.
    pub dropped: u64,
    /// Final metrics (counters + probe histograms).
    pub metrics: Metrics,
    /// Reliable-layer totals (transmissions, acks, retransmissions).
    pub net: fragdb_net::ReliableStats,
    /// `(fragment id, name, replica count R)` per fragment.
    pub fragments: Vec<(u32, String, u32)>,
}

fn secs(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

/// Increment the first object of `objects` by one.
fn bump(objects: &[ObjectId]) -> fragdb_core::UpdateFn {
    let obj = objects[0];
    Box::new(move |ctx| {
        let v = ctx.read_int(obj, 0);
        ctx.write(obj, v + 1)?;
        Ok(())
    })
}

/// Read every object of `objects`.
fn scan(objects: &[ObjectId]) -> fragdb_core::UpdateFn {
    let objs = objects.to_vec();
    Box::new(move |ctx| {
        for &o in &objs {
            ctx.read(o);
        }
        Ok(())
    })
}

fn drive(
    mut sys: System,
    limit: SimTime,
    scenario: &'static str,
    section: &'static str,
) -> TraceRun {
    sys.engine.telemetry = Telemetry::bounded(TELEMETRY_CAP);
    while sys.step_until(limit).is_some() {}
    sys.engine.sync_drop_metrics();
    sys.publish_net_metrics();
    // Reconstruct per-commit spans and publish the derived keys
    // (`telemetry.spans_truncated`, `obs.critical_path.len`,
    // `span.phase.<p>`) so the strict registry check covers them too.
    let spans = fragdb_obs::SpanReport::from_records(sys.engine.telemetry.events());
    spans.publish(&mut sys.engine.metrics);
    let fragments = sys
        .catalog()
        .fragments()
        .iter()
        .map(|f| {
            let replicas = sys
                .replicas_of(f.id)
                .map_or(sys.node_count() as usize, |set| set.len());
            (f.id.0, f.name.clone(), replicas as u32)
        })
        .collect();
    TraceRun {
        scenario,
        section,
        records: sys.engine.telemetry.events().cloned().collect(),
        dropped: sys.engine.telemetry.dropped(),
        metrics: std::mem::take(&mut sys.engine.metrics),
        net: sys.net_stats(),
        fragments,
    }
}

/// §4.1: the two-ledger read-lock configuration, fault-free. Transfers
/// read the foreign ledger under remote read locks; read-only scans run
/// at the lock site (the home), so every read is fresh.
fn read_locks_fixed(seed: u64, quick: bool) -> TraceRun {
    let named = configs::by_name("ledger-read-locks", seed).expect("registered");
    let objects: Vec<Vec<ObjectId>> = named
        .catalog
        .fragments()
        .iter()
        .map(|f| f.objects.clone())
        .collect();
    let mut sys = System::build(named.topology, named.catalog, named.agents, named.config)
        .expect("admissible config");
    let rounds = if quick { 4 } else { 12 };
    for k in 0..rounds {
        // Alternating transfers, each reading the other ledger.
        for (own, other) in [(0usize, 1usize), (1, 0)] {
            let own_obj = objects[own][0];
            let other_obj = objects[other][0];
            sys.submit_at(
                secs(4 * k + 1 + own as u64),
                Submission::update_reading(
                    FragmentId(own as u32),
                    vec![other_obj],
                    Box::new(move |ctx| {
                        let funds = ctx.read_int(other_obj, 0);
                        let v = ctx.read_int(own_obj, 0);
                        ctx.write(own_obj, v + 1 + funds % 2)?;
                        Ok(())
                    }),
                ),
            );
        }
        // Read-only audits at each ledger's home.
        for f in 0..2u32 {
            sys.submit_at(
                secs(4 * k + 3),
                Submission::read_only(FragmentId(f), scan(&objects[f as usize])).at(NodeId(f)),
            );
        }
    }
    drive(sys, secs(4 * rounds + 30), READ_LOCKS_FIXED, "4.1")
}

/// §4.3: the chaos mesh under lossy links with a crash/recovery cycle.
/// Reads run unrestricted at node 4 (which homes no agent) shortly after
/// each commit, so they observe the propagation window as staleness.
fn unrestricted_faults(seed: u64, quick: bool) -> TraceRun {
    let mut named = configs::by_name("chaos-mesh", seed).expect("registered");
    let mut plan_rng = fragdb_sim::SimRng::new(seed ^ 0xC4A0_5000);
    let plan = FaultPlan::new(
        plan_rng.gen_range(0..30u64) as f64 / 100.0,
        plan_rng.gen_range(0..30u64) as f64 / 100.0,
        ms(plan_rng.gen_range(0..50u64)),
    );
    named.config = named.config.with_faults(FaultConfig::uniform(plan));
    let objects: Vec<Vec<ObjectId>> = named
        .catalog
        .fragments()
        .iter()
        .map(|f| f.objects.clone())
        .collect();
    let mut sys = System::build(named.topology, named.catalog, named.agents, named.config)
        .expect("admissible config");
    let updates = if quick { 6 } else { 20 };
    for (fi, objs) in objects.iter().enumerate() {
        for k in 0..updates {
            let at = secs(3 * k + fi as u64 + 1);
            sys.submit_at(at, Submission::update(FragmentId(fi as u32), bump(objs)));
            // 5ms after the commit the broadcast (10ms links) is still in
            // flight: a read at agent-free node 4 is provably stale.
            sys.submit_at(
                at + ms(5),
                Submission::read_only(FragmentId(fi as u32), scan(objs)).at(NodeId(4)),
            );
        }
    }
    sys.crash_at(secs(40), NodeId(4));
    sys.recover_at(secs(70), NodeId(4));
    drive(
        sys,
        secs(if quick { 200 } else { 500 }),
        UNRESTRICTED_FAULTS,
        "4.3",
    )
}

/// §4.4.1: a movable fragment under majority commit, with moves, mild
/// packet loss, and a crash of one acknowledging replica.
fn majority_movement(seed: u64, quick: bool) -> TraceRun {
    let mut named = configs::by_name("movement-majority", seed).expect("registered");
    named.config = named
        .config
        .with_faults(FaultConfig::uniform(FaultPlan::new(0.10, 0.05, ms(20))));
    let objects: Vec<ObjectId> = named.catalog.fragments()[0].objects.clone();
    let fragment = named.catalog.fragments()[0].id;
    let mut sys = System::build(named.topology, named.catalog, named.agents, named.config)
        .expect("admissible config");
    let horizon = if quick { 20 } else { 40 };
    for k in 0..horizon / 2 {
        sys.submit_at(
            secs(2 * k + 1),
            Submission::update(fragment, bump(&objects)),
        );
    }
    sys.submit_at(
        secs(3),
        Submission::read_only(fragment, scan(&objects)).at(NodeId(3)),
    );
    sys.move_agent_at(secs(8), fragment, NodeId(1));
    sys.crash_at(secs(10), NodeId(3));
    if !quick {
        sys.move_agent_at(secs(18), fragment, NodeId(2));
        sys.recover_at(secs(25), NodeId(3));
        sys.move_agent_at(secs(30), fragment, NodeId(4));
    } else {
        sys.recover_at(secs(15), NodeId(3));
    }
    drive(sys, secs(horizon + 80), MAJORITY_MOVEMENT, "4.4.1")
}

/// §5: the self-healing configuration. The token home crashes mid-stream;
/// the failure detector suspects it, the surviving replicas elect a new
/// home under a bumped epoch, and the §4.4.1 recovery re-seats the token.
/// The crashed home later recovers into the new regime (the epoch fence
/// keeps its stale state harmless). Probes: `frag.<f>.unavail_window`
/// (election start → token recovered), `detector.suspicions`,
/// `election.rounds`, and `batch.discarded` for the open batch that died
/// with the home.
fn self_heal(seed: u64, quick: bool) -> TraceRun {
    let named = configs::by_name("self-heal", seed).expect("registered");
    let objects: Vec<ObjectId> = named.catalog.fragments()[0].objects.clone();
    let fragment = named.catalog.fragments()[0].id;
    let mut sys = System::build(named.topology, named.catalog, named.agents, named.config)
        .expect("admissible config");
    let rounds = if quick { 10 } else { 24 };
    for k in 0..rounds {
        sys.submit_at(secs(k + 1), Submission::update(fragment, bump(&objects)));
    }
    // Kill the home mid-stream: detection bound is 2s (500ms × (3+1)),
    // election timeout 2s, so the token re-seats well before the
    // submissions run out.
    sys.crash_at(secs(4), NodeId(0));
    sys.recover_at(secs(rounds / 2 + 4), NodeId(0));
    drive(sys, secs(rounds + 60), SELF_HEAL, "5")
}

/// Run a scenario by name. `quick` scales the workload down for CI smoke.
pub fn run_scenario(name: &str, seed: u64, quick: bool) -> Option<TraceRun> {
    match name {
        READ_LOCKS_FIXED => Some(read_locks_fixed(seed, quick)),
        UNRESTRICTED_FAULTS => Some(unrestricted_faults(seed, quick)),
        MAJORITY_MOVEMENT => Some(majority_movement(seed, quick)),
        SELF_HEAL => Some(self_heal(seed, quick)),
        _ => None,
    }
}

// ---- renderers -----------------------------------------------------------

fn fmt_micros(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.3}s", us as f64 / 1e6)
    } else {
        format!("{:.1}ms", us as f64 / 1e3)
    }
}

/// Per-cause join of the commit to its downstream installs.
struct CauseRow {
    committed: Option<(SimTime, u32)>,
    installs: Vec<(u32, SimTime)>,
    recipients: Option<u32>,
    /// The home crashed with this quasi still in an open batch: the join
    /// is closed (no installs will ever arrive), not incomplete.
    discarded: Option<u32>,
}

impl CauseRow {
    fn empty() -> Self {
        CauseRow {
            committed: None,
            installs: Vec::new(),
            recipients: None,
            discarded: None,
        }
    }
}

/// Render the per-fragment ASCII timeline: each committed quasi-transaction
/// with its commit site and the lag of every install it caused, flagging
/// incomplete R-joins (installs still missing at the end of the run).
pub fn render_timeline(run: &TraceRun, max_rows_per_fragment: usize) -> String {
    let mut by_cause: BTreeMap<CausalId, CauseRow> = BTreeMap::new();
    for r in &run.records {
        match &r.event {
            TelemetryEvent::Committed { cause, node, .. } => {
                let row = by_cause.entry(*cause).or_insert_with(CauseRow::empty);
                row.committed = Some((r.at, *node));
            }
            TelemetryEvent::Installed { cause, node } => {
                by_cause
                    .entry(*cause)
                    .or_insert_with(CauseRow::empty)
                    .installs
                    .push((*node, r.at));
            }
            TelemetryEvent::BroadcastSent {
                cause, recipients, ..
            } => {
                by_cause
                    .entry(*cause)
                    .or_insert_with(CauseRow::empty)
                    .recipients = Some(*recipients);
            }
            TelemetryEvent::BatchDiscarded { cause, node } => {
                by_cause
                    .entry(*cause)
                    .or_insert_with(CauseRow::empty)
                    .discarded = Some(*node);
            }
            _ => {}
        }
    }

    let mut out = String::new();
    out.push_str(&format!(
        "timeline: {} (§{}) — {} events retained, {} dropped\n",
        run.scenario,
        run.section,
        run.records.len(),
        run.dropped
    ));
    for &(fid, ref name, replicas) in &run.fragments {
        let causes: Vec<(&CausalId, &CauseRow)> =
            by_cause.iter().filter(|(c, _)| c.fragment == fid).collect();
        out.push_str(&format!(
            "\nfragment {fid} ({name}) — {} commits, R={replicas}\n",
            causes
                .iter()
                .filter(|(_, row)| row.committed.is_some())
                .count(),
        ));
        if causes.is_empty() {
            out.push_str("  (no committed updates)\n");
            continue;
        }
        for (c, row) in causes.iter().take(max_rows_per_fragment) {
            let (commit_str, t0) = match row.committed {
                Some((at, node)) => (format!("{} @n{node}", fmt_micros(at.micros())), Some(at)),
                None => ("(commit evicted)".to_string(), None),
            };
            let mut installs = row.installs.clone();
            installs.sort();
            let install_str: Vec<String> = installs
                .iter()
                .map(|&(node, at)| match t0 {
                    Some(t0) => format!(
                        "n{node}+{}",
                        fmt_micros(at.micros().saturating_sub(t0.micros()))
                    ),
                    None => format!("n{node}@{}", fmt_micros(at.micros())),
                })
                .collect();
            let join = if let Some(node) = row.discarded {
                // The open batch died with its home: the join is closed,
                // not pending — downstream installs can never arrive.
                format!("  [batch DISCARDED @n{node}]")
            } else if installs.len() as u32 >= replicas {
                String::new()
            } else {
                format!("  [join {}/{replicas} INCOMPLETE]", installs.len())
            };
            out.push_str(&format!(
                "  e{}#{:<4} committed {commit_str:<14} installs: {}{join}\n",
                c.epoch,
                c.frag_seq,
                if install_str.is_empty() {
                    "-".to_string()
                } else {
                    install_str.join(" ")
                },
            ));
        }
        if causes.len() > max_rows_per_fragment {
            out.push_str(&format!(
                "  … {} more commits elided\n",
                causes.len() - max_rows_per_fragment
            ));
        }
    }
    out
}

/// Render the lag/staleness/stall summary table from the probe histograms.
pub fn render_summary(run: &TraceRun) -> String {
    let mut t = Table::new(["probe", "n", "min", "mean", "p99", "max"]);
    for (key, h) in run.metrics.histograms() {
        let dimensioned = keys::dim_matches(key, "frag.", keys::FRAG_PROBES)
            || keys::dim_matches(key, "node.", keys::NODE_PROBES);
        if !dimensioned {
            continue;
        }
        let time_valued = key.ends_with(".lag")
            || key.ends_with(".move_stall")
            || key.ends_with(".unavail_window");
        let fmt = |v: u64| {
            if time_valued {
                fmt_micros(v)
            } else {
                v.to_string()
            }
        };
        t.row([
            key.to_string(),
            h.count().to_string(),
            h.min().map_or("-".into(), &fmt),
            h.mean().map_or("-".into(), |m| fmt(m.round() as u64)),
            h.quantile(99.0).map_or("-".into(), &fmt),
            h.max().map_or("-".into(), &fmt),
        ]);
    }
    let mut out = format!("probes: {} (§{})\n", run.scenario, run.section);
    if t.is_empty() {
        out.push_str("  (no probe observations)\n");
    } else {
        out.push_str(&t.to_string());
    }
    let drops: u64 = run
        .records
        .iter()
        .map(|r| match r.event {
            TelemetryEvent::Dropped { count, .. } => count,
            _ => 0,
        })
        .sum();
    let stale_reads = run
        .records
        .iter()
        .filter(|r| {
            matches!(
                r.event,
                TelemetryEvent::ReadObserved { seen_seq, agent_seq, .. } if agent_seq > seen_seq
            )
        })
        .count();
    out.push_str(&format!(
        "network drops: {drops}   stale reads: {stale_reads}   telemetry dropped: {}\n",
        run.dropped
    ));
    out.push_str(&format!(
        "acks: {} standalone, {} piggybacked, {} suppressed ({} cumulative applications)   retransmissions: {}\n",
        run.net.acks_sent,
        run.net.acks_piggybacked,
        run.net.acks_suppressed,
        run.net.cumulative_acks,
        run.net.retransmissions,
    ));
    out
}

/// Render the run as JSON lines (scenario header comment, drop marker when
/// the buffer wrapped, then one flat object per event).
pub fn render_jsonl(run: &TraceRun) -> String {
    telemetry::render_jsonl(Some((run.scenario, run.section)), run.dropped, &run.records)
}

/// Metric keys present in `metrics` that the registry does not know.
pub fn unregistered_metric_keys(metrics: &Metrics) -> Vec<String> {
    let mut bad: Vec<String> = metrics
        .counters()
        .map(|(k, _)| k)
        .chain(metrics.histograms().map(|(k, _)| k))
        .filter(|k| !keys::is_registered(k))
        .map(str::to_string)
        .collect();
    bad.dedup();
    bad
}

// ---- JSONL validation ----------------------------------------------------

/// Summary statistics from a validated JSONL export.
pub struct JsonlStats {
    /// Event lines (comments excluded).
    pub events: usize,
    /// Count per event name.
    pub by_event: BTreeMap<&'static str, usize>,
}

/// Validate a JSONL export: it must be what `telemetry::read_jsonl`
/// accepts (every line decodes strictly, `at_micros` never decreases
/// within a scenario, at least one event). A file holding several
/// scenarios is checked scenario by scenario.
pub fn validate_jsonl(text: &str) -> Result<JsonlStats, String> {
    let mut stats = JsonlStats {
        events: 0,
        by_event: BTreeMap::new(),
    };
    telemetry::read_jsonl(text, |entry| {
        if let JsonlEntry::Record(r) = entry {
            stats.events += 1;
            *stats.by_event.entry(r.event.name()).or_insert(0) += 1;
        }
        Ok(())
    })?;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_names_resolve() {
        for name in SCENARIOS {
            assert!(run_scenario(name, 7, true).is_some(), "{name} must resolve");
        }
        assert!(run_scenario("nope", 7, true).is_none());
    }

    #[test]
    fn fault_free_locks_run_is_clean() {
        let run = read_locks_fixed(42, true);
        assert!(!run.records.is_empty());
        let drops = run
            .records
            .iter()
            .filter(|r| matches!(r.event, TelemetryEvent::Dropped { .. }))
            .count();
        assert_eq!(drops, 0, "fault-free run must not drop packets");
        for r in &run.records {
            if let TelemetryEvent::ReadObserved {
                seen_seq,
                agent_seq,
                ..
            } = r.event
            {
                assert_eq!(seen_seq, agent_seq, "§4.1 locked reads must never be stale");
            }
        }
        assert_eq!(run.dropped, 0);
    }

    #[test]
    fn jsonl_roundtrip_validates() {
        let run = read_locks_fixed(42, true);
        let text = render_jsonl(&run);
        let stats = validate_jsonl(&text).expect("export must satisfy its own schema");
        assert_eq!(stats.events, run.records.len());
        assert!(stats.by_event.contains_key("committed"));
    }

    /// `--validate` and span reconstruction read exports through the same
    /// decoder, so on a single-run file they accept and reject alike, with
    /// the same message naming the line.
    #[test]
    fn validator_and_span_reader_reject_the_same_lines() {
        use fragdb_obs::SpanReport;
        let ok = "{\"at_micros\":5,\"event\":\"crash\",\"node\":1}";
        let both = |text: &str| {
            let validated = validate_jsonl(text).map(|s| s.events);
            let replayed = SpanReport::from_jsonl(text).map(|_| ());
            assert_eq!(validated.clone().err(), replayed.err(), "{text}");
            validated
        };
        assert_eq!(both(ok), Ok(1));
        assert_eq!(
            both(&format!("# scenario: x section: 1\n\n# note\n{ok}\n")),
            Ok(1)
        );

        assert_eq!(both(""), Err("no event lines".to_string()));
        assert_eq!(both("# a comment\n"), Err("no event lines".to_string()));

        let rejected: &[(&str, &str)] = &[
            ("not json", "expected field \"at_micros\""),
            (
                "{\"event\":\"crash\",\"node\":1}",
                "expected field \"at_micros\"",
            ),
            (
                "{\"at_micros\":1,\"node\":1}",
                "expected field \"event\", found field \"node\"",
            ),
            (
                "{\"at_micros\":1,\"event\":\"mystery\"}",
                "unknown event \"mystery\"",
            ),
            // Missing, extra, duplicate and out-of-order fields.
            (
                "{\"at_micros\":1,\"event\":\"crash\"}",
                "expected field \"node\", found the end of the object",
            ),
            (
                "{\"at_micros\":1,\"event\":\"crash\",\"node\":2,\"x\":3}",
                "expected the end of the object, found field \"x\"",
            ),
            (
                "{\"at_micros\":1,\"event\":\"crash\",\"node\":2,\"node\":2}",
                "expected the end of the object, found field \"node\"",
            ),
            (
                "{\"at_micros\":1,\"event\":\"token_arrived\",\"node\":2,\"fragment\":0}",
                "expected field \"fragment\", found field \"node\"",
            ),
            (
                "{\"at_micros\":1,\"event\":\"crash\",\"node\":2} ",
                "expected the end of the object",
            ),
            // Mistyped values.
            (
                "{\"at_micros\":1,\"event\":\"crash\",\"node\":\"x\"}",
                "field \"node\": expected a number",
            ),
            (
                "{\"at_micros\":\"1\",\"event\":\"crash\",\"node\":1}",
                "field \"at_micros\": expected a number",
            ),
            (
                "{\"at_micros\":1,\"event\":7,\"node\":1}",
                "field \"event\": expected a string",
            ),
            (
                "{\"at_micros\":1,\"event\":\"delivered\",\"from\":0,\"to\":1,\"kind\":3}",
                "field \"kind\": expected a string",
            ),
            (
                "{\"at_micros\":1,\"event\":\"crash\",\"node\":-1}",
                "field \"node\": expected a number",
            ),
            (
                "{\"at_micros\":1,\"event\":\"crash\",\"node\":01}",
                "field \"node\": expected a number",
            ),
            (
                "{\"at_micros\":1,\"event\":\"crash\",\"node\":1.5}",
                "expected the end of the object",
            ),
            // Out-of-range values: the old reader wrapped this one to node 0.
            (
                "{\"at_micros\":1,\"event\":\"crash\",\"node\":4294967296}",
                "field \"node\": 4294967296 exceeds u32",
            ),
            (
                "{\"at_micros\":1,\"event\":\"recover\",\"node\":1,\"behind_fragments\":18446744073709551616}",
                "field \"behind_fragments\": 18446744073709551616 exceeds u64",
            ),
            // Words outside their closed vocabularies.
            (
                "{\"at_micros\":1,\"event\":\"aborted\",\"node\":1,\"fragment\":0,\"txn_seq\":0,\"reason\":\"node_down\"}",
                "unknown reason \"node_down\"",
            ),
            (
                "{\"at_micros\":1,\"event\":\"election_aborted\",\"fragment\":0,\"epoch\":1,\"reason\":\"deadlock\"}",
                "unknown reason \"deadlock\"",
            ),
            (
                "{\"at_micros\":1,\"event\":\"delivered\",\"from\":0,\"to\":1,\"kind\":\"bogus\"}",
                "unknown kind \"bogus\"",
            ),
        ];
        for (bad, why) in rejected {
            // The bad line goes third, so the error must say "line 3".
            let text = format!("# scenario: x section: 1\n{ok}\n{bad}\n");
            let err = both(&text).expect_err(bad);
            assert!(err.contains(why), "{bad}: {err}");
            assert!(err.starts_with("line 3: "), "{err}");
        }
        let err = both(&format!("{ok}\n{}\n", ok.replace('5', "4"))).unwrap_err();
        assert_eq!(err, "line 2: at_micros 4 decreases (previous 5)");

        // The one documented difference: a file of several runs validates
        // run by run (virtual time restarts), but spans refuse to merge runs
        // whose causal ids collide.
        let two_runs = format!(
            "# scenario: a section: 1\n{ok}\n# scenario: b section: 2\n{}\n",
            ok.replace('5', "4")
        );
        assert_eq!(validate_jsonl(&two_runs).unwrap().events, 2);
        let err = SpanReport::from_jsonl(&two_runs).err().unwrap();
        assert!(
            err.starts_with("line 3: second `# scenario:` header"),
            "{err}"
        );
    }

    #[test]
    fn renderers_mention_fragments_and_probes() {
        let run = unrestricted_faults(42, true);
        let timeline = render_timeline(&run, 5);
        assert!(timeline.contains("fragment 0"));
        assert!(timeline.contains("committed"));
        let summary = render_summary(&run);
        assert!(
            summary.contains(".lag"),
            "summary must show lag probes:\n{summary}"
        );
        assert!(
            summary.contains(".staleness"),
            "summary must show staleness probes:\n{summary}"
        );
    }

    #[test]
    fn self_heal_scenario_recovers_the_token() {
        let run = self_heal(42, true);
        let recovered = run
            .records
            .iter()
            .any(|r| matches!(r.event, TelemetryEvent::TokenRecovered { .. }));
        assert!(recovered, "the election must re-home the crashed token");
        let h = run
            .metrics
            .histograms()
            .find(|(k, _)| k.ends_with(".unavail_window"))
            .map(|(_, h)| h)
            .expect("unavailability window observed");
        assert!(h.count() >= 1);
        // The export (including the six §5 events) satisfies its schema.
        let stats = validate_jsonl(&render_jsonl(&run)).expect("schema-valid");
        assert!(stats.by_event.contains_key("election_started"));
        assert!(stats.by_event.contains_key("token_recovered"));
        let summary = render_summary(&run);
        assert!(
            summary.contains(".unavail_window"),
            "summary must show the §5 probe:\n{summary}"
        );
    }

    #[test]
    fn all_scenario_metric_keys_are_registered() {
        for name in SCENARIOS {
            let run = run_scenario(name, 42, true).unwrap();
            let bad = unregistered_metric_keys(&run.metrics);
            assert!(bad.is_empty(), "{name}: unregistered metric keys: {bad:?}");
        }
    }
}
