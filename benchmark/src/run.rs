//! Orchestration: repetitions as child processes, the correctness gate over
//! their records, and the assembly of end-to-end samples and the per-layer
//! ledger.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::declared::Metric;
use crate::json::{self, Json};
use crate::layers;
use crate::rep::{get, Mode, Record, RepSpec, BUCKETS, DETERMINISTIC};
use crate::spec::Workload;
use crate::stats;

/// A run holds at least this many timed repetitions, so that the host has
/// several chances to leave one alone and set-up is measured several times.
const MIN_REPS: usize = 3;
/// Stop starting repetitions once a run has lasted this long, whatever
/// `--seconds` says: the driver kills a run at 180 s.
const RUN_CAP_S: f64 = 110.0;

/// Everything one workload produced in one invocation.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    pub workload: String,
    pub seed: u64,
    /// Every oracle held on every repetition.
    pub correct: bool,
    /// What failed, in words; empty when `correct`.
    pub problems: Vec<String>,
    /// Operations offered to the system in one repetition (arrivals).
    pub attempted: u64,
    /// Of those, the ones that had neither committed nor finished reading
    /// by the drain limit.
    pub failed: u64,
    /// End-to-end metrics: one sample per timed repetition.
    pub end_to_end: BTreeMap<String, Vec<f64>>,
    /// The per-layer ledger (empty on a run that did not trace).
    pub per_layer: BTreeMap<String, f64>,
    /// The traced pass's own loop, which its step buckets sum to.
    pub traced_loop_s: f64,
    /// Whether the workload's timed loop runs with telemetry on, so that
    /// telemetry's cost is part of it.
    pub telemetry_in_loop: bool,
}

/// How a run executes one repetition: [`child`] outside tests, which must
/// stay inside their own process.
pub type Runner<'a> = &'a dyn Fn(RepSpec) -> Result<Record, String>;

/// Run one repetition in a process of its own and read back its record.
pub fn child(spec: RepSpec) -> Result<Record, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("rep")
        .args(["--workload", spec.workload.name()])
        .args(["--seed", &spec.seed.to_string()])
        .args(["--mode", spec.mode.name()])
        .args(["--id", &spec.id.to_string()])
        .args(["--mini", if spec.mini { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    // `output` waits for the child to end before it returns.
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start a repetition: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{} {} repetition ended with {}",
            spec.workload.name(),
            spec.mode.name(),
            out.status
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().ok_or("a repetition printed nothing")?;
    let doc = json::parse(line)?;
    let fields = doc
        .as_obj()
        .ok_or("a repetition's record is not an object")?;
    Ok(fields
        .iter()
        .filter_map(|(k, v)| v.as_f64().map(|n| (k.clone(), n)))
        .collect())
}

/// Render a record as the one line a child prints.
pub fn render_record(rec: &Record) -> String {
    Json::Obj(
        rec.iter()
            .map(|(k, v)| (k.clone(), Json::Num(*v)))
            .collect(),
    )
    .render()
}

/// The correctness gate. `reps` are the labelled records of one (workload,
/// seed); every oracle must hold on each, and the deterministic counters
/// must agree across all of them.
pub fn judge(reps: &[(String, &Record)]) -> Vec<String> {
    let mut problems = Vec::new();
    for (label, rec) in reps {
        let mut require = |ok: bool, what: &str| {
            if !ok {
                problems.push(format!("{label}: {what}"));
            }
        };
        require(
            get(rec, "divergent") == 0.0,
            "replicas diverge at quiescence",
        );
        require(
            get(rec, "parked") == 0.0,
            "submissions still parked at the drain limit",
        );
        require(
            get(rec, "final_aborts") == 0.0,
            "an operation was refused for good",
        );
        // Conservation: everything generated was submitted, and every
        // submission ended as a commit, a finished read or an abort.
        require(
            get(rec, "commits") + get(rec, "reads") + get(rec, "aborts") + get(rec, "parked")
                == get(rec, "arrivals") + get(rec, "retries"),
            "a submission was lost: neither committed, read, aborted nor parked",
        );
        require(
            get(rec, "reads") == get(rec, "read_arrivals"),
            "a read did not finish at its first attempt",
        );
        require(
            get(rec, "lag_top_percentile") >= 99.0,
            "fewer than ten lag samples lie beyond the 99th percentile",
        );
        if rec.contains_key("fragmentwise_serializable") {
            require(
                get(rec, "fragmentwise_serializable") == 1.0,
                "the history is not fragmentwise serializable",
            );
        }
        if rec.contains_key("obs.roundtrip_equal") {
            require(
                get(rec, "obs.roundtrip_equal") == 1.0,
                "spans rebuilt from the JSONL export differ from the in-memory ones",
            );
        }
        // Two measurements of the same lag: the exact one taken from the
        // notifications and telemetry's sketch, whose buckets are 2⁻⁵ wide
        // and which also counts each home's own zero-lag install.
        if get(rec, "sim.telemetry.lag_samples") > 0.0 {
            let (exact, sketch) = (get(rec, "lag_p99_us"), get(rec, "sim.telemetry.lag_p99_us"));
            require(
                (exact - sketch).abs() <= 0.05 * exact,
                "telemetry's lag sketch and the notifications disagree on the p99",
            );
        }
        if rec.contains_key("oracles_agree") {
            require(
                get(rec, "oracles_agree") == 1.0,
                "the batch and the incremental analyzer disagree",
            );
        }
    }
    if let Some((first_label, first)) = reps.first() {
        for (label, rec) in &reps[1..] {
            for key in DETERMINISTIC {
                if get(first, key) != get(rec, key) {
                    problems.push(format!(
                        "{key} is {} on {first_label} but {} on {label}: the run is not a function of its seed",
                        get(first, key),
                        get(rec, key)
                    ));
                }
            }
        }
    }
    problems
}

fn finish(mut outcome: Outcome, labelled: &[(String, &Record)]) -> Outcome {
    outcome.problems = judge(labelled);
    outcome.correct = outcome.problems.is_empty();
    if let Some((_, first)) = labelled.first() {
        outcome.attempted = get(first, "arrivals") as u64;
        outcome.failed = labelled
            .iter()
            .map(|(_, r)| get(r, "failed") as u64)
            .max()
            .unwrap_or(0);
    }
    outcome
}

/// The untraced pass: timed repetitions until they have measured for
/// `seconds`, at least [`MIN_REPS`] of them. Every end-to-end metric gets
/// one sample per repetition.
pub fn end_to_end(
    workload: Workload,
    seed: u64,
    seconds: f64,
    mini: bool,
    metrics: &[Metric],
    runner: Runner,
) -> Result<Outcome, String> {
    let started = Instant::now();
    let mut reps: Vec<Record> = Vec::new();
    let mut measured = 0.0;
    while reps.len() < MIN_REPS
        || (measured < seconds && started.elapsed().as_secs_f64() < RUN_CAP_S)
    {
        let rec = runner(RepSpec {
            workload,
            seed,
            mini,
            mode: Mode::Timed,
            id: reps.len() as u64,
        })?;
        measured += get(&rec, "wall_s");
        reps.push(rec);
    }
    let mut outcome = Outcome {
        workload: workload.name().to_string(),
        seed,
        ..Outcome::default()
    };
    for Metric { name, .. } in metrics {
        let samples = reps
            .iter()
            .map(|r| {
                r.get(name)
                    .copied()
                    .ok_or_else(|| format!("no repetition measured {name}"))
            })
            .collect::<Result<Vec<f64>, String>>()?;
        outcome.end_to_end.insert(name.clone(), samples);
    }
    let labelled: Vec<(String, &Record)> = reps
        .iter()
        .enumerate()
        .map(|(i, r)| (format!("timed repetition {i}"), r))
        .collect();
    Ok(finish(outcome, &labelled))
}

/// The traced pass: two untraced repetitions (the base the overheads are
/// taken against), one traced, one observed, then the layer drivers.
pub fn per_layer(
    workload: Workload,
    seed: u64,
    mini: bool,
    runner: Runner,
) -> Result<Outcome, String> {
    let shape = workload.shape(mini);
    let rep = |mode, id| RepSpec {
        workload,
        seed,
        mini,
        mode,
        id,
    };
    let timed = [runner(rep(Mode::Timed, 0))?, runner(rep(Mode::Timed, 1))?];
    let traced = runner(rep(Mode::Traced, 2))?;
    let observed = runner(rep(Mode::Observed, 3))?;
    // Telemetry on and off: which pass is which depends on the workload.
    let (on, off) = if shape.telemetry {
        (&timed[0], &observed)
    } else {
        (&observed, &timed[0])
    };
    let drivers = layers::drive(
        workload,
        &shape,
        seed,
        &timed[0],
        get(on, "sim.telemetry.records") as u64,
    );

    let all = [&timed[0], &timed[1], &traced, &observed];
    let median_of = |key: &str| stats::median(&all.map(|r| get(r, key)));
    let loop_s = stats::median(&[
        get(&timed[0], "core.loop.busy_s"),
        get(&timed[1], "core.loop.busy_s"),
    ]);
    let first = &timed[0];
    let mut ledger: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        ledger.insert(k.to_string(), v);
    };
    let ratio = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };

    for bucket in BUCKETS {
        for leaf in ["count", "busy_s"] {
            let key = format!("core.step.{bucket}.{leaf}");
            put(&key, get(&traced, &key));
        }
    }
    put("core.loop.busy_s", loop_s);
    put("core.build.busy_s", median_of("core.build.busy_s"));
    put("core.queued_peak", get(&traced, "core.queued_peak"));
    put("core.election.rounds", get(first, "election_rounds"));
    put("client.aborts", get(first, "aborts"));
    put("client.retries", get(first, "retries"));
    put(
        "trace.overhead_frac",
        ratio(get(&traced, "core.loop.busy_s"), loop_s) - 1.0,
    );

    let (events, commits) = (get(first, "events"), get(first, "commits"));
    put("sim.engine.events", events);
    put("sim.engine.events_per_s", ratio(events, loop_s));
    put("sim.engine.events_per_commit", ratio(events, commits));
    put("sim.engine.peak_pending", get(first, "peak_pending"));
    put(
        "sim.engine.pool_reuse_frac",
        ratio(get(first, "pool_reuse"), events),
    );

    put("sim.telemetry.records", get(on, "sim.telemetry.records"));
    put("sim.telemetry.dropped", get(on, "sim.telemetry.dropped"));
    put(
        "sim.telemetry.overhead_frac",
        ratio(get(on, "core.loop.busy_s"), get(off, "core.loop.busy_s")) - 1.0,
    );

    put("net.topology.build_s", median_of("net.topology.build_s"));
    let transmissions = get(first, "net.transmissions");
    put("net.reliable.transmissions", transmissions);
    put(
        "net.reliable.retransmit_frac",
        ratio(get(first, "net.retransmissions"), transmissions),
    );
    let piggybacked = get(first, "net.acks_piggybacked");
    put(
        "net.reliable.acks_piggybacked_frac",
        ratio(piggybacked, piggybacked + get(first, "net.acks_sent")),
    );
    put("net.reliable.dup_dropped", get(first, "net.dup_dropped"));
    put("net.broadcast.delivered", get(first, "net.delivered"));
    put(
        "net.broadcast.holdback_p99_us",
        get(on, "net.broadcast.holdback_p99_us"),
    );
    put("net.detector.heartbeats", get(first, "heartbeats"));
    put("net.detector.suspicions", get(first, "suspicions"));

    put("storage.replica.commits", commits);
    put("storage.replica.installs", get(first, "installs"));
    put(
        "storage.wal.entries_max",
        get(first, "storage.wal.entries_max"),
    );
    put("model.history.ops", get(first, "history_len"));

    for key in [
        "graphs.incremental.ops",
        "graphs.incremental.edge_insertions",
        "graphs.incremental.busy_s",
        "verify_s",
        "failed_frac",
        "recovery_us",
    ] {
        put(key, get(first, key));
    }
    put(
        "graphs.incremental.ns_per_op",
        ratio(
            get(first, "graphs.incremental.busy_s") * 1e9,
            get(first, "graphs.incremental.ops"),
        ),
    );
    put("unavail_us", get(on, "unavail_us"));
    for key in [
        "obs.spans.count",
        "obs.spans.truncated",
        "obs.spans.busy_s",
        "obs.jsonl.bytes",
        "obs.jsonl.render_s",
        "obs.jsonl.parse_s",
    ] {
        put(key, get(on, key));
    }
    put(
        "workloads.arrivals.count",
        get(first, "workloads.arrivals.count"),
    );
    put(
        "workloads.arrivals.busy_s",
        median_of("workloads.arrivals.busy_s"),
    );
    put(
        "check.admission.busy_s",
        median_of("check.admission.busy_s"),
    );

    // What the loop took beyond what the layers under `System::handle`
    // account for. Telemetry is in the loop only where the workload runs
    // with it on.
    let accounted: f64 = LAYERS_IN_HANDLE
        .iter()
        .filter(|k| shape.telemetry || **k != TELEMETRY_LAYER)
        .map(|k| get(&drivers, k))
        .sum();
    put("core.residual_s", loop_s - accounted);
    for (k, v) in &drivers {
        put(k, *v);
    }

    let outcome = Outcome {
        workload: workload.name().to_string(),
        seed,
        per_layer: ledger,
        traced_loop_s: get(&traced, "core.loop.busy_s"),
        telemetry_in_loop: shape.telemetry,
        ..Outcome::default()
    };
    let labelled = [
        ("timed repetition 0".to_string(), &timed[0]),
        ("timed repetition 1".to_string(), &timed[1]),
        ("traced pass".to_string(), &traced),
        ("observed pass".to_string(), &observed),
    ];
    Ok(finish(outcome, &labelled))
}

/// The layers called only inside `System::handle`, whose drivers' `busy_s`
/// the residual is taken against.
pub const LAYERS_IN_HANDLE: &[&str] = &[
    "sim.engine.busy_s",
    "net.topology.busy_s",
    "net.reliable.busy_s",
    "net.broadcast.busy_s",
    "storage.replica.busy_s",
    "storage.locks.busy_s",
    "model.history.busy_s",
    TELEMETRY_LAYER,
];
/// In the loop only on a workload whose timed repetitions run with
/// telemetry on.
pub const TELEMETRY_LAYER: &str = "sim.telemetry.busy_s";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::declared::Declared;
    use crate::rep;

    /// Repetitions inside the test's own process.
    fn in_process(spec: RepSpec) -> Result<Record, String> {
        Ok(rep::run(spec).0)
    }

    #[test]
    fn every_declared_name_is_emitted_and_nothing_else() {
        let declared = Declared::load();
        // The smallest workload that still walks every code path of a run.
        let workload = Workload::ChaosObserved;
        let e2e = end_to_end(workload, 42, 0.0, true, &declared.end_to_end, &in_process).unwrap();
        assert!(e2e.correct, "{:?}", e2e.problems);
        assert_eq!(e2e.failed, 0);
        for m in &declared.end_to_end {
            let samples = &e2e.end_to_end[&m.name];
            assert_eq!(samples.len(), MIN_REPS, "{}", m.name);
            assert!(
                samples.iter().all(|v| *v > 0.0),
                "{} must never be 0",
                m.name
            );
        }
        assert_eq!(e2e.end_to_end.len(), declared.end_to_end.len());

        let layers = per_layer(workload, 42, true, &in_process).unwrap();
        assert!(layers.correct, "{:?}", layers.problems);
        let declared_names: Vec<&str> =
            declared.per_layer.iter().map(|m| m.name.as_str()).collect();
        for name in &declared_names {
            assert!(
                layers.per_layer.contains_key(*name),
                "{name} is declared but not emitted"
            );
        }
        for name in layers.per_layer.keys() {
            assert!(
                declared_names.contains(&name.as_str()),
                "{name} is emitted but not declared"
            );
        }
        // The driver's last line carries exactly the declared metrics.
        let line = crate::report::driver_line(&layers, &declared.per_layer, true).unwrap();
        let doc = json::parse(&line).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            doc.get("metrics").unwrap().as_obj().unwrap().len(),
            declared.per_layer.len()
        );
    }

    #[test]
    fn step_buckets_sum_to_the_traced_loop() {
        let (rec, tracer) = rep::run(RepSpec {
            workload: Workload::DenseFew,
            seed: 42,
            mini: true,
            mode: Mode::Traced,
            id: 0,
        });
        let buckets: f64 = BUCKETS
            .iter()
            .map(|b| get(&rec, &format!("core.step.{b}.busy_s")))
            .sum();
        let loop_s = get(&rec, "core.loop.busy_s");
        // The loop holds one more `step_until` call (the one that returns
        // `None`) and two clock readings the buckets do not.
        assert!(
            buckets <= loop_s,
            "buckets {buckets} exceed the loop {loop_s}"
        );
        assert!(
            loop_s - buckets < 0.001 + 0.01 * loop_s,
            "buckets {buckets} of loop {loop_s}"
        );
        let steps: f64 = BUCKETS
            .iter()
            .map(|b| get(&rec, &format!("core.step.{b}.count")))
            .sum();
        assert_eq!(steps, get(&rec, "events"));
        // The trace holds the run → setup/loop/post tree and the buckets.
        for name in [
            "run",
            "setup",
            "topology",
            "admission",
            "build",
            "generate",
            "loop",
            "post",
        ] {
            assert!(
                tracer.spans.iter().any(|s| s.name == name),
                "no {name} span"
            );
        }
        assert!(tracer
            .spans
            .iter()
            .any(|s| s.name == "steps.commit" && s.count > 0));
    }

    #[test]
    fn the_seed_reaches_the_generators_and_only_them() {
        let run = |seed| {
            rep::run(RepSpec {
                workload: Workload::DenseFew,
                seed,
                mini: true,
                mode: Mode::Timed,
                id: 1,
            })
            .0
        };
        let (a, b, other) = (run(7), run(7), run(8));
        for key in DETERMINISTIC {
            assert_eq!(
                get(&a, key),
                get(&b, key),
                "{key} differs between two runs of seed 7"
            );
        }
        // Same amount of work, different inputs: who reads and who writes
        // follows the ranks drawn, link delays follow the mesh's stream.
        assert_eq!(get(&a, "arrivals"), get(&other, "arrivals"));
        assert_ne!(get(&a, "commits"), get(&other, "commits"));
        assert_ne!(get(&a, "lag_p50_us"), get(&other, "lag_p50_us"));
    }

    #[test]
    fn the_gate_names_what_failed() {
        let good: Record = [
            ("arrivals", 10.0),
            ("commits", 8.0),
            ("reads", 2.0),
            ("read_arrivals", 2.0),
            ("lag_top_percentile", 99.0),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
        assert!(judge(&[("a".into(), &good)]).is_empty());
        let mut bad = good.clone();
        bad.insert("divergent".into(), 1.0);
        bad.insert("commits".into(), 7.0);
        let problems = judge(&[("a".into(), &good), ("b".into(), &bad)]);
        assert!(problems.iter().any(|p| p.contains("diverge")));
        assert!(problems.iter().any(|p| p.contains("lost")));
        assert!(problems
            .iter()
            .any(|p| p.contains("not a function of its seed")));
    }
}
