//! One repetition of one workload: set up, drive the system to its drain
//! limit, post-process, check the oracles, and hand back every number as a
//! flat record. A repetition runs in a process of its own, so its peak
//! resident set is its own.

use std::collections::BTreeMap;

use fragdb_core::{Notification, System};
use fragdb_graphs::IncrementalAnalyzer;
use fragdb_model::{NodeId, TxnId};
use fragdb_obs::SpanReport;
use fragdb_sim::metrics::keys;
use fragdb_sim::SimTime;

use crate::spec::{self, Client, Workload};
use crate::stats;
use crate::trace::{SpanId, Tracer};

/// Name → value. Counts are exact in `f64` far beyond any run's size.
pub type Record = BTreeMap<String, f64>;

/// A record's value, 0 where the repetition had nothing to say.
pub fn get(rec: &Record, key: &str) -> f64 {
    rec.get(key).copied().unwrap_or(0.0)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Untraced; the only source of end-to-end host metrics.
    Timed,
    /// Every `step_until` call timed and bucketed; spans written out.
    Traced,
    /// Telemetry flipped against the workload's default: on for the three
    /// workloads that run without it, off for `chaos-observed`.
    Observed,
}

impl Mode {
    pub fn name(self) -> &'static str {
        match self {
            Mode::Timed => "timed",
            Mode::Traced => "traced",
            Mode::Observed => "observed",
        }
    }

    pub fn parse(name: &str) -> Option<Mode> {
        [Mode::Timed, Mode::Traced, Mode::Observed]
            .into_iter()
            .find(|m| m.name() == name)
    }
}

#[derive(Clone, Copy, Debug)]
pub struct RepSpec {
    pub workload: Workload,
    pub seed: u64,
    pub mini: bool,
    pub mode: Mode,
    /// The repetition's place in its run, and the trace id of its spans.
    pub id: u64,
}

impl RepSpec {
    /// Whether this repetition takes the fragmentwise-serializability
    /// verdict. It is quadratic in the history, so at full size only the
    /// workload whose faults can break serializability pays for it, and
    /// only once per run: every repetition replays the same history. A mini
    /// shape also runs the batch analyzer and requires that the two agree.
    fn takes_verdict(&self) -> bool {
        self.id == 0 && (self.mini || self.workload == Workload::ChaosObserved)
    }
}

/// Counters every repetition of one (workload, seed) must reproduce
/// exactly, with telemetry on or off, traced or not: the simulation is a
/// function of its inputs, and host-side observation must not perturb it.
pub const DETERMINISTIC: &[&str] = &[
    "arrivals",
    "commits",
    "reads",
    "installs",
    "aborts",
    "retries",
    "served_frac",
    "failed",
    "parked",
    "divergent",
    "events",
    "history_len",
    "net.transmissions",
    "net.acks_sent",
    "lag_samples",
    "lag_p50_us",
    "lag_p99_us",
    "msgs_per_commit",
];

/// The step buckets: a `step_until` call is charged to the first of these
/// its notifications match.
pub const BUCKETS: [&str; 4] = ["commit", "install", "silent", "other"];

#[derive(Default)]
struct Tally {
    commits: u64,
    reads: u64,
    installs: u64,
    aborts: u64,
    retries: u64,
    final_aborts: u64,
    /// Commit instants by `[origin node][node-local sequence]`; transaction
    /// sequences are dense per node, so this is a table, not a map.
    commit_at: Vec<Vec<SimTime>>,
    /// Commit → install lag of every remote install, in µs of virtual time.
    lags: Vec<u32>,
}

impl Tally {
    fn note_commit(&mut self, txn: TxnId, at: SimTime) {
        let (origin, seq) = (txn.origin.0 as usize, txn.seq as usize);
        if self.commit_at.len() <= origin {
            self.commit_at.resize(origin + 1, Vec::new());
        }
        let row = &mut self.commit_at[origin];
        if row.len() <= seq {
            row.resize(seq + 1, SimTime::MAX);
        }
        row[seq] = at;
    }

    fn committed_at(&self, txn: TxnId) -> Option<SimTime> {
        self.commit_at
            .get(txn.origin.0 as usize)
            .and_then(|row| row.get(txn.seq as usize))
            .copied()
            .filter(|at| *at != SimTime::MAX)
    }
}

#[derive(Default)]
struct Steps {
    n: u64,
    count: [u64; 4],
    busy_ns: [u64; 4],
    /// Every 1024th step as `(start_ns, end_ns, bucket)`.
    sampled: Vec<(u64, u64, usize)>,
    queued_peak: usize,
}

/// Pump the system to `limit`. The loop is the same traced or not; the
/// traced instantiation reads the clock once per step and charges the
/// interval since the previous reading to the step's bucket, so the buckets
/// sum to the loop.
fn drive<const TRACED: bool>(
    sys: &mut System,
    client: &Client,
    limit: SimTime,
    tally: &mut Tally,
    steps: &mut Steps,
    tracer: &Tracer,
) {
    let mut last = if TRACED { tracer.now_ns() } else { 0 };
    while let Some((at, notes)) = sys.step_until(limit) {
        let (mut commit, mut install) = (false, false);
        let silent = notes.is_empty();
        for note in notes {
            match note {
                Notification::Committed { txn, at, .. } => {
                    commit = true;
                    tally.commits += 1;
                    tally.note_commit(txn, at);
                    client.on_commit(txn);
                }
                Notification::Installed { quasi, at, .. } => {
                    install = true;
                    tally.installs += 1;
                    // A transaction resurrected by an elected successor has
                    // no commit notification to pair with; it has no lag.
                    if let Some(committed) = tally.committed_at(quasi.txn) {
                        let lag = (at - committed).micros();
                        tally.lags.push(u32::try_from(lag).unwrap_or(u32::MAX));
                    }
                }
                Notification::ReadFinished { .. } => tally.reads += 1,
                Notification::Aborted { txn, reason, .. } => {
                    tally.aborts += 1;
                    match client.on_abort(txn, &reason) {
                        Some((delay, again)) => {
                            tally.retries += 1;
                            sys.submit_at(at + delay, again);
                        }
                        None => tally.final_aborts += 1,
                    }
                }
                _ => {}
            }
        }
        if TRACED {
            let now = tracer.now_ns();
            let bucket = if commit {
                0
            } else if install {
                1
            } else if silent {
                2
            } else {
                3
            };
            steps.count[bucket] += 1;
            steps.busy_ns[bucket] += now - last;
            if steps.n.is_multiple_of(1024) {
                steps.sampled.push((last, now, bucket));
            }
            steps.n += 1;
            steps.queued_peak = steps.queued_peak.max(sys.queued_submissions());
            last = now;
        }
    }
}

/// Run one repetition. Panics if an oracle that must hold on every run
/// fails to even be evaluated (admission, build); oracle *verdicts* are
/// returned in the record for the caller to judge.
pub fn run(spec: RepSpec) -> (Record, Tracer) {
    let RepSpec { workload, mode, .. } = spec;
    let shape = workload.shape(spec.mini);
    let telemetry = shape.telemetry != (mode == Mode::Observed);
    let mut rec = Record::new();
    let mut put = |k: &str, v: f64| {
        rec.insert(k.to_string(), v);
    };
    let mut tracer = Tracer::new(spec.id);
    let run_span = tracer.open("run", None);

    // ---- set-up ----------------------------------------------------------
    let setup_span = tracer.open("setup", Some(run_span));
    let built = spec::build(
        workload,
        &shape,
        spec.seed,
        telemetry,
        &mut tracer,
        setup_span,
    );
    put("setup_s", tracer.close(setup_span));
    put("net.topology.build_s", built.topology_s);
    put("check.admission.busy_s", built.admission_s);
    put("core.build.busy_s", built.build_s);
    put("workloads.arrivals.busy_s", built.generate_s);
    put("workloads.arrivals.count", shape.arrivals as f64);
    put("read_arrivals", built.read_arrivals as f64);
    let spec::Built {
        mut sys,
        client,
        last_arrival,
        ..
    } = built;

    // ---- the loop --------------------------------------------------------
    let limit = last_arrival + shape.drain;
    let mut tally = Tally::default();
    let mut steps = Steps::default();
    let loop_span = tracer.open("loop", Some(run_span));
    if mode == Mode::Traced {
        drive::<true>(&mut sys, &client, limit, &mut tally, &mut steps, &tracer);
    } else {
        drive::<false>(&mut sys, &client, limit, &mut tally, &mut steps, &tracer);
    }
    let loop_s = tracer.close(loop_span);
    put("core.loop.busy_s", loop_s);
    if mode == Mode::Traced {
        record_steps(&steps, loop_span, &mut tracer, &mut put);
    }

    // ---- post: what an observed run pays after the loop ------------------
    let post_span = tracer.open("post", Some(run_span));
    let mut obs_s = 0.0;
    if telemetry {
        let (report, spans_s) = tracer.time("obs.spans", Some(post_span), || {
            SpanReport::from_records(sys.engine.telemetry.events())
        });
        let (jsonl, render_s) = tracer.time("obs.render", Some(post_span), || {
            sys.engine.telemetry.render_jsonl()
        });
        let (parsed, parse_s) = tracer.time("obs.parse", Some(post_span), || {
            SpanReport::from_jsonl(&jsonl)
        });
        let parsed = parsed.unwrap_or_else(|e| panic!("exported telemetry must parse: {e}"));
        obs_s = spans_s + render_s + parse_s;
        put("obs.spans.busy_s", spans_s);
        put("obs.jsonl.render_s", render_s);
        put("obs.jsonl.parse_s", parse_s);
        put("obs.jsonl.bytes", jsonl.len() as f64);
        put("obs.spans.count", report.len() as f64);
        put("obs.spans.truncated", report.truncated as f64);
        put(
            "obs.roundtrip_equal",
            f64::from(parsed.len() == report.len() && parsed.complete == report.complete),
        );
        put(
            "net.broadcast.holdback_p99_us",
            report.phase_quantile("holdback", 99.0) as f64,
        );
        let sketch = sys.engine.telemetry.probes().lag_sketch();
        put("sim.telemetry.lag_samples", sketch.count() as f64);
        put(
            "sim.telemetry.lag_p99_us",
            sketch.quantile(99.0).unwrap_or(0) as f64,
        );
    }
    put("sim.telemetry.records", sys.engine.telemetry.len() as f64);
    put(
        "sim.telemetry.dropped",
        sys.engine.telemetry.dropped() as f64,
    );
    // What a user of the simulator waits for: the loop, and on a run that
    // observes itself also the reconstruction and export of what it saw.
    let wall_s = loop_s + if shape.telemetry { obs_s } else { 0.0 };
    put("wall_s", wall_s);
    put("commits_per_s", tally.commits as f64 / loop_s);
    // The run's own memory: the oracles below build graphs of their own.
    put("peak_rss_mb", stats::peak_rss_mb());

    // ---- oracles ---------------------------------------------------------
    let (divergent, _) = tracer.time("verify.digest", Some(post_span), || {
        sys.divergent_fragments()
    });
    put("divergent", divergent.len() as f64);
    if spec.takes_verdict() {
        let ((analyzer, verdict), verify_s) =
            tracer.time("verify.verdict", Some(post_span), || {
                let analyzer = IncrementalAnalyzer::from_history(&sys.history);
                let verdict = analyzer.verdict();
                (analyzer, verdict)
            });
        put("verify_s", verify_s);
        put("graphs.incremental.busy_s", verify_s);
        put("graphs.incremental.ops", analyzer.ops_seen() as f64);
        put(
            "graphs.incremental.edge_insertions",
            analyzer.edge_insertions() as f64,
        );
        put(
            "fragmentwise_serializable",
            f64::from(verdict.fragmentwise_serializable()),
        );
        if spec.mini {
            let (batch, _) = tracer.time("verify.batch", Some(post_span), || {
                fragdb_graphs::analyze(&sys.history)
            });
            put("oracles_agree", f64::from(verdict.agrees_with(&batch)));
        }
    }
    tracer.close(post_span);
    tracer.close(run_span);

    // ---- counters, from public accessors only ----------------------------
    let failed = shape.arrivals - (tally.commits + tally.reads).min(shape.arrivals);
    put("arrivals", shape.arrivals as f64);
    put("commits", tally.commits as f64);
    put("reads", tally.reads as f64);
    put("installs", tally.installs as f64);
    put("aborts", tally.aborts as f64);
    put("retries", tally.retries as f64);
    put("final_aborts", tally.final_aborts as f64);
    put("failed", failed as f64);
    // Of everything submitted, resent updates included, what the system
    // answered with a commit or a finished read, and what it did not.
    let submissions = (shape.arrivals + tally.retries) as f64;
    let served = (tally.commits + tally.reads) as f64;
    put("served_frac", served / submissions);
    put("failed_frac", (submissions - served) / submissions);
    put("parked", sys.queued_submissions() as f64);
    put("history_len", sys.history.len() as f64);
    let metrics = &sys.engine.metrics;
    put("events", metrics.counter(keys::SIM_EVENTS) as f64);
    put("peak_pending", sys.engine.peak_queue_depth() as f64);
    put("pool_reuse", sys.engine.pool_reuse() as f64);
    put(
        "heartbeats",
        metrics.counter(keys::DETECTOR_HEARTBEATS) as f64,
    );
    put(
        "suspicions",
        metrics.counter(keys::DETECTOR_SUSPICIONS) as f64,
    );
    put(
        "election_rounds",
        metrics.counter(keys::ELECTION_ROUNDS) as f64,
    );
    let net = sys.net_stats();
    put("net.sent", net.sent as f64);
    put("net.transmissions", net.transmissions as f64);
    put("net.retransmissions", net.retransmissions as f64);
    put("net.delivered", net.delivered as f64);
    put("net.dup_dropped", net.dup_dropped as f64);
    put("net.acks_sent", net.acks_sent as f64);
    put("net.acks_piggybacked", net.acks_piggybacked as f64);
    let wal_max = (0..sys.node_count())
        .map(|n| sys.replica(NodeId(n)).wal().len())
        .max()
        .unwrap_or(0);
    put("storage.wal.entries_max", wal_max as f64);

    // ---- virtual-time metrics --------------------------------------------
    tally.lags.sort_unstable();
    put("lag_samples", tally.lags.len() as f64);
    put(
        "lag_p50_us",
        f64::from(stats::percentile_sorted(&tally.lags, 50.0)),
    );
    put(
        "lag_p99_us",
        f64::from(stats::percentile_sorted(&tally.lags, 99.0)),
    );
    put(
        "lag_top_percentile",
        stats::highest_supported_percentile(tally.lags.len()),
    );
    put(
        "msgs_per_commit",
        net.transmissions as f64 / tally.commits.max(1) as f64,
    );
    // Crash → token recovered, and recover → caught up: only a run with
    // faults has either, and the first needs telemetry's probes.
    let unavail = metrics
        .histograms()
        .filter(|(k, _)| k.starts_with("frag.") && k.ends_with(".unavail_window"))
        .filter_map(|(_, h)| h.max())
        .max();
    put("unavail_us", unavail.unwrap_or(0) as f64);
    let recovery = metrics
        .histogram(keys::LATENCY_RECOVERY)
        .and_then(|h| h.max());
    put("recovery_us", recovery.unwrap_or(0) as f64);
    (rec, tracer)
}

/// Fold the step ledger into the record and into the trace: one aggregate
/// span per bucket (count + sum), plus every 1024th step on its own.
fn record_steps(
    steps: &Steps,
    loop_span: SpanId,
    tracer: &mut Tracer,
    put: &mut impl FnMut(&str, f64),
) {
    let loop_start = tracer.spans[loop_span].start_ns;
    let mut aggregate = [loop_span; 4];
    for (i, bucket) in BUCKETS.iter().enumerate() {
        put(&format!("core.step.{bucket}.count"), steps.count[i] as f64);
        put(
            &format!("core.step.{bucket}.busy_s"),
            steps.busy_ns[i] as f64 / 1e9,
        );
        // An aggregate has no single interval; it is laid at the loop's
        // start with its summed duration, and `count` says how many steps.
        aggregate[i] = tracer.add(
            &format!("steps.{bucket}"),
            Some(loop_span),
            loop_start,
            loop_start + steps.busy_ns[i],
            steps.count[i],
        );
    }
    // A sampled step is part of its bucket's aggregate, so it hangs under
    // it: the loop's self time stays loop minus the four aggregates.
    for &(start, end, bucket) in &steps.sampled {
        tracer.add(
            &format!("step.{}", BUCKETS[bucket]),
            Some(aggregate[bucket]),
            start,
            end,
            1,
        );
    }
    put("core.queued_peak", steps.queued_peak as f64);
}
