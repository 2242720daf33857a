//! `fragdb-bench` — the performance-trajectory runner.
//!
//! Reproduces the before/after numbers for the performance passes, at
//! 4/16/64 nodes, and writes them to a machine-readable `BENCH_pr10.json`:
//!
//! * **payload broadcast** — a commit's payload is materialized once
//!   (`payload.clones`) and every downstream copy is an `Arc` bump
//!   (`payload.shares`). The "before" numbers model the old behaviour,
//!   where every share site performed a deep copy. The wall-clock column
//!   also tracks the route-cache fix: transmissions no longer run a
//!   Dijkstra each, which is what made the 64-node row superlinear in
//!   the PR 3 report (`BENCH_pr3.json` in git history).
//! * **broadcast batching** — bursty same-instant commits with group
//!   commit off versus a window of 8: data transmissions, standalone
//!   acks, timing-wheel operations, and wall-clock, plus the combined
//!   messages+acks reduction factor.
//! * **WAL index** — `fragment_range` / `last_writer_of` answered from
//!   the per-fragment seq index and last-writer map, versus the retained
//!   `*_scan` oracles that walk the whole log.
//! * **incremental checkers** — repeated verdict queries over a growing
//!   history: the batch oracle re-analyzes from scratch per query, the
//!   incremental analyzer ingests once and answers in O(1).
//! * **self-heal** — the §5 failure detector + quorum election: crash the
//!   token home of a majority-commit fragment and record detection
//!   latency, election rounds, and the write-unavailability window
//!   (virtual time), plus post-recovery commit counts.
//! * **model check** — the bounded exhaustive explorer (`crates/mc`) over
//!   a one-fragment instance at 2/3/4 nodes: distinct states, transitions,
//!   dedup hit rate, POR prunes, exploration throughput (states/sec), and
//!   the length of the minimized FDB020 counterexample witness.
//! * **scale** — the open-loop Zipf workload (`fragdb-harness`'s scale
//!   runner) over large full meshes, on its own node axis (64/256/1024
//!   full, 8/16/32 quick): a million-user Zipf(0.99) population at a
//!   fixed offered rate, reporting engine events, wire messages,
//!   events/sec, messages/sec, peak pending-event depth, pool reuse,
//!   p50/p99 commit→install lag from the streaming quantile sketch, and
//!   the phase-decomposed lag (net / hold-back / queue / exec
//!   percentiles) from the `fragdb-obs` span reconstruction.
//! * **scale kernels** — before/after arms for the PR 8 kernel pass,
//!   sized by the same node axis: the event queue (reference binary
//!   heap vs the timing-wheel engine) and the store scan (`BTreeStore`
//!   map-of-records `digest_all` vs the dense flat-index `Store`). At
//!   the million-entry row both speedups are asserted ≥ 3× at
//!   generation time.
//! * **partial replication** — full fan-out versus the telemetry-driven
//!   fragment allocator (§6), on the scale node axis: identical
//!   Zipf-skewed open-loop arrivals with per-fragment heavy writers and
//!   reader clusters, run once fully replicated and once after the
//!   allocator migrates tokens to the writers (§4.4.2 moves) and
//!   shrinks replica sets to factor 3 around the readers. Reports
//!   messages/commit, commit→install lag, and read staleness for both
//!   arms; at the largest row the messages/commit reduction is asserted
//!   ≥ 4× at generation time.
//!
//! All workload numbers (events, messages, clone/share counts, checker
//! edge insertions) are deterministic virtual-time metrics; only the
//! `*_secs` fields are wall-clock (medians via the vendored criterion
//! stub, the one place `Instant::now` is allowed).
//!
//! Usage:
//!   fragdb-bench [--quick] [--out PATH]   generate the report
//!   fragdb-bench --validate PATH          schema-check an existing report
//!   fragdb-bench compare BASE CAND [--threshold PCT]
//!                                         regression-gate CAND against BASE
//!
//! `compare` loads two reports, matches section rows
//! by node count, and prints per-field deltas. Deterministic virtual-time
//! and count fields are *gated*: a monitored field that degrades by more
//! than the threshold (default 20%) fails the comparison (exit 1). When
//! the two reports were generated under different modes (`full` vs
//! `quick`) the workload knobs differ, so only mode-robust fields —
//! batching `reduction`, self-heal `detection_us` / `unavail_us` — are
//! gated. Wall-clock fields are reported but never gated.

use std::fmt::Write as _;

use fragdb_check::Code;
use fragdb_core::{
    BatchConfig, DetectorConfig, MovePolicy, Notification, Submission, System, SystemConfig,
};
use fragdb_graphs::IncrementalAnalyzer;
use fragdb_mc::{explore, witness_for, ExploreConfig, McInstance};
use fragdb_model::{AgentId, FragmentCatalog, FragmentId, NodeId, ObjectId, TxnId, Updates, Value};
use fragdb_net::Topology;
use fragdb_sim::{SimDuration, SimRng, SimTime, Telemetry};
use fragdb_storage::{Wal, WalEntry};
use fragdb_workloads::{arrivals, partitions};

use fragdb_harness::partial as hpartial;
use fragdb_harness::scale as hscale;

const SEED: u64 = 42;
const NODE_COUNTS: [u32; 3] = [4, 16, 64];
/// Node counts for the model-check section: exhaustive exploration only
/// scales to small instances, so this section uses its own axis.
const MC_NODE_COUNTS: [u32; 3] = [2, 3, 4];

/// Workload knobs, scaled down under `--quick` so CI stays fast.
struct Scale {
    mode: &'static str,
    commits: u64,
    bursts: u64,
    burst_size: u64,
    wal_records_per_node: usize,
    wal_queries: usize,
    sweep_horizon: u64,
    update_rate: f64,
    verdict_queries: usize,
    samples: usize,
    heal_updates: u64,
    mc_states: u64,
    /// Node axis of the open-loop scale section (its own axis: the
    /// classic sections stay at 4/16/64).
    scale_nodes: [u32; 3],
    /// Offered rate of the open-loop scale workload (tx per sim-second).
    scale_rate: f64,
    /// Arrival horizon of the open-loop scale workload, sim-seconds.
    scale_horizon_secs: u64,
    /// Pop→reschedule operations per timed queue-kernel run.
    kernel_churn: u64,
}

const FULL: Scale = Scale {
    mode: "full",
    commits: 32,
    bursts: 16,
    burst_size: 8,
    wal_records_per_node: 1_500,
    wal_queries: 200,
    sweep_horizon: 20,
    update_rate: 0.3,
    verdict_queries: 15,
    samples: 3,
    heal_updates: 30,
    mc_states: 2_000,
    scale_nodes: [64, 256, 1024],
    scale_rate: 50.0,
    scale_horizon_secs: 10,
    kernel_churn: 200_000,
};

const QUICK: Scale = Scale {
    mode: "quick",
    commits: 8,
    bursts: 4,
    burst_size: 8,
    wal_records_per_node: 150,
    wal_queries: 40,
    sweep_horizon: 12,
    update_rate: 0.2,
    verdict_queries: 10,
    samples: 2,
    heal_updates: 16,
    mc_states: 400,
    scale_nodes: [8, 16, 32],
    scale_rate: 40.0,
    scale_horizon_secs: 5,
    kernel_churn: 50_000,
};

fn main() {
    let mut quick = false;
    let mut out = String::from("BENCH_pr10.json");
    let mut validate: Option<String> = None;
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("compare") {
        args.next();
        let mut paths: Vec<String> = Vec::new();
        let mut threshold = 20.0f64;
        while let Some(a) = args.next() {
            match a.as_str() {
                "--threshold" => {
                    threshold = args
                        .next()
                        .expect("--threshold needs a value")
                        .parse()
                        .expect("--threshold must be a number (percent)")
                }
                other if !other.starts_with('-') => paths.push(other.to_string()),
                other => {
                    eprintln!("unknown argument: {other}");
                    std::process::exit(2);
                }
            }
        }
        if paths.len() != 2 {
            eprintln!("usage: fragdb-bench compare BASE.json CAND.json [--threshold PCT]");
            std::process::exit(2);
        }
        cmd_compare(&paths[0], &paths[1], threshold);
        return;
    }
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => out = args.next().expect("--out needs a path"),
            "--validate" => validate = Some(args.next().expect("--validate needs a path")),
            "--help" | "-h" => {
                println!(
                    "fragdb-bench [--quick] [--out PATH] | --validate PATH | \
                     compare BASE CAND [--threshold PCT]"
                );
                return;
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    if let Some(path) = validate {
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
        match validate_report(&text) {
            Ok(summary) => println!("{path}: OK — {summary}"),
            Err(msg) => {
                eprintln!("{path}: INVALID — {msg}");
                std::process::exit(1);
            }
        }
        return;
    }

    let scale = if quick { QUICK } else { FULL };
    let report = generate(&scale);
    validate_report(&report).expect("generated report must pass its own schema check");
    std::fs::write(&out, &report).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!("wrote {out} ({} bytes, mode={})", report.len(), scale.mode);
}

// ---- generation ----------------------------------------------------------

fn generate(scale: &Scale) -> String {
    let mut j = String::new();
    j.push_str("{\n");
    j.push_str("  \"schema\": \"fragdb-bench-pr10/v1\",\n");
    let _ = writeln!(j, "  \"mode\": \"{}\",", scale.mode);
    let _ = writeln!(j, "  \"seed\": {SEED},");
    j.push_str("  \"node_counts\": [4, 16, 64],\n");
    let _ = writeln!(
        j,
        "  \"scale_node_counts\": [{}, {}, {}],",
        scale.scale_nodes[0], scale.scale_nodes[1], scale.scale_nodes[2]
    );

    j.push_str("  \"payload_broadcast\": [\n");
    for (i, &n) in NODE_COUNTS.iter().enumerate() {
        let row = bench_payload(n, scale);
        let _ = writeln!(
            j,
            "    {row}{}",
            if i + 1 < NODE_COUNTS.len() { "," } else { "" }
        );
    }
    j.push_str("  ],\n");

    j.push_str("  \"broadcast_batching\": [\n");
    for (i, &n) in NODE_COUNTS.iter().enumerate() {
        let row = bench_batching(n, scale);
        let _ = writeln!(
            j,
            "    {row}{}",
            if i + 1 < NODE_COUNTS.len() { "," } else { "" }
        );
    }
    j.push_str("  ],\n");

    j.push_str("  \"wal_index\": [\n");
    for (i, &n) in NODE_COUNTS.iter().enumerate() {
        let row = bench_wal(n, scale);
        let _ = writeln!(
            j,
            "    {row}{}",
            if i + 1 < NODE_COUNTS.len() { "," } else { "" }
        );
    }
    j.push_str("  ],\n");

    j.push_str("  \"checker\": [\n");
    for (i, &n) in NODE_COUNTS.iter().enumerate() {
        let row = bench_checker(n, scale);
        let _ = writeln!(
            j,
            "    {row}{}",
            if i + 1 < NODE_COUNTS.len() { "," } else { "" }
        );
    }
    j.push_str("  ],\n");

    j.push_str("  \"self_heal\": [\n");
    for (i, &n) in NODE_COUNTS.iter().enumerate() {
        let row = bench_self_heal(n, scale);
        let _ = writeln!(
            j,
            "    {row}{}",
            if i + 1 < NODE_COUNTS.len() { "," } else { "" }
        );
    }
    j.push_str("  ],\n");

    j.push_str("  \"model_check\": [\n");
    for (i, &n) in MC_NODE_COUNTS.iter().enumerate() {
        let row = bench_model_check(n, scale);
        let _ = writeln!(
            j,
            "    {row}{}",
            if i + 1 < MC_NODE_COUNTS.len() {
                ","
            } else {
                ""
            }
        );
    }
    j.push_str("  ],\n");

    j.push_str("  \"scale\": [\n");
    for (i, &n) in scale.scale_nodes.iter().enumerate() {
        let row = bench_scale(n, scale);
        let _ = writeln!(
            j,
            "    {row}{}",
            if i + 1 < scale.scale_nodes.len() {
                ","
            } else {
                ""
            }
        );
    }
    j.push_str("  ],\n");

    j.push_str("  \"scale_kernels\": [\n");
    for (i, &n) in scale.scale_nodes.iter().enumerate() {
        let row = bench_scale_kernels(n, scale);
        let _ = writeln!(
            j,
            "    {row}{}",
            if i + 1 < scale.scale_nodes.len() {
                ","
            } else {
                ""
            }
        );
    }
    j.push_str("  ],\n");

    j.push_str("  \"partial_replication\": [\n");
    for (i, &n) in scale.scale_nodes.iter().enumerate() {
        let row = bench_partial(n, scale, n == scale.scale_nodes[2]);
        let _ = writeln!(
            j,
            "    {row}{}",
            if i + 1 < scale.scale_nodes.len() {
                ","
            } else {
                ""
            }
        );
    }
    j.push_str("  ]\n}\n");
    j
}

/// One open-loop Zipf run on an `n`-node mesh: a million-user Zipf(0.99)
/// population offering `scale_rate` tx/s for `scale_horizon_secs`,
/// against eight fragments striped over the mesh. All counters are
/// deterministic virtual-time numbers; only `wall_secs` (and the
/// throughput rates derived from it) are wall-clock.
fn bench_scale(n: u32, scale: &Scale) -> String {
    let spec = hscale::ScaleSpec {
        nodes: n,
        fragments: 8,
        objects_per_fragment: 32,
        users: 1_000_000,
        theta: 0.99,
        rate_per_sec: scale.scale_rate,
        horizon: SimDuration::from_secs(scale.scale_horizon_secs),
        link_jitter: SimDuration::from_millis(1),
        seed: SEED,
    };
    let (_, stats) = hscale::run(&spec);
    assert!(stats.commits > 0, "scale run must commit at {n} nodes");
    assert!(
        stats.lag_p99_us > stats.lag_p50_us && stats.lag_p50_us > 0,
        "jittered links must spread the lag percentiles at {n} nodes \
         (p50={} p99={})",
        stats.lag_p50_us,
        stats.lag_p99_us
    );
    assert!(
        stats.spans >= stats.commits && stats.net_p50_us > 0,
        "span reconstruction must decompose the lag at {n} nodes"
    );
    let wall = criterion::median_secs(scale.samples, || {
        criterion::black_box(hscale::run(&spec));
    });
    let events_per_sec = stats.events as f64 / wall;
    let msgs_per_sec = stats.messages as f64 / wall;
    format!(
        "{{ \"nodes\": {n}, \"users\": {}, \"offered_rate\": {}, \"arrivals\": {}, \
         \"commits\": {}, \"events\": {}, \"messages\": {}, \"peak_queue_depth\": {}, \
         \"pool_reuse\": {}, \"lag_p50_us\": {}, \"lag_p99_us\": {}, \
         \"spans\": {}, \"spans_truncated\": {}, \
         \"net_p50_us\": {}, \"net_p99_us\": {}, \
         \"holdback_p50_us\": {}, \"holdback_p99_us\": {}, \
         \"queue_p99_us\": {}, \"exec_p99_us\": {}, \
         \"events_per_sec\": {events_per_sec:.1}, \"msgs_per_sec\": {msgs_per_sec:.1}, \
         \"wall_secs\": {} }}",
        spec.users,
        stats.offered_rate,
        stats.arrivals,
        stats.commits,
        stats.events,
        stats.messages,
        stats.peak_queue_depth,
        stats.pool_reuse,
        stats.lag_p50_us,
        stats.lag_p99_us,
        stats.spans,
        stats.spans_truncated,
        stats.net_p50_us,
        stats.net_p99_us,
        stats.holdback_p50_us,
        stats.holdback_p99_us,
        stats.queue_p99_us,
        stats.exec_p99_us,
        fmt_secs(wall),
    )
}

/// Before/after kernel arms sized by the scale axis (`n * 1000` live
/// entries / objects).
///
/// Queue: a reference `BinaryHeap<Reverse<(at, seq)>>` versus the
/// engine's timing wheel, both doing pop→reschedule churn over the same
/// pending population with the same delay sequence (the hold model).
/// Store: the retained `BTreeStore` map-of-records `digest_all` (key
/// list materialized, per-key tree lookups) versus the dense flat-index
/// `Store`, over a mixed int/flag population. At the million-entry row
/// both speedups must clear 3× — checked here, at generation time.
fn bench_scale_kernels(n: u32, scale: &Scale) -> String {
    let population = n as u64 * 1000;
    let churn = scale.kernel_churn;

    // Queue arm, before: binary heap ordered by (at, seq).
    let mut rng = SimRng::new(SEED);
    let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, u64)>> =
        std::collections::BinaryHeap::with_capacity(population as usize);
    let mut seq = 0u64;
    for _ in 0..population {
        heap.push(std::cmp::Reverse((rng.gen_range(0..1_000_000_000), seq)));
        seq += 1;
    }
    let heap_secs = criterion::median_secs(scale.samples, || {
        for _ in 0..churn {
            let std::cmp::Reverse((at, _)) = heap.pop().expect("population is conserved");
            heap.push(std::cmp::Reverse((
                at + rng.gen_range(1_000..10_000_000),
                seq,
            )));
            seq += 1;
        }
    });

    // Queue arm, after: the engine (timing wheel + calendar overflow).
    let mut rng = SimRng::new(SEED);
    let mut eng: fragdb_sim::Engine<u64> = fragdb_sim::Engine::new(SEED);
    for i in 0..population {
        eng.schedule_at(SimTime(rng.gen_range(0..1_000_000_000)), i);
    }
    let wheel_secs = criterion::median_secs(scale.samples, || {
        for i in 0..churn {
            let (at, _) = eng.pop().expect("population is conserved");
            eng.schedule_at(at + SimDuration(rng.gen_range(1_000..10_000_000)), i);
        }
    });
    let queue_speedup = heap_secs / wheel_secs.max(1e-12);
    let queue_events_per_sec = churn as f64 / wheel_secs.max(1e-12);

    // Store arm: same digest over both layouts, mixed int/flag values.
    let mut dense = fragdb_storage::Store::new();
    let mut oracle = fragdb_storage::BTreeStore::new();
    for i in 0..population {
        let v = if i % 4 == 3 {
            fragdb_model::Value::Bool(i % 8 == 3)
        } else {
            fragdb_model::Value::Int(i as i64)
        };
        let writer = TxnId::new(NodeId(0), i);
        dense.put(ObjectId(i), v.clone(), writer, SimTime(i));
        oracle.put(ObjectId(i), v, writer, SimTime(i));
    }
    let reps = (2_000_000 / population).max(1);
    let mut btree_digest = 0u64;
    let btree_secs = criterion::median_secs(scale.samples, || {
        for _ in 0..reps {
            btree_digest = criterion::black_box(oracle.digest_all());
        }
    });
    let mut dense_digest = 0u64;
    let dense_secs = criterion::median_secs(scale.samples, || {
        for _ in 0..reps {
            dense_digest = criterion::black_box(dense.digest_all());
        }
    });
    assert_eq!(
        btree_digest, dense_digest,
        "layouts must agree on the digest at {population} objects"
    );
    let store_speedup = btree_secs / dense_secs.max(1e-12);
    let digests_per_sec = reps as f64 / dense_secs.max(1e-12);

    if population >= 1_000_000 {
        assert!(
            queue_speedup >= 3.0,
            "queue kernel must be >= 3x at {population} pending (got {queue_speedup:.2}x)"
        );
        assert!(
            store_speedup >= 3.0,
            "store kernel must be >= 3x at {population} objects (got {store_speedup:.2}x)"
        );
    }

    format!(
        "{{ \"nodes\": {n}, \"queue_population\": {population}, \"queue_events\": {churn}, \
         \"heap_secs\": {}, \"wheel_secs\": {}, \"queue_speedup\": {}, \
         \"queue_events_per_sec\": {queue_events_per_sec:.1}, \
         \"store_objects\": {population}, \"btree_secs\": {}, \"dense_secs\": {}, \
         \"store_speedup\": {}, \"digests_per_sec\": {digests_per_sec:.1} }}",
        fmt_secs(heap_secs),
        fmt_secs(wheel_secs),
        fmt_ratio(queue_speedup),
        fmt_secs(btree_secs),
        fmt_secs(dense_secs),
        fmt_ratio(store_speedup),
    )
}

/// Full replication versus the telemetry-driven allocator (§6) on the
/// scale node axis: identical Zipf-skewed open-loop arrivals with a
/// heavy writer and a two-node reader cluster per fragment, run once
/// fully replicated and once after the allocator migrates tokens to the
/// writers (§4.4.2B moves) and shrinks replica sets to factor 3 around
/// the readers. Both arms commit the same workload; the allocated arm's
/// per-commit broadcast reaches 2 peers instead of `n − 1`. At the
/// largest row the messages/commit reduction must clear 4× — checked
/// here, at generation time.
fn bench_partial(n: u32, scale: &Scale, assert_reduction: bool) -> String {
    let spec = hpartial::PartialSpec {
        nodes: n,
        fragments: 8,
        objects_per_fragment: 16,
        users: 1_000_000,
        theta: 0.99,
        rate_per_sec: scale.scale_rate,
        phase: SimDuration::from_secs(scale.scale_horizon_secs),
        link_jitter: SimDuration::from_millis(1),
        replication_factor: 3,
        readers_per_fragment: 2,
        seed: SEED,
    };
    let stats = hpartial::run(&spec);
    assert!(stats.full.commits > 0, "full arm must commit at {n} nodes");
    assert_eq!(
        stats.allocated.commits, stats.full.commits,
        "both arms must commit the same workload at {n} nodes"
    );
    assert_eq!(
        stats.allocated.replica_count, 3,
        "allocator must converge at the replication factor at {n} nodes"
    );
    let reduction = stats.msgs_reduction_milli();
    if assert_reduction {
        assert!(
            reduction >= 4000,
            "partial replication must cut messages/commit >= 4x at {n} nodes \
             (full={} alloc={} reduction={reduction} milli)",
            stats.full.msgs_per_commit_milli,
            stats.allocated.msgs_per_commit_milli,
        );
    }
    let wall = criterion::median_secs(scale.samples, || {
        criterion::black_box(hpartial::run(&spec));
    });
    format!(
        "{{ \"nodes\": {n}, \"arrivals\": {}, \"commits\": {}, \"reads\": {}, \
         \"full_messages\": {}, \"alloc_messages\": {}, \
         \"full_msgs_per_commit_milli\": {}, \"alloc_msgs_per_commit_milli\": {}, \
         \"msgs_reduction_milli\": {reduction}, \
         \"full_lag_p50_us\": {}, \"full_lag_p99_us\": {}, \
         \"alloc_lag_p50_us\": {}, \"alloc_lag_p99_us\": {}, \
         \"full_staleness_max\": {}, \"alloc_staleness_max\": {}, \
         \"migrations\": {}, \"shrinks\": {}, \"replica_count\": {}, \
         \"wall_secs\": {} }}",
        stats.full.arrivals,
        stats.full.commits,
        stats.full.reads,
        stats.full.messages,
        stats.allocated.messages,
        stats.full.msgs_per_commit_milli,
        stats.allocated.msgs_per_commit_milli,
        stats.full.lag_p50_us,
        stats.full.lag_p99_us,
        stats.allocated.lag_p50_us,
        stats.allocated.lag_p99_us,
        stats.full.staleness_max,
        stats.allocated.staleness_max,
        stats.allocated.migrations,
        stats.allocated.shrinks,
        stats.allocated.replica_count,
        fmt_secs(wall),
    )
}

/// One fragment homed at node 0 on an `n`-node full mesh; `commits`
/// single-object updates, run to quiescence. The shape the O(1)-clone
/// acceptance test uses, scaled up.
fn payload_run(n: u32, commits: u64) -> System {
    let mut b = FragmentCatalog::builder();
    let (frag, objs) = b.add_fragment("F0", 4);
    let mut sys = System::build(
        Topology::full_mesh(n, SimDuration::from_millis(10)),
        b.build(),
        vec![(frag, AgentId::Node(NodeId(0)), NodeId(0))],
        SystemConfig::unrestricted(SEED),
    )
    .expect("valid system");
    for i in 0..commits {
        let obj = objs[(i % objs.len() as u64) as usize];
        sys.submit_at(
            SimTime::from_secs(1 + i),
            Submission::update(
                frag,
                Box::new(move |ctx| {
                    let v = ctx.read_int(obj, 0);
                    ctx.write(obj, v + 1)?;
                    Ok(())
                }),
            ),
        );
    }
    let limit = SimTime::from_secs(commits + 120);
    let mut committed = 0u64;
    while let Some((_, notes)) = sys.step_until(limit) {
        for note in notes {
            if matches!(note, Notification::Committed { .. }) {
                committed += 1;
            }
        }
    }
    assert_eq!(committed, commits, "payload workload must fully commit");
    sys
}

fn bench_payload(n: u32, scale: &Scale) -> String {
    let commits = scale.commits;
    let sys = payload_run(n, commits);
    let m = &sys.engine.metrics;
    let events = m.counter("sim.events");
    let messages: u64 = m
        .counters()
        .filter(|(k, _)| k.starts_with("msg."))
        .map(|(_, v)| v)
        .sum();
    let clones = m.counter("payload.clones");
    let clone_bytes = m.counter("payload.clone_bytes");
    let shares = m.counter("payload.shares");
    let share_bytes = m.counter("payload.share_bytes");
    assert_eq!(clones, commits, "one materialization per commit");
    let wall = criterion::median_secs(scale.samples, || {
        criterion::black_box(payload_run(n, commits));
    });
    // Before the Arc payloads, every share site deep-copied.
    format!(
        "{{ \"nodes\": {n}, \"commits\": {commits}, \"events\": {events}, \
         \"messages\": {messages}, \"clones_after\": {clones}, \
         \"clone_bytes_after\": {clone_bytes}, \"shares\": {shares}, \
         \"share_bytes\": {share_bytes}, \"clones_before\": {}, \
         \"clone_bytes_before\": {}, \"wall_secs\": {} }}",
        clones + shares,
        clone_bytes + share_bytes,
        fmt_secs(wall),
    )
}

/// One fragment homed at node 0 on an `n`-node full mesh; `bursts`
/// groups of `burst_size` simultaneous commits (the shape group commit
/// exists for), run to quiescence under the given batching config.
fn bursty_run(n: u32, scale: &Scale, batch: BatchConfig) -> System {
    let mut b = FragmentCatalog::builder();
    let (frag, objs) = b.add_fragment("F0", 4);
    let mut sys = System::build(
        Topology::full_mesh(n, SimDuration::from_millis(10)),
        b.build(),
        vec![(frag, AgentId::Node(NodeId(0)), NodeId(0))],
        SystemConfig::unrestricted(SEED).with_batching(batch),
    )
    .expect("valid system");
    for burst in 0..scale.bursts {
        for k in 0..scale.burst_size {
            let obj = objs[(k % objs.len() as u64) as usize];
            sys.submit_at(
                SimTime::from_secs(1 + burst),
                Submission::update(
                    frag,
                    Box::new(move |ctx| {
                        let v = ctx.read_int(obj, 0);
                        ctx.write(obj, v + 1)?;
                        Ok(())
                    }),
                ),
            );
        }
    }
    let limit = SimTime::from_secs(scale.bursts + 120);
    let mut committed = 0u64;
    while let Some((_, notes)) = sys.step_until(limit) {
        for note in notes {
            if matches!(note, Notification::Committed { .. }) {
                committed += 1;
            }
        }
    }
    assert_eq!(
        committed,
        scale.bursts * scale.burst_size,
        "bursty workload must fully commit"
    );
    assert!(
        sys.divergent_fragments().is_empty(),
        "bursty workload must quiesce consistent"
    );
    sys
}

fn bench_batching(n: u32, scale: &Scale) -> String {
    let commits = scale.bursts * scale.burst_size;
    let count = |sys: &System| {
        let stats = sys.net_stats();
        let timer_ops = sys.engine.metrics.counter("net.timer.wheel_ops");
        (stats.transmissions, stats.acks_sent, timer_ops)
    };
    let off = bursty_run(n, scale, BatchConfig::off());
    let on = bursty_run(n, scale, BatchConfig::window(scale.burst_size as usize));
    let (msg_off, ack_off, timer_off) = count(&off);
    let (msg_on, ack_on, timer_on) = count(&on);
    let reduction = (msg_off + ack_off) as f64 / (msg_on + ack_on).max(1) as f64;
    assert!(
        reduction >= 5.0,
        "group commit must cut messages+acks at least 5x on the bursty \
         workload at {n} nodes (got {reduction:.2})"
    );
    let wall_off = criterion::median_secs(scale.samples, || {
        criterion::black_box(bursty_run(n, scale, BatchConfig::off()));
    });
    let wall_on = criterion::median_secs(scale.samples, || {
        criterion::black_box(bursty_run(
            n,
            scale,
            BatchConfig::window(scale.burst_size as usize),
        ));
    });
    format!(
        "{{ \"nodes\": {n}, \"commits\": {commits}, \"messages_off\": {msg_off}, \
         \"messages_on\": {msg_on}, \"acks_off\": {ack_off}, \"acks_on\": {ack_on}, \
         \"timer_ops_off\": {timer_off}, \"timer_ops_on\": {timer_on}, \
         \"wall_off_secs\": {}, \"wall_on_secs\": {}, \"reduction\": {} }}",
        fmt_secs(wall_off),
        fmt_secs(wall_on),
        fmt_ratio(reduction),
    )
}

fn bench_wal(n: u32, scale: &Scale) -> String {
    let records = scale.wal_records_per_node * n as usize;
    let frags = n; // one fragment per node, as the sims are laid out
    let objects = 256u64;
    let mut rng = SimRng::new(SEED ^ u64::from(n));
    let mut wal = Wal::new();
    for i in 0..records {
        let f = FragmentId(rng.gen_range(0..frags));
        let obj = ObjectId(rng.gen_range(0..objects));
        let updates: Updates = vec![(obj, Value::Int(i as i64))].into();
        wal.append(WalEntry {
            txn: TxnId::new(NodeId(f.0), i as u64),
            fragment: f,
            frag_seq: i as u64 / u64::from(frags),
            epoch: 0,
            updates,
            installed_at: SimTime(i as u64),
        });
    }
    // Query workloads: catch-up ranges ("give me j+1..=i on F") and
    // §4.4.3 overwrite checks ("who last wrote x?").
    let ranges: Vec<(FragmentId, u64, u64)> = (0..scale.wal_queries)
        .map(|_| {
            let f = FragmentId(rng.gen_range(0..frags));
            let hi = records as u64 / u64::from(frags);
            let a = rng.gen_range(0..hi.max(1));
            let b = rng.gen_range(0..hi.max(1));
            (f, a.min(b), a.max(b))
        })
        .collect();
    let probes: Vec<ObjectId> = (0..scale.wal_queries)
        .map(|_| ObjectId(rng.gen_range(0..objects)))
        .collect();
    for &(f, a, b) in &ranges {
        assert_eq!(
            wal.fragment_range(f, a, b),
            wal.fragment_range_scan(f, a, b),
            "index must agree with the scan oracle"
        );
    }
    for &o in &probes {
        assert_eq!(wal.last_writer_of(o), wal.last_writer_of_scan(o));
    }
    let scan_secs = criterion::median_secs(scale.samples, || {
        for &(f, a, b) in &ranges {
            criterion::black_box(wal.fragment_range_scan(f, a, b));
        }
        for &o in &probes {
            criterion::black_box(wal.last_writer_of_scan(o));
        }
    });
    let indexed_secs = criterion::median_secs(scale.samples, || {
        for &(f, a, b) in &ranges {
            criterion::black_box(wal.fragment_range(f, a, b));
        }
        for &o in &probes {
            criterion::black_box(wal.last_writer_of(o));
        }
    });
    format!(
        "{{ \"nodes\": {n}, \"records\": {records}, \"queries\": {}, \
         \"scan_secs\": {}, \"indexed_secs\": {}, \"speedup\": {} }}",
        scale.wal_queries * 2,
        fmt_secs(scan_secs),
        fmt_secs(indexed_secs),
        fmt_ratio(scan_secs / indexed_secs.max(1e-12)),
    )
}

/// An E8/E9-shaped sweep: `n` fragments homed one-per-node, multi-object
/// updates reading a random foreign fragment, cross-fragment readers at
/// random nodes, adversarial alternating partitions.
fn sweep_run(n: u32, scale: &Scale) -> System {
    let k = n as usize;
    let mut rng = SimRng::new(SEED);
    let mut b = FragmentCatalog::builder();
    let mut objects = Vec::with_capacity(k);
    for i in 0..k {
        let (_, objs) = b.add_fragment(format!("F{i}"), 3);
        objects.push(objs);
    }
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
        Topology::full_mesh(n, SimDuration::from_millis(10)),
        b.build(),
        agents,
        SystemConfig::unrestricted(SEED),
    )
    .expect("valid system");
    let horizon = SimTime::from_secs(scale.sweep_horizon);
    let sched =
        partitions::random_alternating(&mut rng, n, SimDuration::from_secs(10), 0.4, horizon);
    sys.schedule_partitions(&sched);
    for i in 0..k {
        for t in arrivals::poisson(&mut rng, scale.update_rate, SimTime::ZERO, horizon) {
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
    }
    sys.run_until(horizon + SimDuration::from_secs(300));
    sys
}

fn bench_checker(n: u32, scale: &Scale) -> String {
    let sys = sweep_run(n, scale);
    let h = &sys.history;
    let ops = h.len();
    let queries = scale.verdict_queries;
    let batch_verdict = fragdb_graphs::analyze(h);
    let mut inc = IncrementalAnalyzer::new();
    inc.ingest(h);
    assert!(
        inc.verdict().agrees_with(&batch_verdict),
        "incremental checker diverged from the batch oracle at {n} nodes"
    );
    let edge_insertions = inc.edge_insertions();
    // The repeated-verdict workload: "is the run still serializable?"
    // asked `queries` times over the same recorded history. Batch
    // re-analyzes from scratch each time; incremental pays one ingest.
    let batch_secs = criterion::median_secs(scale.samples, || {
        for _ in 0..queries {
            criterion::black_box(fragdb_graphs::analyze(h));
        }
    });
    let incremental_secs = criterion::median_secs(scale.samples, || {
        let mut a = IncrementalAnalyzer::new();
        a.ingest(h);
        for _ in 0..queries {
            criterion::black_box(a.verdict());
        }
    });
    assert!(
        incremental_secs < batch_secs,
        "incremental checkers must beat batch re-analysis on the sweep \
         workload at {n} nodes ({incremental_secs} vs {batch_secs})"
    );
    format!(
        "{{ \"nodes\": {n}, \"ops\": {ops}, \"queries\": {queries}, \
         \"edge_insertions\": {edge_insertions}, \"batch_secs\": {}, \
         \"incremental_secs\": {}, \"speedup\": {} }}",
        fmt_secs(batch_secs),
        fmt_secs(incremental_secs),
        fmt_ratio(batch_secs / incremental_secs.max(1e-12)),
    )
}

/// One majority-commit fragment homed at node 0 on an `n`-node full mesh
/// with the §5 failure detector on; steady 1/s updates, home crashes at
/// t=10s and only returns after the workload ends. Run to quiescence; the
/// quorum election must re-home the token and writes must flow again.
///
/// The fragment declares a 5-node replica set (all nodes when `n < 5`),
/// which gates detector heartbeats to replica-set peers: without it the
/// 64-node row paid an O(n²) all-pairs heartbeat exchange that dominated
/// wall time (24s at 64 nodes) even though only the fragment's replicas
/// can ever vote in the §5 election.
///
/// Returns the system plus (commits before crash, commits after crash,
/// first-suspicion virtual time in µs). The suspicion time is sampled by
/// polling `detector.suspicions` in the drive loop rather than scanning
/// the telemetry buffer: at 64 nodes the per-delivery events evict the
/// early detector events from the bounded ring, while counters are exact.
fn heal_run(n: u32, scale: &Scale) -> (System, u64, u64, u64) {
    let mut b = FragmentCatalog::builder();
    let (frag, objs) = b.add_fragment("F0", 2);
    let det = DetectorConfig::period(SimDuration::from_millis(500))
        .with_election_timeout(SimDuration::from_secs(2));
    let mut sys = System::build(
        Topology::full_mesh(n, SimDuration::from_millis(10)),
        b.build(),
        vec![(frag, AgentId::Node(NodeId(0)), NodeId(0))],
        SystemConfig::unrestricted(SEED)
            .with_move_policy(MovePolicy::MajorityCommit {
                timeout: SimDuration::from_secs(5),
            })
            .with_replica_set(frag, (0..n.min(5)).map(NodeId))
            .with_detector(det),
    )
    .expect("valid system");
    sys.engine.telemetry = Telemetry::bounded(200_000);
    let obj = objs[0];
    for k in 0..scale.heal_updates {
        sys.submit_at(
            SimTime::from_secs(k + 1),
            Submission::update(
                frag,
                Box::new(move |ctx| {
                    let v = ctx.read_int(obj, 0);
                    ctx.write(obj, v + 1)?;
                    Ok(())
                }),
            ),
        );
    }
    let crash = SimTime::from_secs(10);
    sys.crash_at(crash, NodeId(0));
    // The deposed home returns long after the workload ends; catch-up
    // anti-entropy must reconverge it so the divergence check below holds.
    sys.recover_at(SimTime::from_secs(scale.heal_updates + 60), NodeId(0));
    let limit = SimTime::from_secs(scale.heal_updates + 120);
    let (mut before, mut after) = (0u64, 0u64);
    let mut suspected_us = None;
    while let Some((at, notes)) = sys.step_until(limit) {
        if suspected_us.is_none() && sys.engine.metrics.counter("detector.suspicions") > 0 {
            suspected_us = Some(at.micros());
        }
        for note in notes {
            if matches!(note, Notification::Committed { .. }) {
                if at < crash {
                    before += 1;
                } else {
                    after += 1;
                }
            }
        }
    }
    assert!(
        after > 0,
        "self-heal workload must commit again after the election at {n} nodes"
    );
    assert!(
        sys.divergent_fragments().is_empty(),
        "self-heal workload must quiesce consistent at {n} nodes"
    );
    let suspected_us = suspected_us.expect("detector must suspect the crashed home");
    (sys, before, after, suspected_us)
}

fn bench_self_heal(n: u32, scale: &Scale) -> String {
    let (sys, before, after, suspected_us) = heal_run(n, scale);
    let crash_us = SimTime::from_secs(10).micros();
    let detection_us = suspected_us - crash_us;
    let rounds = sys.engine.metrics.counter("election.rounds");
    let unavail_us = sys
        .engine
        .metrics
        .histogram("frag.0.unavail_window")
        .and_then(|h| h.max())
        .expect("unavailability window must be observed");
    // Heartbeats actually sent (replica-set gated) versus the modeled
    // all-pairs count the same run would have paid before the gating:
    // each of n nodes probing n-1 peers instead of k-1 replica peers.
    let heartbeats = sys.engine.metrics.counter("detector.heartbeats");
    let k = u64::from(n.min(5));
    let heartbeats_full_mesh = heartbeats * (u64::from(n) * u64::from(n - 1)) / (k * (k - 1));
    let wall = criterion::median_secs(scale.samples, || {
        criterion::black_box(heal_run(n, scale));
    });
    format!(
        "{{ \"nodes\": {n}, \"commits_before\": {before}, \"commits_after\": {after}, \
         \"detection_us\": {detection_us}, \"election_rounds\": {rounds}, \
         \"unavail_us\": {unavail_us}, \"heartbeats\": {heartbeats}, \
         \"heartbeats_full_mesh\": {heartbeats_full_mesh}, \"wall_secs\": {} }}",
        fmt_secs(wall),
    )
}

/// Exhaustive exploration of a one-fragment, two-commit instance at `n`
/// nodes: the same shape as the `quickstart` shrunk-registry entry, with
/// the node count as the scaling axis. Also times a witness derivation
/// (the minimized FDB020 counterexample) since `--explain` and `demo_bad`
/// pay that cost on every rejection.
fn bench_model_check(n: u32, scale: &Scale) -> String {
    let cfg = ExploreConfig {
        max_states: scale.mc_states,
        ..ExploreConfig::full()
    };
    let inst = McInstance::new(format!("bench-mc-{n}"), true, false, move || {
        let mut b = FragmentCatalog::builder();
        let (frag, objs) = b.add_fragment("MC", 1);
        let mut sys = System::build(
            Topology::full_mesh(n, SimDuration::from_millis(10)),
            b.build(),
            vec![(frag, AgentId::Node(NodeId(0)), NodeId(0))],
            SystemConfig::unrestricted(SEED),
        )
        .expect("model-check bench instance builds");
        let obj = objs[0];
        for k in 0..2u64 {
            sys.submit_at(
                SimTime::from_secs(k + 1),
                Submission::update(
                    frag,
                    Box::new(move |ctx| {
                        let v = ctx.read_int(obj, 0);
                        ctx.write(obj, v + 1)?;
                        Ok(())
                    }),
                ),
            );
        }
        sys
    });
    let stats = explore(&inst, &cfg);
    assert!(
        stats.clean(),
        "model-check bench instance must explore clean at {n} nodes: {:?}",
        stats.violations.first()
    );
    let dedup_rate = stats.dedup_hits as f64 / stats.transitions.max(1) as f64;
    let wall = criterion::median_secs(scale.samples, || {
        criterion::black_box(explore(&inst, &cfg));
    });
    let states_per_sec = stats.states as f64 / wall;
    let witness = witness_for(Code::Fdb020).expect("FDB020 must carry a witness");
    assert!(witness.replay(), "FDB020 witness must replay");
    format!(
        "{{ \"nodes\": {n}, \"states\": {}, \"transitions\": {}, \"dedup_hits\": {}, \
         \"dedup_rate\": {}, \"por_pruned\": {}, \"truncated\": {}, \
         \"states_per_sec\": {states_per_sec:.1}, \"witness_len\": {}, \"wall_secs\": {} }}",
        stats.states,
        stats.transitions,
        stats.dedup_hits,
        fmt_ratio(dedup_rate),
        stats.por_pruned,
        stats.truncated,
        witness.len(),
        fmt_secs(wall),
    )
}

// ---- regression gate (`compare`) -----------------------------------------

/// One monitored field of a section: its name, whether a *larger* value
/// is a degradation, and whether it stays comparable across modes
/// (`full` vs `quick` runs use different workload knobs, so only
/// configuration-independent fields survive a cross-mode comparison).
struct Gate {
    field: &'static str,
    higher_is_worse: bool,
    cross_mode: bool,
}

const fn gate(field: &'static str, higher_is_worse: bool) -> Gate {
    Gate {
        field,
        higher_is_worse,
        cross_mode: false,
    }
}

const fn gate_x(field: &'static str, higher_is_worse: bool) -> Gate {
    Gate {
        field,
        higher_is_worse,
        cross_mode: true,
    }
}

/// The monitored (gated) fields per section. Everything here is a
/// deterministic virtual-time or count field — wall-clock columns are
/// deliberately absent (cross-machine noise must never fail CI).
const MONITORED: &[(&str, &[Gate])] = &[
    (
        "payload_broadcast",
        &[
            gate("events", true),
            gate("messages", true),
            gate("clones_after", true),
        ],
    ),
    (
        "broadcast_batching",
        &[
            gate("messages_on", true),
            gate("acks_on", true),
            gate_x("reduction", false),
        ],
    ),
    (
        "self_heal",
        &[
            gate_x("detection_us", true),
            gate_x("unavail_us", true),
            gate("election_rounds", true),
            gate("commits_after", false),
            gate("heartbeats", true),
        ],
    ),
    ("model_check", &[gate("witness_len", true)]),
    (
        "scale",
        &[
            gate("events", true),
            gate("messages", true),
            gate("peak_queue_depth", true),
            gate("lag_p50_us", true),
            gate("lag_p99_us", true),
            gate("net_p99_us", true),
            gate("holdback_p99_us", true),
            gate("spans_truncated", true),
        ],
    ),
    (
        "partial_replication",
        &[
            gate("alloc_msgs_per_commit_milli", true),
            gate("msgs_reduction_milli", false),
            gate("alloc_lag_p99_us", true),
        ],
    ),
];

/// Monitored fields whose zero baseline is a hard anchor: any growth from
/// 0 is an unbounded regression (truncation counters must *stay* zero).
/// Every other field treats a zero baseline as "no reference point" —
/// e.g. `holdback_p99_us` was identically 0 before per-link jitter
/// existed, and gating its first nonzero value as an infinite regression
/// would freeze the metric at zero forever.
const ZERO_ANCHORED: &[&str] = &["spans_truncated"];

fn mode_of(text: &str) -> &'static str {
    if text.contains("\"mode\": \"quick\"") {
        "quick"
    } else {
        "full"
    }
}

/// Compare a candidate report against a baseline: print per-field deltas
/// on node-matched rows and exit 1 if any monitored field degrades by
/// more than `threshold` percent.
fn cmd_compare(base_path: &str, cand_path: &str, threshold: f64) {
    let read =
        |p: &str| std::fs::read_to_string(p).unwrap_or_else(|e| panic!("cannot read {p}: {e}"));
    let base = read(base_path);
    let cand = read(cand_path);
    for (path, text) in [(base_path, &base), (cand_path, &cand)] {
        if let Err(msg) = validate_report(text) {
            eprintln!("{path}: INVALID — {msg}");
            std::process::exit(1);
        }
    }
    let same_mode = mode_of(&base) == mode_of(&cand);
    println!(
        "comparing {cand_path} ({}) against {base_path} ({}), threshold {threshold}%{}",
        mode_of(&cand),
        mode_of(&base),
        if same_mode {
            ""
        } else {
            " — cross-mode: only mode-robust fields gated"
        }
    );
    let mut checked = 0u64;
    let mut regressions: Vec<String> = Vec::new();
    for &(section, gates) in MONITORED {
        let bb = section_body(&base, section).expect("validated above");
        let cb = section_body(&cand, section).expect("validated above");
        let bnodes = number_fields(bb, "nodes").unwrap_or_default();
        let cnodes = number_fields(cb, "nodes").unwrap_or_default();
        for g in gates {
            if !same_mode && !g.cross_mode {
                continue;
            }
            let bvals = number_fields(bb, g.field).unwrap_or_default();
            let cvals = number_fields(cb, g.field).unwrap_or_default();
            if bvals.len() != bnodes.len() || cvals.len() != cnodes.len() {
                regressions.push(format!("{section}.{}: not in every row", g.field));
                continue;
            }
            for (i, bn) in bnodes.iter().enumerate() {
                let Some(j) = cnodes.iter().position(|cn| cn == bn) else {
                    continue;
                };
                let (b, c) = (bvals[i], cvals[j]);
                checked += 1;
                // Degradation in percent: positive = candidate is worse.
                let worse_pct = if b > 0.0 {
                    let delta = (c - b) / b * 100.0;
                    if g.higher_is_worse {
                        delta
                    } else {
                        -delta
                    }
                } else if c > 0.0 && g.higher_is_worse && ZERO_ANCHORED.contains(&g.field) {
                    // A zero-anchored baseline growing (spans_truncated
                    // 0→n) is an unbounded regression.
                    f64::INFINITY
                } else {
                    0.0
                };
                let flag = if worse_pct > threshold {
                    regressions.push(format!(
                        "{section}.{} @ {} nodes: {b} -> {c} ({worse_pct:+.1}% worse)",
                        g.field, *bn as u64
                    ));
                    "  REGRESSION"
                } else {
                    ""
                };
                println!(
                    "  {section}.{} @ {} nodes: {b} -> {c}{flag}",
                    g.field, *bn as u64
                );
            }
        }
        // Wall-clock context, never gated.
        if let (Ok(bw), Ok(cw)) = (
            number_fields(bb, "wall_secs"),
            number_fields(cb, "wall_secs"),
        ) {
            if bw.len() == bnodes.len() && cw.len() == cnodes.len() {
                for (i, bn) in bnodes.iter().enumerate() {
                    if let Some(j) = cnodes.iter().position(|cn| cn == bn) {
                        println!(
                            "  {section}.wall_secs @ {} nodes: {:.6} -> {:.6} (info only)",
                            *bn as u64, bw[i], cw[j]
                        );
                    }
                }
            }
        }
    }
    if checked == 0 {
        eprintln!("no comparable rows found — node axes disjoint or sections missing");
        std::process::exit(1);
    }
    if regressions.is_empty() {
        println!("OK — {checked} gated comparisons, no regression beyond {threshold}%");
    } else {
        eprintln!(
            "FAIL — {} of {checked} gated comparisons regressed beyond {threshold}%:",
            regressions.len()
        );
        for r in &regressions {
            eprintln!("  {r}");
        }
        std::process::exit(1);
    }
}

fn fmt_secs(s: f64) -> String {
    format!("{s:.9}")
}

fn fmt_ratio(r: f64) -> String {
    format!("{r:.2}")
}

// ---- validation ----------------------------------------------------------

/// Schema check for a bench report (`fragdb-bench-pr10/v1`, the one
/// schema: every section any earlier report had is in it): required keys,
/// each section has one entry per node count in strictly increasing
/// order, and the deterministic counters are nonzero. Hand-rolled because
/// no JSON parser is available in this build environment; the emitter
/// above is the only producer, so the format is fully under our control.
fn validate_report(text: &str) -> Result<String, String> {
    for key in [
        "\"schema\": \"fragdb-bench-pr10/v1\"",
        "\"scale_node_counts\": [",
        "\"mode\":",
        "\"seed\": 42",
        "\"node_counts\": [4, 16, 64]",
    ] {
        if !text.contains(key) {
            return Err(format!("missing {key}"));
        }
    }
    let sections: [(&str, &[&str]); 9] = [
        (
            "payload_broadcast",
            &["events", "messages", "clones_after", "shares"],
        ),
        (
            "broadcast_batching",
            &[
                "commits",
                "messages_off",
                "messages_on",
                "acks_off",
                "acks_on",
                "timer_ops_off",
                "timer_ops_on",
                "reduction",
            ],
        ),
        ("wal_index", &["records", "queries"]),
        ("checker", &["ops", "queries", "edge_insertions"]),
        (
            "self_heal",
            &[
                "commits_before",
                "commits_after",
                "detection_us",
                "election_rounds",
                "unavail_us",
                "heartbeats",
                "heartbeats_full_mesh",
            ],
        ),
        (
            "model_check",
            &["states", "transitions", "states_per_sec", "witness_len"],
        ),
        // `spans` and the network leg percentiles are always nonzero
        // (remote installs cross real links); hold-back / queue / exec
        // legitimately hit zero on uncongested fault-free meshes, so
        // `compare` checks they are present instead.
        (
            "scale",
            &[
                "users",
                "offered_rate",
                "arrivals",
                "commits",
                "events",
                "messages",
                "peak_queue_depth",
                "pool_reuse",
                "lag_p50_us",
                "lag_p99_us",
                "spans",
                "net_p50_us",
                "net_p99_us",
                "events_per_sec",
                "msgs_per_sec",
            ],
        ),
        (
            "scale_kernels",
            &[
                "queue_population",
                "queue_events",
                "queue_speedup",
                "queue_events_per_sec",
                "store_objects",
                "store_speedup",
                "digests_per_sec",
            ],
        ),
        // Staleness columns are deliberately absent from the nonzero
        // list: a fully converged run can legitimately observe 0.
        (
            "partial_replication",
            &[
                "arrivals",
                "commits",
                "reads",
                "full_messages",
                "alloc_messages",
                "full_msgs_per_commit_milli",
                "alloc_msgs_per_commit_milli",
                "msgs_reduction_milli",
                "full_lag_p50_us",
                "full_lag_p99_us",
                "alloc_lag_p50_us",
                "alloc_lag_p99_us",
                "migrations",
                "shrinks",
                "replica_count",
            ],
        ),
    ];
    let mut summary = String::new();
    for (section, nonzero_fields) in sections {
        let body =
            section_body(text, section).ok_or_else(|| format!("missing section \"{section}\""))?;
        let nodes = number_fields(body, "nodes")?;
        if nodes.len() != NODE_COUNTS.len() {
            return Err(format!(
                "section {section}: expected {} entries, found {}",
                NODE_COUNTS.len(),
                nodes.len()
            ));
        }
        if !nodes.windows(2).all(|w| w[0] < w[1]) {
            return Err(format!(
                "section {section}: node counts not strictly increasing: {nodes:?}"
            ));
        }
        for field in nonzero_fields {
            let values = number_fields(body, field)?;
            if values.len() != nodes.len() {
                return Err(format!(
                    "section {section}: field {field} missing from some entries"
                ));
            }
            if values.iter().any(|&v| v <= 0.0) {
                return Err(format!(
                    "section {section}: field {field} must be nonzero in every entry"
                ));
            }
        }
        for field in [
            "speedup",
            "wall_secs",
            "scan_secs",
            "batch_secs",
            "wall_off_secs",
            "wall_on_secs",
            "heap_secs",
            "wheel_secs",
            "btree_secs",
            "dense_secs",
        ] {
            // Wall-clock fields, where present, must parse as positive.
            let values = number_fields(body, field).unwrap_or_default();
            if values.iter().any(|&v| v <= 0.0) {
                return Err(format!("section {section}: field {field} not positive"));
            }
        }
        let _ = write!(summary, "{section}: {} entries; ", nodes.len());
    }
    Ok(summary)
}

/// Slice out a section's array body: from `"name": [` to the next `]`.
fn section_body<'a>(text: &'a str, name: &str) -> Option<&'a str> {
    let needle = format!("\"{name}\": [");
    let start = text.find(&needle)? + needle.len();
    let end = text[start..].find(']')?;
    Some(&text[start..start + end])
}

/// All values of `"field": <number>` within `body`, in order.
fn number_fields(body: &str, field: &str) -> Result<Vec<f64>, String> {
    let needle = format!("\"{field}\": ");
    let mut out = Vec::new();
    let mut rest = body;
    while let Some(pos) = rest.find(&needle) {
        let tail = &rest[pos + needle.len()..];
        let end = tail
            .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
            .unwrap_or(tail.len());
        let raw = &tail[..end];
        let v: f64 = raw
            .parse()
            .map_err(|_| format!("field {field}: bad number {raw:?}"))?;
        out.push(v);
        rest = tail;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_report_generates_and_validates() {
        let report = generate(&QUICK);
        let summary = validate_report(&report).expect("quick report is schema-valid");
        assert!(summary.contains("checker"));
    }

    #[test]
    fn validation_rejects_broken_reports() {
        let report = generate(&QUICK);
        assert!(validate_report(&report.replace("\"seed\": 42", "\"seed\": 7")).is_err());
        assert!(validate_report(&report.replace("checker", "chequer")).is_err());
        // Zero out a required counter.
        let broken = {
            let body = section_body(&report, "checker").unwrap().to_string();
            report.replace(&body, &regex_free_zero(&body, "ops"))
        };
        assert!(validate_report(&broken).is_err());
    }

    /// Replace every `"field": N` with `"field": 0` without regexes.
    fn regex_free_zero(body: &str, field: &str) -> String {
        let needle = format!("\"{field}\": ");
        let mut out = String::new();
        let mut rest = body;
        while let Some(pos) = rest.find(&needle) {
            out.push_str(&rest[..pos + needle.len()]);
            let tail = &rest[pos + needle.len()..];
            let end = tail
                .find(|c: char| !(c.is_ascii_digit() || c == '.'))
                .unwrap_or(tail.len());
            out.push('0');
            rest = &tail[end..];
        }
        out.push_str(rest);
        out
    }
}
