//! `fragdb-trace` — the structured-telemetry explorer.
//!
//! Runs one or more telemetry scenarios (§4.1 read locks fault-free,
//! §4.3 unrestricted under faults, §4.4.1 majority movement, §5
//! self-healing token recovery, §6 allocator-driven partial replication)
//! and renders:
//!
//! 1. a per-fragment ASCII timeline joining each commit to the installs it
//!    caused (flagging incomplete R-joins);
//! 2. a lag/staleness/stall summary table from the derived probes;
//! 3. optionally a JSON-lines export of the raw event log, which
//!    `--validate` checks (every line decodes strictly, virtual time never
//!    decreases within a scenario).
//!
//! The run fails (exit 1) if any emitted metric key is missing from the
//! `fragdb_sim::metrics::keys` registry — CI uses this as the telemetry
//! smoke check.
//!
//! Two subcommands consume a saved JSONL export through the `fragdb-obs`
//! span reconstruction. They read through the same decoder as
//! `--validate` and accept the same files, except that a file of several
//! scenarios is refused (exit 1): causal ids restart with every run.
//!
//!   fragdb-trace spans FILE.jsonl          per-commit spans + critical paths
//!   fragdb-trace critical-path FILE.jsonl  attribution table + folded stacks
//!                [--out PATH]              (write the folded stacks to PATH)
//!
//! Usage:
//!   fragdb-trace [--scenario NAME]... [--seed N] [--quick]
//!                [--out PATH] [--rows N]
//!   fragdb-trace --list
//!   fragdb-trace --validate PATH
//!   fragdb-trace spans FILE.jsonl
//!   fragdb-trace critical-path FILE.jsonl [--out PATH]

use fragdb_harness::trace::{
    render_jsonl, render_summary, render_timeline, run_scenario, unregistered_metric_keys,
    validate_jsonl, SCENARIOS,
};
use fragdb_obs::{attribution_table, folded, span_lines, validate_folded, SpanReport};

/// Load and reconstruct a JSONL export, exiting with a message on error.
fn load_report(path: &str) -> SpanReport {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    match SpanReport::from_jsonl(&text) {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("{path}: cannot reconstruct spans — {msg}");
            std::process::exit(1);
        }
    }
}

/// `spans FILE`: one line per reconstructed span, then the status totals.
fn cmd_spans(path: &str) {
    let report = load_report(path);
    print!("{}", span_lines(&report));
    println!(
        "{} spans: {} complete, {} incomplete, {} truncated, {} discarded",
        report.len(),
        report.complete,
        report.incomplete,
        report.truncated,
        report.discarded
    );
}

/// `critical-path FILE [--out PATH]`: attribution table + folded stacks.
fn cmd_critical_path(path: &str, out: Option<&str>) {
    let report = load_report(path);
    print!("{}", attribution_table(&report));
    let stacks = folded(&report);
    if let Err(msg) = validate_folded(&stacks) {
        eprintln!("internal error: folded output invalid — {msg}");
        std::process::exit(1);
    }
    match out {
        Some(p) => {
            std::fs::write(p, &stacks).unwrap_or_else(|e| panic!("cannot write {p}: {e}"));
            println!("wrote {p} ({} bytes)", stacks.len());
        }
        None => print!("{stacks}"),
    }
}

fn main() {
    let mut scenarios: Vec<String> = Vec::new();
    let mut seed: u64 = 42;
    let mut quick = false;
    let mut rows: usize = 10;
    let mut out: Option<String> = None;
    let mut validate: Option<String> = None;
    let mut args = std::env::args().skip(1).peekable();
    // Subcommands first: `spans FILE` / `critical-path FILE [--out PATH]`.
    match args.peek().map(String::as_str) {
        Some("spans") => {
            args.next();
            let file = args.next().unwrap_or_else(|| {
                eprintln!("usage: fragdb-trace spans FILE.jsonl");
                std::process::exit(2);
            });
            cmd_spans(&file);
            return;
        }
        Some("critical-path") => {
            args.next();
            let mut file: Option<String> = None;
            let mut fold_out: Option<String> = None;
            while let Some(a) = args.next() {
                match a.as_str() {
                    "--out" => fold_out = Some(args.next().expect("--out needs a path")),
                    other if file.is_none() && !other.starts_with('-') => {
                        file = Some(other.to_string())
                    }
                    other => {
                        eprintln!("unknown argument: {other}");
                        std::process::exit(2);
                    }
                }
            }
            let Some(file) = file else {
                eprintln!("usage: fragdb-trace critical-path FILE.jsonl [--out PATH]");
                std::process::exit(2);
            };
            cmd_critical_path(&file, fold_out.as_deref());
            return;
        }
        _ => {}
    }
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scenario" => scenarios.push(args.next().expect("--scenario needs a name")),
            "--seed" => {
                seed = args
                    .next()
                    .expect("--seed needs a value")
                    .parse()
                    .expect("--seed must be an integer")
            }
            "--quick" => quick = true,
            "--rows" => {
                rows = args
                    .next()
                    .expect("--rows needs a value")
                    .parse()
                    .expect("--rows must be an integer")
            }
            "--out" => out = Some(args.next().expect("--out needs a path")),
            "--validate" => validate = Some(args.next().expect("--validate needs a path")),
            "--list" => {
                for s in SCENARIOS {
                    println!("{s}");
                }
                return;
            }
            "--help" | "-h" => {
                println!(
                    "fragdb-trace [--scenario NAME]... [--seed N] [--quick] \
                     [--out PATH] [--rows N] | --list | --validate PATH | \
                     spans FILE.jsonl | critical-path FILE.jsonl [--out PATH]"
                );
                return;
            }
            other => {
                eprintln!("unknown argument: {other} (try --help)");
                std::process::exit(2);
            }
        }
    }

    if let Some(path) = validate {
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
        match validate_jsonl(&text) {
            Ok(stats) => {
                let kinds: Vec<String> = stats
                    .by_event
                    .iter()
                    .map(|(k, n)| format!("{k}:{n}"))
                    .collect();
                println!("{path}: OK — {} events ({})", stats.events, kinds.join(" "));
            }
            Err(msg) => {
                eprintln!("{path}: INVALID — {msg}");
                std::process::exit(1);
            }
        }
        return;
    }

    if scenarios.is_empty() {
        scenarios = SCENARIOS.iter().map(|s| s.to_string()).collect();
    }

    let mut export = String::new();
    let mut bad_keys: Vec<String> = Vec::new();
    for name in &scenarios {
        let Some(run) = run_scenario(name, seed, quick) else {
            eprintln!("unknown scenario: {name} (try --list)");
            std::process::exit(2);
        };
        println!("{}", render_timeline(&run, rows));
        println!("{}", render_summary(&run));
        for key in unregistered_metric_keys(&run.metrics) {
            bad_keys.push(format!("{name}: {key}"));
        }
        if out.is_some() {
            let text = render_jsonl(&run);
            validate_jsonl(&text).expect("the export must read back");
            export.push_str(&text);
        }
    }

    if let Some(path) = out {
        std::fs::write(&path, &export).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("wrote {path} ({} bytes)", export.len());
    }

    if !bad_keys.is_empty() {
        eprintln!("unregistered metric keys emitted:");
        for k in &bad_keys {
            eprintln!("  {k}");
        }
        std::process::exit(1);
    }
}
