//! `fragdb-trace` — the structured-telemetry explorer.
//!
//! Runs one or more telemetry scenarios (§4.1 read locks fault-free,
//! §4.3 unrestricted under faults, §4.4.1 majority movement, §5
//! self-healing token recovery) and renders:
//!
//! 1. a per-fragment ASCII timeline joining each commit to the installs it
//!    caused (flagging incomplete R-joins);
//! 2. a lag/staleness/stall summary table from the derived probes;
//! 3. optionally a JSON-lines export of the raw event log, which
//!    `--validate` checks (every line decodes strictly, virtual time never
//!    decreases within a scenario).
//!
//! A path that cannot be read or written is one line on stderr and exit 1;
//! arguments that do not parse are the usage line and exit 2, as in
//! `fragdb-exp`. Neither prints anything on stdout.
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

use std::io::Write as _;

use fragdb_harness::trace::{
    render_jsonl, render_summary, render_timeline, run_scenario, validate_jsonl, SCENARIOS,
};
use fragdb_obs::{attribution_table, folded, span_lines, validate_folded, SpanReport};

const USAGE: &str = "usage: fragdb-trace [--scenario NAME]... [--seed N] [--quick] \
                     [--out PATH] [--rows N] | --list | --validate PATH | \
                     spans FILE.jsonl | critical-path FILE.jsonl [--out PATH]";

/// Exit 1: a file that cannot be read, written or decoded.
fn fail(msg: String) -> ! {
    eprintln!("fragdb-trace: {msg}");
    std::process::exit(1);
}

/// Exit 2: arguments that do not parse.
fn refuse(msg: String) -> ! {
    eprintln!("fragdb-trace: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// The value that must follow `flag`.
fn value(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
    args.next()
        .unwrap_or_else(|| refuse(format!("{flag} needs a value")))
}

/// The non-negative integer that must follow `flag`.
fn number<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
    let text = value(args, flag);
    let Ok(number) = text.parse() else {
        refuse(format!(
            "{flag} must be a non-negative integer, got {text:?}"
        ));
    };
    number
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")))
}

/// Opened before anything is printed: an unwritable path stops the run early.
fn create(path: &str) -> std::fs::File {
    std::fs::File::create(path).unwrap_or_else(|e| fail(format!("cannot write {path}: {e}")))
}

fn write(mut file: std::fs::File, path: &str, text: &str) {
    if let Err(e) = file.write_all(text.as_bytes()) {
        fail(format!("cannot write {path}: {e}"));
    }
    println!("wrote {path} ({} bytes)", text.len());
}

/// Load and reconstruct a JSONL export, exiting with a message on error.
fn load_report(path: &str) -> SpanReport {
    SpanReport::from_jsonl(&read(path))
        .unwrap_or_else(|msg| fail(format!("{path}: cannot reconstruct spans — {msg}")))
}

/// `spans FILE`: one line per reconstructed span, then the status totals.
fn cmd_spans(path: &str) {
    let report = load_report(path);
    print!("{}", span_lines(&report));
    println!(
        "{} spans: {} complete, {} incomplete, {} truncated, {} uncommitted, {} discarded",
        report.len(),
        report.complete,
        report.incomplete,
        report.truncated,
        report.uncommitted,
        report.discarded
    );
}

/// `critical-path FILE [--out PATH]`: attribution table + folded stacks.
fn cmd_critical_path(path: &str, out: Option<&str>) {
    let report = load_report(path);
    let sink = out.map(|p| (create(p), p));
    print!("{}", attribution_table(&report));
    let stacks = folded(&report);
    if let Err(msg) = validate_folded(&stacks) {
        fail(format!("internal error: folded output invalid — {msg}"));
    }
    match sink {
        Some((file, p)) => write(file, p, &stacks),
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
            let file = value(&mut args, "spans");
            if let Some(extra) = args.next() {
                refuse(format!("unexpected argument {extra:?}"));
            }
            cmd_spans(&file);
            return;
        }
        Some("critical-path") => {
            args.next();
            let mut file: Option<String> = None;
            let mut fold_out: Option<String> = None;
            while let Some(a) = args.next() {
                match a.as_str() {
                    "--out" => fold_out = Some(value(&mut args, "--out")),
                    other if file.is_none() && !other.starts_with('-') => {
                        file = Some(other.to_string())
                    }
                    other => refuse(format!("unexpected argument {other:?}")),
                }
            }
            let file = file.unwrap_or_else(|| refuse("critical-path needs a value".into()));
            cmd_critical_path(&file, fold_out.as_deref());
            return;
        }
        _ => {}
    }
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scenario" => scenarios.push(value(&mut args, "--scenario")),
            "--seed" => seed = number(&mut args, "--seed"),
            "--quick" => quick = true,
            "--rows" => rows = number(&mut args, "--rows"),
            "--out" => out = Some(value(&mut args, "--out")),
            "--validate" => validate = Some(value(&mut args, "--validate")),
            "--list" => {
                for s in SCENARIOS {
                    println!("{s}");
                }
                return;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => refuse(format!("unexpected argument {other:?}")),
        }
    }

    if let Some(path) = validate {
        match validate_jsonl(&read(&path)) {
            Ok(stats) => {
                let kinds: Vec<String> = stats
                    .by_event
                    .iter()
                    .map(|(k, n)| format!("{k}:{n}"))
                    .collect();
                println!("{path}: OK — {} events ({})", stats.events, kinds.join(" "));
            }
            Err(msg) => fail(format!("{path}: INVALID — {msg}")),
        }
        return;
    }

    if scenarios.is_empty() {
        scenarios = SCENARIOS.iter().map(|s| s.to_string()).collect();
    }
    let sink = out.as_deref().map(|p| (create(p), p));

    let mut export = String::new();
    for name in &scenarios {
        let Some(run) = run_scenario(name, seed, quick) else {
            refuse(format!("unknown scenario {name:?} (try --list)"));
        };
        println!("{}", render_timeline(&run, rows));
        println!("{}", render_summary(&run));
        if sink.is_some() {
            let text = render_jsonl(&run);
            validate_jsonl(&text).expect("the export must read back");
            export.push_str(&text);
        }
    }

    if let Some((file, path)) = sink {
        write(file, path, &export);
    }
}
