//! The fragdb benchmark of record.
//!
//! ```text
//! fragdb-benchmark --workload W --seed N --seconds S --trace 0|1   one driver run
//! fragdb-benchmark all [--seed N] [--seconds S]                    every workload, both passes
//! fragdb-benchmark check [--seed N]                                mini shapes, every oracle
//! fragdb-benchmark compare A.json B.json                           judge B against A
//! ```
//!
//! A driver run prints every metric of its pass by name and ends with one
//! JSON line. `all`, `check` and `compare` exit non-zero when an oracle
//! fails or a row is worse.

// The repository forbids wall-clock reads because they would break the
// simulation's determinism. Reading the wall clock is what a benchmark is.
#![allow(clippy::disallowed_methods)]

mod declared;
mod json;
mod layers;
mod rep;
mod report;
mod run;
mod spec;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;

use declared::Declared;
use rep::{Mode, RepSpec};
use spec::Workload;

/// Where the traced pass leaves its spans, relative to the directory the
/// benchmark is run from (the root of the checkout).
const OUT_DIR: &str = "benchmark/out";
/// The results document `all` writes there.
const RESULTS: &str = "results.json";

/// `--key value` pairs after the subcommand; anything else is refused.
fn flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let key = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {arg}"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        out.insert(key.to_string(), value.clone());
    }
    Ok(out)
}

fn number<T: std::str::FromStr>(
    flags: &BTreeMap<String, String>,
    key: &str,
    default: Option<T>,
) -> Result<T, String> {
    match flags.get(key) {
        Some(text) => text
            .parse()
            .map_err(|_| format!("--{key} {text} is not a valid number")),
        None => default.ok_or_else(|| format!("--{key} is required")),
    }
}

fn workload(flags: &BTreeMap<String, String>) -> Result<Workload, String> {
    let name = flags.get("workload").ok_or("--workload is required")?;
    Workload::parse(name).ok_or_else(|| {
        let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name}; known: {}", known.join(", "))
    })
}

fn switch(flags: &BTreeMap<String, String>, key: &str) -> Result<bool, String> {
    Ok(number::<u8>(flags, key, Some(0))? != 0)
}

/// One repetition, in this process: what a child of a run executes.
fn cmd_rep(args: &[String]) -> Result<ExitCode, String> {
    let flags = flags(args)?;
    let workload = workload(&flags)?;
    let mode_name = flags.get("mode").ok_or("--mode is required")?;
    let spec = RepSpec {
        workload,
        seed: number(&flags, "seed", None)?,
        mini: switch(&flags, "mini")?,
        mode: Mode::parse(mode_name).ok_or_else(|| format!("unknown mode {mode_name}"))?,
        id: number(&flags, "id", Some(0))?,
    };
    let (record, tracer) = rep::run(spec);
    if spec.mode == Mode::Traced {
        let path = Path::new(OUT_DIR).join(format!("{}.trace.jsonl", workload.name()));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    println!("{}", run::render_record(&record));
    // The record is out; tearing down a few hundred MB of maps node by node
    // would only make the parent wait.
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    std::process::exit(0);
}

/// One driver run of one workload.
fn cmd_driver(args: &[String]) -> Result<ExitCode, String> {
    let flags = flags(args)?;
    let declared = Declared::load();
    let workload = workload(&flags)?;
    let seed: u64 = number(&flags, "seed", None)?;
    let seconds: f64 = number(&flags, "seconds", Some(declared.run_seconds as f64))?;
    let traced = switch(&flags, "trace")?;
    let outcome = if traced {
        run::per_layer(workload, seed, false, &run::child)?
    } else {
        run::end_to_end(
            workload,
            seed,
            seconds,
            false,
            &declared.end_to_end,
            &run::child,
        )?
    };
    print!("{}", report::tables(&outcome, &declared));
    let metrics = if traced {
        &declared.per_layer
    } else {
        &declared.end_to_end
    };
    println!("{}", report::driver_line(&outcome, metrics, traced)?);
    Ok(ExitCode::SUCCESS)
}

/// Every workload, both passes; the results document; no claim.
fn cmd_all(args: &[String]) -> Result<ExitCode, String> {
    let flags = flags(args)?;
    let declared = Declared::load();
    let seed: u64 = number(&flags, "seed", Some(42))?;
    let seconds: f64 = number(&flags, "seconds", Some(declared.run_seconds as f64))?;
    let mut runs = Vec::new();
    let mut correct = true;
    for (workload, (_, why)) in Workload::ALL.into_iter().zip(&declared.workloads) {
        println!("-- {}: {why}", workload.name());
        let e2e = run::end_to_end(
            workload,
            seed,
            seconds,
            false,
            &declared.end_to_end,
            &run::child,
        )?;
        print!("{}", report::tables(&e2e, &declared));
        let layers = run::per_layer(workload, seed, false, &run::child)?;
        print!("{}", report::tables(&layers, &declared));
        correct &= e2e.correct && layers.correct;
        runs.push((e2e, layers));
    }
    let doc = report::results_json(seed, seconds, &runs, &declared);
    let path = Path::new(OUT_DIR).join(RESULTS);
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    std::fs::write(&path, format!("{doc}\n"))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("results written to {}", path.display());
    println!(
        "summary: {{\"workloads\": {}, \"correct\": {correct}, \"claim\": null}}",
        runs.len()
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The mini shape of every workload under every oracle, the batch analyzer
/// included.
fn cmd_check(args: &[String]) -> Result<ExitCode, String> {
    let flags = flags(args)?;
    let seed: u64 = number(&flags, "seed", Some(42))?;
    let mut correct = true;
    for workload in Workload::ALL {
        let outcome = run::per_layer(workload, seed, true, &run::child)?;
        println!(
            "check {:<15} seed {seed}: {} (attempted {}, failed {})",
            workload.name(),
            if outcome.correct { "PASS" } else { "FAIL" },
            outcome.attempted,
            outcome.failed
        );
        for problem in &outcome.problems {
            println!("   oracle failed: {problem}");
        }
        correct &= outcome.correct && outcome.failed == 0;
    }
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare takes two results files".into());
    };
    let load = |path: &String| -> Result<json::Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (table, any_worse) = report::compare(&load(a)?, &load(b)?, &Declared::load())?;
    print!("{table}");
    Ok(if any_worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("rep") => cmd_rep(&args[1..]),
        Some("all") => cmd_all(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some(flag) if flag.starts_with("--") => cmd_driver(&args),
        _ => Err(
            "usage: fragdb-benchmark --workload W --seed N --seconds S --trace 0|1 \
                  | all | check | compare A.json B.json"
                .into(),
        ),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("fragdb-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
