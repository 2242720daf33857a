//! `fragdb-mc` — CLI for the bounded model checker.
//!
//! Explores the shrunk-registry instances (every admitted
//! `harness::configs` entry at model-checking scale) and reports state
//! counts, dedup/POR effectiveness, and any invariant violations; then
//! re-derives the counterexample witness for every rejecting
//! `FDB02x`/`FDB03x` diagnostic code and confirms it replays.
//!
//! Usage: the `USAGE` line below, which `--help` prints.
//!
//! Exit status is 1 if any soundness-oracle instance explores with a
//! violation, or any rejecting code fails to produce a replaying witness;
//! 2 (message on stderr, nothing on stdout) if the arguments do not parse
//! or name no instance.

use fragdb_mc::registry::{shrunk_by_name, shrunk_registry};
use fragdb_mc::witness::REJECTING_CODES;
use fragdb_mc::{explore, witness_for, ExploreConfig, ExploreStats};

fn print_stats(s: &ExploreStats) {
    println!(
        "  {:<30} states {:>6}  transitions {:>7}  dedup {:>6}  por {:>5}  rto {:>5}  depth {:>3}  replays {:>6}{}",
        s.instance,
        s.states,
        s.transitions,
        s.dedup_hits,
        s.por_pruned,
        s.rto_pruned,
        s.max_depth_seen,
        s.replays,
        if s.truncated { "  (truncated)" } else { "" },
    );
    for v in &s.violations {
        println!("    VIOLATION {}: {}", v.kind, v.detail);
        for (i, step) in v.steps.iter().enumerate() {
            println!("      {:>2}. {step}", i + 1);
        }
    }
}

const USAGE: &str =
    "usage: fragdb-mc [--quick] [--config NAME] [--no-por] [--seed N] [--witnesses-only]";

/// Exit 2: arguments that do not parse.
fn refuse(msg: String) -> ! {
    eprintln!("fragdb-mc: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// The value that must follow `flag`.
fn value(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
    args.next()
        .unwrap_or_else(|| refuse(format!("{flag} needs a value")))
}

fn main() {
    let mut cfg = ExploreConfig::full();
    let mut seed = 42u64;
    let mut only: Option<String> = None;
    let mut witnesses_only = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => cfg = ExploreConfig::quick(),
            "--no-por" => cfg.por = false,
            "--config" => only = Some(value(&mut args, "--config")),
            "--seed" => {
                let text = value(&mut args, "--seed");
                seed = text.parse().unwrap_or_else(|_| {
                    refuse(format!(
                        "--seed must be a non-negative integer, got {text:?}"
                    ))
                });
            }
            "--witnesses-only" => witnesses_only = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => refuse(format!("unexpected argument {other:?}")),
        }
    }
    let instances = match &only {
        Some(name) => match shrunk_by_name(name, seed) {
            Some(instance) => vec![instance],
            None => {
                let known: Vec<String> =
                    shrunk_registry(seed).into_iter().map(|i| i.name).collect();
                eprintln!(
                    "fragdb-mc: unknown instance {name:?}; known: {}",
                    known.join(" ")
                );
                std::process::exit(2);
            }
        },
        None => shrunk_registry(seed),
    };

    let mut failed = false;

    if !witnesses_only {
        println!(
            "soundness oracle: exploring {} shrunk registry instance(s) (seed {seed}, max {} states, POR {})",
            instances.len(),
            cfg.max_states,
            if cfg.por { "on" } else { "off" },
        );
        for inst in &instances {
            let stats = explore(inst, &cfg);
            print_stats(&stats);
            if !stats.clean() {
                failed = true;
            }
        }
    }

    if only.is_none() {
        println!("witnesses: deriving counterexamples for rejecting FDB02x/FDB03x codes");
        for code in REJECTING_CODES {
            match witness_for(code) {
                Some(w) if w.replay() => {
                    println!(
                        "  {:<8} {:>2} step(s)  {}",
                        code.as_str(),
                        w.len(),
                        w.outcome()
                    );
                }
                Some(_) => {
                    println!("  {:<8} witness found but DOES NOT REPLAY", code.as_str());
                    failed = true;
                }
                None => {
                    println!("  {:<8} NO WITNESS", code.as_str());
                    failed = true;
                }
            }
        }
    }

    if failed {
        eprintln!("fragdb-mc: FAILED");
        std::process::exit(1);
    }
    println!("fragdb-mc: ok");
}
