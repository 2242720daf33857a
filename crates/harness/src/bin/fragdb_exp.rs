//! `fragdb-exp` — regenerates one of the paper's figures/scenarios.
//!
//! Usage:
//!   fragdb-exp <e1…e12 | name> [seed] [trials]
//!   fragdb-exp --list
//!
//! `seed` defaults to 42 (the seed EXPERIMENTS.md records); `trials` is
//! taken by the Monte-Carlo experiments only (E8, E9; default 50). A
//! selector, seed or trial count that does not parse is refused (exit 2)
//! rather than replaced by the default: a table for the wrong run looks
//! exactly like one for the right run.

use fragdb_harness::experiments::{self, Experiment};

/// `what` parsed from `arg`, or the message to exit 2 with.
fn number<T: std::str::FromStr>(what: &str, arg: &str) -> Result<T, String> {
    arg.parse()
        .map_err(|_| format!("{what} must be a non-negative integer, got {arg:?}"))
}

fn parse(args: &[String]) -> Result<(&'static Experiment, u64, u32), String> {
    let selector = args.first().ok_or("no experiment named")?;
    let exp = experiments::find(selector).ok_or_else(|| {
        let names: Vec<_> = experiments::ALL.iter().map(|e| e.name).collect();
        format!(
            "unknown experiment {selector:?}; pick one of e1…e12 or {}",
            names.join(", ")
        )
    })?;
    let seed = match args.get(1) {
        Some(a) => number("seed", a)?,
        None => 42,
    };
    let accepted = if exp.trials.is_some() { 3 } else { 2 };
    if let Some(extra) = args.get(accepted) {
        return Err(format!("unexpected argument {extra:?} for {}", exp.name));
    }
    let trials = match args.get(2) {
        Some(a) => number("trials", a)?,
        None => exp.trials.unwrap_or(0),
    };
    Ok((exp, seed, trials))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--list"] {
        print!("{}", experiments::list());
        return;
    }
    match parse(&args) {
        Ok((exp, seed, trials)) => println!("{}", (exp.run)(seed, trials)),
        Err(msg) => {
            eprintln!("fragdb-exp: {msg}");
            eprintln!("usage: fragdb-exp <e1…e12 | name> [seed] [trials] | --list");
            std::process::exit(2);
        }
    }
}
