//! `fragdb-exp` refuses what it cannot parse. The twelve wrappers it
//! replaced fell back to seed 42 / 50 trials on a typo and printed a
//! plausible table for the wrong run.

use std::process::{Command, Output};

fn exp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fragdb-exp"))
        .args(args)
        .output()
        .expect("fragdb-exp runs")
}

/// Exit code 2, nothing on stdout, and `needle` in the message, which is
/// returned.
fn refused(args: &[&str], needle: &str) -> String {
    let out = exp(args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed a table");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
    stderr
}

#[test]
fn mistyped_seed_is_refused() {
    refused(&["e5", "4z"], "seed must be");
    refused(&["e5_gsg_cycle", "-1"], "seed must be");
}

#[test]
fn mistyped_trials_is_refused() {
    refused(&["e8", "42", "5o"], "trials must be");
    refused(&["e9", "42", "4294967296"], "trials must be");
}

#[test]
fn unknown_experiment_lists_the_twelve() {
    let message = refused(&["e13"], "unknown experiment \"e13\"");
    for e in &fragdb_harness::experiments::ALL {
        assert!(message.contains(e.name), "{} missing: {message}", e.name);
    }
    refused(&[], "no experiment named");
}

#[test]
fn extra_argument_is_refused() {
    refused(&["e5", "42", "50"], "unexpected argument \"50\"");
    refused(&["e8", "42", "50", "1"], "unexpected argument \"1\"");
    refused(&["--list", "e1"], "unknown experiment");
}

#[test]
fn list_prints_the_table_and_arguments_select_the_run() {
    let out = exp(&["--list"]);
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        fragdb_harness::experiments::list()
    );
    let table = |args: &[&str]| {
        let out = exp(args);
        assert!(out.status.success(), "{args:?}");
        String::from_utf8(out.stdout).expect("tables are UTF-8")
    };
    assert_eq!(table(&["e5"]), table(&["e5_gsg_cycle", "42"]));
    let run = table(&["e8", "7", "2"]);
    assert_eq!(
        run,
        format!("{}\n", fragdb_harness::experiments::e8_theorem::run(7, 2))
    );
    assert_ne!(run, table(&["e8", "42", "2"]), "the seed reaches the run");
    assert_ne!(run, table(&["e8", "7", "3"]), "the trials reach the run");
}
