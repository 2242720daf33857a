//! `fragdb-trace` refuses bad input the way its header says: a path it
//! cannot read or write is one line on stderr and exit 1, arguments that
//! do not parse are the usage line and exit 2, and neither prints anything
//! on stdout. It used to panic (exit 101 and a backtrace) on all of them.

use std::process::{Command, Output};

fn trace(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fragdb-trace"))
        .args(args)
        .output()
        .expect("fragdb-trace runs")
}

/// Exit code `code`, nothing on stdout, no panic, and `needle` in the
/// message, which is returned.
fn stopped(args: &[&str], code: i32, needle: &str) -> String {
    let out = trace(args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(code), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    stderr
}

/// Exit 1 with exactly one line on stderr.
fn failed(args: &[&str], needle: &str) {
    let stderr = stopped(args, 1, needle);
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
}

/// Exit 2 with the usage line.
fn refused(args: &[&str], needle: &str) {
    let stderr = stopped(args, 2, needle);
    assert!(stderr.contains("usage: fragdb-trace"), "{args:?}: {stderr}");
}

#[test]
fn unreadable_file_is_one_line_and_exit_1() {
    failed(&["spans", "/nonexistent"], "cannot read /nonexistent");
    failed(
        &["critical-path", "/nonexistent"],
        "cannot read /nonexistent",
    );
    failed(&["--validate", "/nonexistent"], "cannot read /nonexistent");
}

#[test]
fn unwritable_out_is_refused_before_the_run_prints() {
    let out = ["--out", "/nonexistent/dir/x.jsonl"];
    let run = ["--scenario", "read-locks-fixed", "--quick"];
    failed(&[&run[..], &out[..]].concat(), "cannot write /nonexistent");
    // `critical-path --out` reads its input first: give it a real export.
    let export = std::env::temp_dir().join(format!("fragdb_trace_{}.jsonl", std::process::id()));
    let export = export.to_str().expect("temp paths are UTF-8");
    assert!(trace(&[&run[..], &["--out", export]].concat())
        .status
        .success());
    failed(
        &[&["critical-path", export], &out[..]].concat(),
        "cannot write /nonexistent",
    );
    std::fs::remove_file(export).expect("the export was written");
}

#[test]
fn mistyped_number_is_refused() {
    refused(&["--seed", "x"], "--seed must be");
    refused(&["--quick", "--rows", "x"], "--rows must be");
    refused(&["--seed", "-1"], "--seed must be");
}

#[test]
fn flag_without_its_value_is_refused() {
    for flag in ["--scenario", "--seed", "--rows", "--out", "--validate"] {
        refused(&[flag], &format!("{flag} needs a value"));
    }
    refused(&["spans"], "spans needs a value");
    refused(&["critical-path"], "critical-path needs a value");
    refused(
        &["critical-path", "f.jsonl", "--out"],
        "--out needs a value",
    );
}

#[test]
fn stray_argument_is_refused() {
    refused(
        &["spans", "f.jsonl", "g.jsonl"],
        "unexpected argument \"g.jsonl\"",
    );
    refused(
        &["critical-path", "f.jsonl", "g.jsonl"],
        "unexpected argument \"g.jsonl\"",
    );
    refused(&["--quik"], "unexpected argument \"--quik\"");
    refused(&["--scenario", "nope"], "unknown scenario \"nope\"");
}
