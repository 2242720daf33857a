//! `fragdb-mc` refuses bad arguments the way `fragdb-exp` and
//! `fragdb-trace` do: a message on stderr, exit 2, nothing on stdout, no
//! panic. It used to panic (exit 101 and a backtrace) on an unparseable
//! seed, a flag without its value and an unknown instance name, and called
//! `--help` an unknown argument. Exit 1 stays reserved for a violation or a
//! witness that does not replay.

use std::process::{Command, Output};

fn mc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fragdb-mc"))
        .args(args)
        .output()
        .expect("fragdb-mc runs")
}

/// Exit 2, nothing on stdout, no panic, and `needle` in the message, which
/// is returned.
fn refused(args: &[&str], needle: &str) -> String {
    let out = mc(args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    stderr
}

/// Refused with the usage line after the message.
fn refused_with_usage(args: &[&str], needle: &str) {
    let stderr = refused(args, needle);
    assert!(stderr.contains("usage: fragdb-mc"), "{args:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 2, "{args:?}: {stderr}");
}

#[test]
fn mistyped_seed_is_refused() {
    refused_with_usage(&["--seed", "x"], "--seed must be");
    refused_with_usage(&["--quick", "--seed", "-1"], "--seed must be");
}

#[test]
fn flag_without_its_value_is_refused() {
    refused_with_usage(&["--seed"], "--seed needs a value");
    refused_with_usage(&["--quick", "--config"], "--config needs a value");
}

#[test]
fn unknown_flag_is_refused() {
    refused_with_usage(&["--quik"], "unexpected argument \"--quik\"");
}

#[test]
fn unknown_instance_is_one_line_naming_the_known_ones() {
    let stderr = refused(
        &["--quick", "--config", "nosuch"],
        "unknown instance \"nosuch\"",
    );
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.contains("quickstart") && stderr.contains("chaos-mesh"));
}

#[test]
fn help_prints_usage_and_exits_0() {
    let out = mc(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage: fragdb-mc"));
    assert!(out.stderr.is_empty());
}

#[test]
fn witnesses_only_derives_all_eight_codes() {
    let out = mc(&["--witnesses-only"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    let codes = stdout
        .lines()
        .filter(|l| l.starts_with("  FDB") && l.contains("step(s)"))
        .count();
    assert_eq!(codes, 8, "{stdout}");
    assert!(stdout.ends_with("fragdb-mc: ok\n"), "{stdout}");
}
