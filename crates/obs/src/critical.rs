//! Critical-path rendering: attribution tables and folded stacks.
//!
//! The folded-stack format is one `stack-frames µs` line per leaf,
//! frames joined with `;` — the textual input flamegraph tools consume.
//! Rendering is **deterministic**: leaves appear in fixed lexicographic
//! order and durations are virtual-time sums, so the same seed yields
//! byte-identical output.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::span::SpanReport;

/// Folded-stack leaf for one phase observation.
fn folded_leaf(phase: &str) -> &'static str {
    match phase {
        "queue" => "commit;queue;wait",
        "token_move" => "commit;queue;token_move",
        "election" => "commit;queue;election",
        "lock_wait" => "commit;lock_wait",
        "exec" => "commit;exec",
        "net" => "commit;net;clean",
        "retransmit" => "commit;net;retransmit",
        "holdback" => "commit;holdback",
        other => unreachable!("unregistered span phase {other}"),
    }
}

/// Render the report's phase totals as a folded stack.
///
/// Leaves are disjoint (every µs of every span phase lands in exactly
/// one), sorted lexicographically, and zero-count leaves are omitted. A
/// phase's total is its sketch's sum, which is exact.
pub fn folded(report: &SpanReport) -> String {
    let totals: BTreeMap<&'static str, u128> = report
        .phase
        .iter()
        .map(|(&phase, sketch)| (folded_leaf(phase), sketch.sum()))
        .collect();
    let mut out = String::new();
    for (leaf, us) in totals {
        let _ = writeln!(out, "{leaf} {us}");
    }
    out
}

/// Validate folded-stack text: non-empty, every line `frames µs` with
/// frames from the known leaf vocabulary, strictly sorted, no dupes.
pub fn validate_folded(text: &str) -> Result<(), String> {
    const LEAVES: &[&str] = &[
        "commit;exec",
        "commit;holdback",
        "commit;lock_wait",
        "commit;net;clean",
        "commit;net;retransmit",
        "commit;queue;election",
        "commit;queue;token_move",
        "commit;queue;wait",
    ];
    let mut prev: Option<&str> = None;
    let mut lines = 0usize;
    for (i, line) in text.lines().enumerate() {
        let (leaf, us) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no space separator: {line:?}", i + 1))?;
        if !LEAVES.contains(&leaf) {
            return Err(format!("line {}: unknown leaf {leaf:?}", i + 1));
        }
        us.parse::<u128>()
            .map_err(|_| format!("line {}: bad duration {us:?}", i + 1))?;
        if let Some(p) = prev {
            if p >= leaf {
                return Err(format!(
                    "line {}: leaves out of order ({p:?} >= {leaf:?})",
                    i + 1
                ));
            }
        }
        prev = Some(leaf);
        lines += 1;
    }
    if lines == 0 {
        return Err("folded output is empty".into());
    }
    Ok(())
}

/// Render the critical-path attribution table: for each phase, how many
/// commits it dominated and the virtual time it contributed there.
pub fn attribution_table(report: &SpanReport) -> String {
    let committed = report.complete + report.incomplete;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "critical-path attribution over {committed} committed spans \
         ({} complete, {} incomplete, {} truncated, {} uncommitted, {} discarded)",
        report.complete, report.incomplete, report.truncated, report.uncommitted, report.discarded
    );
    let _ = writeln!(
        out,
        "{:<12} {:>8} {:>7} {:>14}",
        "phase", "commits", "share", "total_us"
    );
    let mut rows: Vec<(&'static str, u64, u128)> = report
        .critical
        .iter()
        .map(|(&name, &(n, us))| (name, n, us))
        .collect();
    // Heaviest dominator first; name breaks ties deterministically.
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    for (name, n, us) in rows {
        let share = if committed > 0 {
            100.0 * n as f64 / committed as f64
        } else {
            0.0
        };
        let _ = writeln!(out, "{name:<12} {n:>8} {share:>6.1}% {us:>14}");
    }
    out
}

/// Render per-span critical paths (one line each) — the `spans`
/// subcommand's detailed view.
pub fn span_lines(report: &SpanReport) -> String {
    let mut out = String::new();
    for s in &report.spans {
        let _ = write!(
            out,
            "frag={} epoch={} seq={} status={:?} legs={}",
            s.cause.fragment,
            s.cause.epoch,
            s.cause.frag_seq,
            s.status,
            s.legs.len()
        );
        let path = SpanReport::critical_path(s);
        if path.is_empty() {
            let _ = writeln!(out);
            continue;
        }
        let total: u128 = path.iter().map(|&(_, us)| u128::from(us)).sum();
        let _ = write!(out, " critical={total}us:");
        for (name, us) in path {
            let _ = write!(out, " {name}={us}");
        }
        let _ = writeln!(out);
    }
    out
}
