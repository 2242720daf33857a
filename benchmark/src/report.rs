//! What the benchmark prints and writes: the metric tables, the layer-driver
//! table, the results document, and the comparison of two such documents.

use std::fmt::Write as _;

use crate::declared::{Declared, Metric};
use crate::json::{obj, Json};
use crate::run::{Outcome, LAYERS_IN_HANDLE, TELEMETRY_LAYER};
use crate::stats;

pub const SCHEMA: &str = "fragdb-benchmark/v1";

/// The last line of a driver run: exactly `correct`, `attempted`, `failed`
/// and `metrics`, the metrics being those of the pass that ran. An
/// end-to-end metric's value is that of its second-best repetition.
pub fn driver_line(outcome: &Outcome, metrics: &[Metric], traced: bool) -> Result<String, String> {
    let mut fields = Vec::new();
    for m in metrics {
        let value = if traced {
            outcome.per_layer.get(&m.name).copied()
        } else {
            outcome
                .end_to_end
                .get(&m.name)
                .map(|s| stats::second_best(s, m.higher_is_better))
        }
        .ok_or_else(|| format!("{} was declared but not measured", m.name))?;
        fields.push((
            m.name.clone(),
            obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(m.unit.clone())),
            ]),
        ));
    }
    Ok(obj([
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::Obj(fields)),
    ])
    .render())
}

/// Every metric of one outcome by name, with unit and better-direction.
pub fn tables(outcome: &Outcome, declared: &Declared) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== {} (seed {}): {} — attempted {}, failed {}",
        outcome.workload,
        outcome.seed,
        if outcome.correct {
            "correct"
        } else {
            "INCORRECT"
        },
        outcome.attempted,
        outcome.failed
    );
    for problem in &outcome.problems {
        let _ = writeln!(out, "   oracle failed: {problem}");
    }
    if !outcome.end_to_end.is_empty() {
        let _ = writeln!(
            out,
            "   {:<18} {:>14} {:>14} {:>14} {:>14} {:>3}  {:<6} {:<6} {:>5}",
            "end-to-end", "value", "median", "q1", "q3", "n", "unit", "better", "bound"
        );
        for m in &declared.end_to_end {
            let Some(samples) = outcome.end_to_end.get(&m.name) else {
                continue;
            };
            let (q1, q3) = stats::quartiles(samples);
            let _ = writeln!(
                out,
                "   {:<18} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>3}  {:<6} {:<6} {:>5}",
                m.name,
                stats::second_best(samples, m.higher_is_better),
                stats::median(samples),
                q1,
                q3,
                samples.len(),
                m.unit,
                m.better(),
                m.bound.unwrap_or(0.0)
            );
        }
    }
    if !outcome.per_layer.is_empty() {
        let _ = writeln!(
            out,
            "   {:<38} {:>16}  {:<6} {:<6}",
            "per-layer", "value", "unit", "better"
        );
        for m in &declared.per_layer {
            if let Some(v) = outcome.per_layer.get(&m.name) {
                let _ = writeln!(
                    out,
                    "   {:<38} {:>16.6}  {:<6} {:<6}",
                    m.name,
                    v,
                    m.unit,
                    m.better()
                );
            }
        }
        out.push_str(&ledger_table(outcome));
    }
    out
}

/// The layer-driver table: Σ busy_s + core.residual_s = the loop.
fn ledger_table(outcome: &Outcome) -> String {
    let mut out = String::new();
    let get = |k: &str| outcome.per_layer.get(k).copied().unwrap_or(0.0);
    let loop_s = get("core.loop.busy_s");
    let _ = writeln!(
        out,
        "   where the loop's {loop_s:.3} s go (layer drivers, measured from outside):"
    );
    let mut sum = 0.0;
    for row in LAYERS_IN_HANDLE.iter().chain(&["core.residual_s"]) {
        let in_loop = *row != TELEMETRY_LAYER || outcome.telemetry_in_loop;
        let v = get(row);
        if in_loop {
            sum += v;
        }
        let _ = writeln!(
            out,
            "     {:<26} {:>10.4} s {:>6.1} %{}",
            row,
            v,
            if loop_s > 0.0 {
                100.0 * v / loop_s
            } else {
                0.0
            },
            if in_loop {
                ""
            } else {
                "  (not in this loop: telemetry is off)"
            }
        );
    }
    let _ = writeln!(
        out,
        "     {:<26} {:>10.4} s (loop {:.4} s)",
        "sum", sum, loop_s
    );
    let bucket_sum: f64 = crate::rep::BUCKETS
        .iter()
        .map(|b| get(&format!("core.step.{b}.busy_s")))
        .sum();
    let _ = writeln!(
        out,
        "     traced pass: step buckets sum to {:.4} s of its {:.4} s loop; trace.overhead_frac {:.4}",
        bucket_sum,
        outcome.traced_loop_s,
        get("trace.overhead_frac")
    );
    out
}

/// One workload of the results document: its untraced and its traced run.
fn workload_json(e2e: &Outcome, layers: &Outcome, declared: &Declared) -> Json {
    let problems = e2e
        .problems
        .iter()
        .chain(&layers.problems)
        .cloned()
        .map(Json::Str)
        .collect();
    let end_to_end = declared
        .end_to_end
        .iter()
        .filter_map(|m| {
            let samples = e2e.end_to_end.get(&m.name)?;
            let (q1, q3) = stats::quartiles(samples);
            Some((
                m.name.clone(),
                obj([
                    ("unit", Json::Str(m.unit.clone())),
                    ("better", Json::Str(m.better().into())),
                    ("bound", Json::Num(m.bound.unwrap_or(0.0))),
                    (
                        "value",
                        Json::Num(stats::second_best(samples, m.higher_is_better)),
                    ),
                    ("median", Json::Num(stats::median(samples))),
                    ("q1", Json::Num(q1)),
                    ("q3", Json::Num(q3)),
                    ("n", Json::Num(samples.len() as f64)),
                ]),
            ))
        })
        .collect();
    let per_layer = declared
        .per_layer
        .iter()
        .filter_map(|m| {
            let v = layers.per_layer.get(&m.name)?;
            Some((
                m.name.clone(),
                obj([
                    ("unit", Json::Str(m.unit.clone())),
                    ("better", Json::Str(m.better().into())),
                    ("value", Json::Num(*v)),
                    ("n", Json::Num(1.0)),
                ]),
            ))
        })
        .collect();
    obj([
        ("correct", Json::Bool(e2e.correct && layers.correct)),
        ("attempted", Json::Num(e2e.attempted as f64)),
        ("failed", Json::Num(e2e.failed.max(layers.failed) as f64)),
        ("problems", Json::Arr(problems)),
        ("end_to_end", Json::Obj(end_to_end)),
        ("per_layer", Json::Obj(per_layer)),
    ])
}

/// The results document of a whole run. It claims nothing: `claim` is null.
pub fn results_json(
    seed: u64,
    seconds: f64,
    runs: &[(Outcome, Outcome)],
    declared: &Declared,
) -> String {
    let workloads = runs
        .iter()
        .map(|(e2e, layers)| (e2e.workload.clone(), workload_json(e2e, layers, declared)))
        .collect();
    let doc = obj([
        ("schema", Json::Str(SCHEMA.into())),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("workloads", Json::Obj(workloads)),
        ("claim", Json::Null),
    ]);
    pretty(&doc, 0)
}

/// Indented rendering, two levels deep; metric objects stay on one line.
fn pretty(value: &Json, depth: usize) -> String {
    match value {
        Json::Obj(fields) if depth < 4 && !fields.is_empty() => {
            let pad = "  ".repeat(depth + 1);
            let body: Vec<String> = fields
                .iter()
                .map(|(k, v)| {
                    format!(
                        "{pad}{}: {}",
                        Json::Str(k.clone()).render(),
                        pretty(v, depth + 1)
                    )
                })
                .collect();
            format!("{{\n{}\n{}}}", body.join(",\n"), "  ".repeat(depth))
        }
        other => other.render(),
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison row: the run's value (its second-best
/// repetition) and the median of its repetitions.
#[derive(Clone, Copy, Debug)]
pub struct Side {
    pub value: f64,
    pub median: f64,
}

impl Side {
    /// How far the run's typical repetition lay from the one it reports, as
    /// a share of that one: past the bound, the host disturbed more than
    /// half of the run, and its value resolves nothing.
    fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.median - self.value).abs() / self.value.abs()
        }
    }
}

/// Judge B against A. `worse_by` is the share of A's value by which B is
/// worse (negative when better). A spread wider than the bound on either
/// side leaves the row unresolved, not unchanged; a difference inside the
/// bound is `same` in either direction.
pub fn verdict(a: Side, b: Side, higher_is_better: bool, bound: f64) -> (Verdict, f64) {
    let worse_by = if a.value == 0.0 {
        0.0
    } else if higher_is_better {
        (a.value - b.value) / a.value.abs()
    } else {
        (b.value - a.value) / a.value.abs()
    };
    let v = if a.spread().max(b.spread()) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (v, worse_by)
}

fn side(metric: &Json) -> Option<Side> {
    Some(Side {
        value: metric.get("value")?.as_f64()?,
        median: metric.get("median")?.as_f64()?,
    })
}

/// Compare two results documents: one row per (workload, end-to-end
/// metric), plus one per workload for `failed_frac`, which has no bound.
/// Returns the table and whether any row is `worse`.
pub fn compare(a: &Json, b: &Json, declared: &Declared) -> Result<(String, bool), String> {
    let workloads = |doc: &Json| -> Result<Vec<(String, Json)>, String> {
        Ok(doc
            .get("workloads")
            .and_then(Json::as_obj)
            .ok_or("not a results document: no workloads")?
            .to_vec())
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut out = String::new();
    let mut any_worse = false;
    let _ = writeln!(
        out,
        "{:<15} {:<16} {:>13} {:>13} {:>9} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "A value", "B value", "B/A", "A off%", "B off%", "bound"
    );
    for (name, wa) in &wa {
        let Some((_, wb)) = wb.iter().find(|(n, _)| n == name) else {
            let _ = writeln!(out, "{name:<15} (absent from B)");
            continue;
        };
        for m in &declared.end_to_end {
            let bound = m.bound.unwrap_or(0.0);
            let pick = |w: &Json| {
                w.get("end_to_end")
                    .and_then(|e| e.get(&m.name))
                    .and_then(side)
            };
            let (Some(sa), Some(sb)) = (pick(wa), pick(wb)) else {
                continue;
            };
            let (v, _) = verdict(sa, sb, m.higher_is_better, bound);
            any_worse |= v == Verdict::Worse;
            let _ = writeln!(
                out,
                "{:<15} {:<16} {:>13.5} {:>13.5} {:>9.4} {:>7.2} {:>7.2} {:>6.2}  {}",
                name,
                m.name,
                sa.value,
                sb.value,
                if sa.value == 0.0 {
                    1.0
                } else {
                    sb.value / sa.value
                },
                100.0 * sa.spread(),
                100.0 * sb.spread(),
                bound,
                v.name()
            );
        }
        // A larger share of submissions the system did not answer is a
        // regression whatever else improved.
        let frac = |w: &Json| {
            w.get("per_layer")
                .and_then(|l| l.get("failed_frac"))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        let (fa, fb) = (frac(wa), frac(wb));
        let v = match fb.partial_cmp(&fa) {
            Some(std::cmp::Ordering::Greater) => Verdict::Worse,
            Some(std::cmp::Ordering::Less) => Verdict::Better,
            _ => Verdict::Same,
        };
        any_worse |= v == Verdict::Worse;
        let _ = writeln!(
            out,
            "{:<15} {:<16} {:>13.6} {:>13.6} {:>9} {:>7} {:>7} {:>6}  {}",
            name,
            "failed_frac",
            fa,
            fb,
            "-",
            "-",
            "-",
            0,
            v.name()
        );
    }
    let _ = writeln!(
        out,
        "A value is a run's second-best repetition; B/A has base A. off% is how far the median repetition of that side lay from it."
    );
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(value: f64) -> Side {
        Side {
            value,
            median: value * 1.01,
        }
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        // lower is better, bound 10 %
        assert_eq!(verdict(flat(10.0), flat(10.5), false, 0.1).0, Verdict::Same);
        assert_eq!(
            verdict(flat(10.0), flat(11.5), false, 0.1).0,
            Verdict::Worse
        );
        assert_eq!(verdict(flat(10.0), flat(9.5), false, 0.1).0, Verdict::Same);
        assert_eq!(
            verdict(flat(10.0), flat(8.5), false, 0.1).0,
            Verdict::Better
        );
        // higher is better
        assert_eq!(
            verdict(flat(100.0), flat(80.0), true, 0.1).0,
            Verdict::Worse
        );
        assert_eq!(
            verdict(flat(100.0), flat(120.0), true, 0.1).0,
            Verdict::Better
        );
        // a run disturbed for more than half of its repetitions resolves
        // nothing
        let noisy = Side {
            value: 10.0,
            median: 12.0,
        };
        assert_eq!(
            verdict(noisy, flat(20.0), false, 0.1).0,
            Verdict::Unresolved
        );
        let (_, worse_by) = verdict(flat(10.0), flat(12.0), false, 0.1);
        assert!((worse_by - 0.2).abs() < 1e-12);
    }

    #[test]
    fn more_failures_is_always_worse() {
        let declared = Declared::load();
        let doc = |failed_frac: f64| {
            let metric = obj([("value", Json::Num(failed_frac))]);
            let layers = obj([("failed_frac", metric)]);
            obj([(
                "workloads",
                obj([("chaos-observed", obj([("per_layer", layers)]))]),
            )])
        };
        let (table, worse) = compare(&doc(0.01), &doc(0.011), &declared).unwrap();
        assert!(worse && table.contains("worse"));
        let (_, worse) = compare(&doc(0.01), &doc(0.01), &declared).unwrap();
        assert!(!worse);
    }
}
