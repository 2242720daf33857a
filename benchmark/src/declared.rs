//! `BENCHMARK.json`, read once: the workloads, the metric names, their
//! units, directions and bounds. The benchmark declares nothing twice; what
//! it emits, it emits under these names.

use crate::json::{self, Json};

/// Embedded at build time, so the names the binary prints are the names the
/// file declares whatever directory it runs from.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    /// `true` when a higher value is the better one.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse;
    /// `None` for per-layer metrics, which have no bound.
    pub bound: Option<f64>,
}

impl Metric {
    pub fn better(&self) -> &'static str {
        if self.higher_is_better {
            "higher"
        } else {
            "lower"
        }
    }
}

#[derive(Clone, Debug)]
pub struct Declared {
    pub run_seconds: u64,
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Declared {
    pub fn load() -> Declared {
        Declared::parse(BENCHMARK_JSON).expect("BENCHMARK.json is part of the build and valid")
    }

    pub fn parse(text: &str) -> Result<Declared, String> {
        let doc = json::parse(text)?;
        let field = |key: &str| doc.get(key).ok_or_else(|| format!("missing {key}"));
        let metrics = |key: &str| -> Result<Vec<Metric>, String> {
            field(key)?
                .as_arr()
                .ok_or_else(|| format!("{key} is not a list"))?
                .iter()
                .map(|m| {
                    let text = |k: &str| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .ok_or_else(|| format!("{key}: metric without {k}"))
                    };
                    Ok(Metric {
                        name: text("name")?.to_string(),
                        unit: text("unit")?.to_string(),
                        higher_is_better: match text("better")? {
                            "higher" => true,
                            "lower" => false,
                            other => return Err(format!("{key}: better is {other}")),
                        },
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        let workloads = field("workloads")?
            .as_arr()
            .ok_or("workloads is not a list")?
            .iter()
            .map(|w| {
                let text = |k: &str| {
                    w.get(k)
                        .and_then(Json::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| format!("workload without {k}"))
                };
                Ok((text("name")?, text("why")?))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Declared {
            run_seconds: field("run_seconds")?
                .as_f64()
                .ok_or("run_seconds is not a number")? as u64,
            workloads,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Workload;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn the_file_meets_the_contract_limits() {
        let d = Declared::load();
        assert!((1..=60).contains(&d.run_seconds));
        assert!((2..=8).contains(&d.workloads.len()));
        assert!((1..=16).contains(&d.end_to_end.len()));
        assert!((1..=128).contains(&d.per_layer.len()));
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
        let mut names: Vec<&str> = d
            .workloads
            .iter()
            .map(|(n, _)| n.as_str())
            .chain(d.end_to_end.iter().map(|m| m.name.as_str()))
            .chain(d.per_layer.iter().map(|m| m.name.as_str()))
            .collect();
        for name in &names {
            assert!(well_formed(name), "{name} is not a well-formed name");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for (name, why) in &d.workloads {
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}: why");
        }
        for m in d.end_to_end.iter().chain(&d.per_layer) {
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}: unit {}",
                m.name,
                m.unit
            );
        }
        for m in &d.end_to_end {
            let bound = m.bound.expect("every end-to-end metric has a bound");
            assert!((0.0..=0.25).contains(&bound), "{}: bound {bound}", m.name);
        }
        assert!(d.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = d
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert!(setup.unit == "s" && !setup.higher_is_better);
    }

    #[test]
    fn declared_workloads_are_the_implemented_ones() {
        let d = Declared::load();
        let declared: Vec<&str> = d.workloads.iter().map(|(n, _)| n.as_str()).collect();
        let implemented: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(declared, implemented);
    }
}
