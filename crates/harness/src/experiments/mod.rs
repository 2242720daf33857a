//! One module per reproduced figure/scenario, and [`ALL`]: the one table
//! that maps each to the paper's artefact. `fragdb-exp` runs an entry by
//! name; `fragdb-exp --list` (and the README) print the table.

use std::fmt::Write as _;

pub mod e10_broadcast;
pub mod e11_mixed;
pub mod e12_partial_replication;
pub mod e1_spectrum;
pub mod e2_banking_scenarios;
pub mod e3_local_view;
pub mod e4_warehouse;
pub mod e5_gsg_cycle;
pub mod e6_airline;
pub mod e7_movement;
pub mod e8_theorem;
pub mod e9_fragmentwise;
pub mod scenario;

/// One reproduced figure/scenario of the paper.
pub struct Experiment {
    /// Module name, `eN_what`; the `eN` prefix alone also selects it.
    pub name: &'static str,
    /// The paper artefact it reproduces.
    pub artefact: &'static str,
    /// Default Monte-Carlo trial count; `None` when the experiment takes
    /// only a seed.
    pub trials: Option<u32>,
    /// Run at `seed` (and `trials`, where taken) and render the table.
    pub run: fn(seed: u64, trials: u32) -> String,
}

impl Experiment {
    /// The short selector: `e1` for `e1_spectrum`.
    pub fn id(&self) -> &'static str {
        self.name.split('_').next().unwrap_or(self.name)
    }
}

/// Every experiment, E1–E12 in order.
pub const ALL: [Experiment; 12] = [
    Experiment {
        name: "e1_spectrum",
        artefact: "Figure 1.1 — the availability/correctness spectrum, measured over five systems",
        trials: None,
        run: |seed, _| {
            e1_spectrum::run(seed, scenario::ScenarioParams::default_spectrum()).to_string()
        },
    },
    Experiment {
        name: "e2_banking_scenarios",
        artefact: "§1 scenarios 1–2 (the $100/$200 double withdrawals)",
        trials: None,
        run: |seed, _| e2_banking_scenarios::run(seed).to_string(),
    },
    Experiment {
        name: "e3_local_view",
        artefact: "§2 — local-view discrepancy vs partition duration",
        trials: None,
        run: |seed, _| e3_local_view::run(seed, &e3_local_view::default_durations()).to_string(),
    },
    Experiment {
        name: "e4_warehouse",
        artefact: "Figure 4.2.1 — acyclic-RAG warehouse, serializable & available",
        trials: None,
        run: |seed, _| e4_warehouse::run(seed, &e4_warehouse::default_levels()).to_string(),
    },
    Experiment {
        name: "e5_gsg_cycle",
        artefact: "Figures 4.3.1/4.3.2 — the three-fragment serialization cycle, live",
        trials: None,
        run: |seed, _| e5_gsg_cycle::run(seed).to_string(),
    },
    Experiment {
        name: "e6_airline",
        artefact: "Figure 4.3.3 + the §4.3 schedule",
        trials: None,
        run: |seed, _| e6_airline::run(seed).to_string(),
    },
    Experiment {
        name: "e7_movement",
        artefact: "§4.4 — all four movement protocols compared",
        trials: None,
        run: |seed, _| e7_movement::run(seed).to_string(),
    },
    Experiment {
        name: "e8_theorem",
        artefact: "§4.2 theorem — Monte-Carlo (plus a cyclic-RAG control arm)",
        trials: Some(50),
        run: |seed, trials| e8_theorem::run(seed, trials).to_string(),
    },
    Experiment {
        name: "e9_fragmentwise",
        artefact: "§4.3 Properties 1–2 — Monte-Carlo",
        trials: Some(50),
        run: |seed, trials| e9_fragmentwise::run(seed, trials).to_string(),
    },
    Experiment {
        name: "e10_broadcast",
        artefact: "§3.2 — the full system under drop/duplicate/reorder faults and a node crash",
        trials: None,
        run: |seed, _| e10_broadcast::run(seed, &e10_broadcast::default_levels()).to_string(),
    },
    Experiment {
        name: "e11_mixed",
        artefact: "§6 — three strategy groups combined in one system",
        trials: None,
        run: |seed, _| e11_mixed::run(seed).to_string(),
    },
    Experiment {
        name: "e12_partial_replication",
        artefact: "§6 — partial replication: fan-out cost and replica-set quorums",
        trials: None,
        run: |seed, _| e12_partial_replication::run(seed).to_string(),
    },
];

/// Look an experiment up by full name (`e8_theorem`) or id (`e8`).
pub fn find(selector: &str) -> Option<&'static Experiment> {
    ALL.iter()
        .find(|e| e.name == selector || e.id() == selector)
}

/// [`ALL`] as the markdown table the README carries.
pub fn list() -> String {
    let mut out = String::from("| experiment | reproduces |\n|------------|------------|\n");
    for e in &ALL {
        let _ = writeln!(out, "| `{}` | {} |", e.name, e.artefact);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_run_e1_to_e12_and_resolve_both_ways() {
        for (i, e) in ALL.iter().enumerate() {
            assert_eq!(e.id(), format!("e{}", i + 1));
            assert_eq!(find(e.id()).map(|f| f.name), Some(e.name));
            assert_eq!(find(e.name).map(|f| f.name), Some(e.name));
        }
        assert!(find("e13").is_none());
        assert!(find("e1_").is_none());
    }

    #[test]
    fn readme_carries_the_printed_table() {
        let readme = include_str!("../../../../README.md");
        assert!(
            readme.contains(&list()),
            "README's experiment table must be `fragdb-exp --list` verbatim:\n{}",
            list()
        );
    }
}
