#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Experiment harness: regenerates every figure/scenario of the paper.
//!
//! Each `experiments::eN_*` module exposes a `run(...)` function returning
//! a typed report with a `Display` impl that prints the table/series.
//! [`experiments::ALL`] maps the twelve to the paper's artefacts, and the
//! `fragdb-exp` binary runs one by name (`fragdb-exp --list` prints the
//! table); tests assert the reports' qualitative claims, so `cargo test`
//! *is* the reproduction check.

pub mod configs;
pub mod experiments;
pub mod table;
pub mod trace;

pub use table::Table;
