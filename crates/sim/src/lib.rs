#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Deterministic discrete-event simulation kernel for `fragdb`.
//!
//! Everything in the fragdb reproduction runs on virtual time: nodes,
//! network links, partitions, and workload arrivals are all events in a
//! single ordered queue. Given the same seed, every run of an experiment
//! produces the same execution, byte for byte. This is what lets the
//! property-based tests in downstream crates assert theorems (such as the
//! paper's Section 4.2 serializability theorem) over thousands of
//! randomized partition scenarios.
//!
//! The kernel is deliberately small and free of `unsafe`:
//!
//! * [`time`] — the virtual clock ([`SimTime`]) and durations.
//! * [`engine`] — the event queue ([`Engine`]) with stable FIFO tie-breaking.
//! * [`rng`] — a seeded RNG facade ([`SimRng`]) with the distributions the
//!   workloads need (exponential inter-arrivals, Zipf-ish picks).
//! * [`metrics`] — counters and histograms ([`Metrics`]) used by the
//!   experiment harness to measure availability and staleness.
//! * [`histogram`] — the one histogram type ([`QuantileSketch`]): a
//!   log-linear sketch with exact moments and quantiles within 2⁻⁵.
//! * [`telemetry`] — typed, causally-joined event stream with online
//!   probes (propagation lag, read staleness, move stalls).
//! * [`varint`] — the LEB128 codec of the packed logs: the telemetry ring
//!   and the executed history.

pub mod engine;
pub mod histogram;
pub mod metrics;
pub mod rng;
pub mod telemetry;
pub mod time;
pub mod varint;

pub use engine::Engine;
pub use histogram::QuantileSketch;
pub use metrics::Metrics;
pub use rng::SimRng;
pub use telemetry::{CausalId, IdMap, Telemetry, TelemetryEvent, TelemetryRecord};
pub use time::{SimDuration, SimTime};
