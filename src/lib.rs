#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # fragdb — fragments and agents for high availability
//!
//! A from-scratch Rust implementation of
//! *Garcia-Molina & Kogan, "Achieving High Availability in Distributed
//! Databases"* (Princeton CS-TR-043-86 / ICDE 1987): a replicated
//! database divided into disjoint **fragments**, each updatable only by
//! its token-holding **agent**, with updates propagated everywhere as
//! write-only **quasi-transactions** over a reliable FIFO broadcast.
//! Depending on how reads and agent movement are restricted, the same
//! mechanism yields global serializability, **fragmentwise
//! serializability**, or plain mutual consistency — a whole spectrum of
//! correctness/availability trade-offs (the paper's Figure 1.1).
//!
//! ## Quick start
//!
//! ```
//! use fragdb::core::{Submission, System, SystemConfig};
//! use fragdb::model::{AgentId, FragmentCatalog, NodeId, Value};
//! use fragdb::net::Topology;
//! use fragdb::sim::{SimDuration, SimTime};
//!
//! // A 3-node network and one fragment owned by node 0.
//! let mut catalog = FragmentCatalog::builder();
//! let (frag, objs) = catalog.add_fragment("COUNTERS", 1);
//! let mut sys = System::build(
//!     Topology::full_mesh(3, SimDuration::from_millis(10)),
//!     catalog.build(),
//!     vec![(frag, AgentId::Node(NodeId(0)), NodeId(0))],
//!     SystemConfig::unrestricted(42),
//! )
//! .unwrap();
//!
//! // The agent increments its counter; the update reaches every replica.
//! let obj = objs[0];
//! sys.submit_at(
//!     SimTime::from_secs(1),
//!     Submission::update(frag, Box::new(move |ctx| {
//!         let v = ctx.read_int(obj, 0);
//!         ctx.write(obj, v + 1)?;
//!         Ok(())
//!     })),
//! );
//! sys.run_until(SimTime::from_secs(10));
//! for node in 0..3 {
//!     assert_eq!(sys.replica(NodeId(node)).read(obj), &Value::Int(1));
//! }
//! assert!(fragdb::graphs::analyze(&sys.history).globally_serializable);
//! ```
//!
//! ## Crate map
//!
//! | re-export | contents |
//! |-----------|----------|
//! | [`sim`] | deterministic discrete-event kernel (clock, engine, RNG, metrics) |
//! | [`model`] | fragments, agents, tokens, transactions, executed histories |
//! | [`net`] | topology, partitions, fault plans, reliable per-pair FIFO delivery |
//! | [`storage`] | per-node replicas, WAL, lock manager |
//! | [`graphs`] | read-access / serialization graphs and all checkers |
//! | [`core`] | the fragments-and-agents engine: strategies §4.1–4.3, movement §4.4 |
//! | [`check`] | static admission analysis (`FDB0xx` diagnostics) over declared configs |
//! | [`mc`] | bounded exhaustive model checker + counterexample witnesses |
//! | [`baselines`] | mutual exclusion and log transformation (§1) |
//! | [`workloads`] | banking, warehouse, airline applications + generators |
//! | [`obs`] | span reconstruction and critical-path profiling over telemetry |
//! | [`harness`] | experiments E1–E12 regenerating the paper's figures |

pub use fragdb_baselines as baselines;
pub use fragdb_check as check;
pub use fragdb_core as core;
pub use fragdb_graphs as graphs;
pub use fragdb_harness as harness;
pub use fragdb_mc as mc;
pub use fragdb_model as model;
pub use fragdb_net as net;
pub use fragdb_obs as obs;
pub use fragdb_sim as sim;
pub use fragdb_storage as storage;
pub use fragdb_workloads as workloads;
