#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # fragdb-obs — span reconstruction and critical-path profiling
//!
//! Pure, replayable observability over the telemetry stream: the same
//! `TelemetryEvent`s the simulator already emits (or their JSONL
//! export) are grouped by causal id `(fragment, epoch, frag_seq)` into
//! per-commit **span trees** — submission queue wait, §4.1 lock wait,
//! execution, then one network + hold-back leg per replica install.
//!
//! On top of the spans sit:
//!
//! * a **critical-path profiler** ([`SpanReport::critical_path`],
//!   [`critical::attribution_table`]) answering "which phase made the
//!   slowest replica late" per commit, and
//! * a deterministic **folded-stack** renderer ([`critical::folded`])
//!   whose output is byte-identical for a given seed.
//!
//! Reconstruction is a pure function of the event stream and matches
//! `TelemetryEvent` directly: [`SpanReport::from_records`] walks the
//! in-memory records, [`SpanReport::from_jsonl`] walks a saved export one
//! decoded line at a time, and both produce identical reports for the same
//! run. This crate knows nothing of the JSON-lines wire format; reading an
//! export is `fragdb_sim::telemetry::read_jsonl`, the same reader behind
//! `fragdb-trace --validate`, so the two accept the same files. The one
//! difference is a file holding several runs (a second `# scenario:`
//! header): the validator checks it run by run, span reconstruction
//! refuses it, because causal ids restart with every run. Ring-evicted
//! commits surface as explicit [`span::SpanStatus::Truncated`] spans,
//! counted and never silently dropped; a §4.4.1 prepare whose home crashed
//! before it committed is a [`span::SpanStatus::Uncommitted`] span.

pub mod critical;
pub mod span;

pub use critical::{attribution_table, folded, span_lines, validate_folded};
pub use span::{CommitSpan, InstallLeg, QueueAttr, SpanReport, SpanStatus};

#[cfg(test)]
mod tests {
    use super::*;
    use fragdb_sim::telemetry::render_jsonl;
    use fragdb_sim::{CausalId, Metrics, SimTime, TelemetryEvent, TelemetryRecord};

    /// Render `(at, event)` pairs through the exporter's encoder.
    fn jsonl(events: Vec<(u64, TelemetryEvent)>) -> String {
        let records: Vec<TelemetryRecord> = events
            .into_iter()
            .map(|(at, event)| TelemetryRecord {
                at: SimTime(at),
                event,
            })
            .collect();
        render_jsonl(None, 0, &records)
    }

    fn cause(fragment: u32, epoch: u64, frag_seq: u64) -> CausalId {
        CausalId {
            fragment,
            epoch,
            frag_seq,
        }
    }

    fn queued(fragment: u32) -> TelemetryEvent {
        TelemetryEvent::SubmissionQueued { fragment, depth: 1 }
    }

    fn initiated(node: u32, fragment: u32, txn_seq: u64) -> TelemetryEvent {
        TelemetryEvent::Initiated {
            node,
            fragment,
            txn_seq,
        }
    }

    fn committed(cause: CausalId, node: u32, txn_seq: u64) -> TelemetryEvent {
        TelemetryEvent::Committed {
            cause,
            node,
            txn_seq,
        }
    }

    /// A hand-built stream: one queued+locked commit to 2 replicas with
    /// one retransmitted leg, plus one truncated install.
    fn sample_stream() -> String {
        let c = cause(7, 1, 5);
        let installed = |cause, node| TelemetryEvent::Installed { cause, node };
        jsonl(vec![
            (10, queued(7)),
            (40, initiated(0, 7, 3)),
            (
                41,
                TelemetryEvent::LockWaitStarted {
                    node: 0,
                    fragment: 7,
                    txn_seq: 3,
                    sites: 2,
                },
            ),
            (
                55,
                TelemetryEvent::LockGranted {
                    node: 0,
                    fragment: 7,
                    txn_seq: 3,
                },
            ),
            (60, committed(c, 0, 3)),
            (
                60,
                TelemetryEvent::BroadcastSent {
                    cause: c,
                    node: 0,
                    recipients: 2,
                },
            ),
            (60, installed(c, 0)),
            (
                70,
                TelemetryEvent::Retransmit {
                    from: 0,
                    to: 2,
                    count: 1,
                },
            ),
            (80, installed(c, 1)),
            (
                90,
                TelemetryEvent::HeldBack {
                    cause: c,
                    node: 2,
                    depth: 1,
                },
            ),
            (95, installed(c, 2)),
            // Truncated: an install whose commit was ring-evicted.
            (99, installed(cause(2, 0, 1), 4)),
        ])
    }

    #[test]
    fn sample_stream_reconstructs_expected_span() {
        let report = SpanReport::from_jsonl(&sample_stream()).unwrap();
        assert_eq!(report.len(), 2);
        assert_eq!(report.complete, 1);
        assert_eq!(report.truncated, 1);

        let s = &report.spans[1];
        assert_eq!(s.cause.fragment, 7);
        assert_eq!(s.status, SpanStatus::Complete);
        assert_eq!(s.queue_us, 30);
        assert_eq!(s.lock_wait_us, 14);
        assert_eq!(s.exec_us, 6);
        assert_eq!(s.legs.len(), 3);
        // Home leg: zero net, zero holdback.
        assert_eq!(s.legs[0].node, 0);
        assert_eq!(s.net_us(&s.legs[0]), 0);
        // Node 1: clean 20us leg.
        assert_eq!(s.net_us(&s.legs[1]), 20);
        assert!(!s.legs[1].retransmitted);
        // Node 2: retransmitted, arrived (held back) at 90, installed 95.
        assert!(s.legs[2].retransmitted);
        assert_eq!(s.net_us(&s.legs[2]), 30);
        assert_eq!(s.legs[2].holdback_us(), 5);

        // Critical path ends at the last install (node 2).
        let path = SpanReport::critical_path(s);
        assert_eq!(
            path,
            vec![
                ("queue", 30),
                ("lock_wait", 14),
                ("exec", 6),
                ("retransmit", 30),
                ("holdback", 5)
            ]
        );
        // Tie between queue and retransmit durations broken toward the
        // earlier pipeline stage.
        assert_eq!(report.critical.get("queue"), Some(&(1, 30)));
    }

    #[test]
    fn folded_output_is_valid_and_deterministic() {
        let a = folded(&SpanReport::from_jsonl(&sample_stream()).unwrap());
        let b = folded(&SpanReport::from_jsonl(&sample_stream()).unwrap());
        assert_eq!(a, b);
        validate_folded(&a).unwrap();
        assert!(a.contains("commit;net;retransmit 30\n"));
        assert!(a.contains("commit;queue;wait 30\n"));
        // No election/token-move leaves in a fault-free stream.
        assert!(!a.contains("election"));

        validate_folded("").unwrap_err();
        validate_folded("commit;bogus 3\n").unwrap_err();
        validate_folded("commit;queue;wait x\n").unwrap_err();
        validate_folded("commit;queue;wait 1\ncommit;exec 1\n").unwrap_err();
    }

    #[test]
    fn publish_sets_registered_keys() {
        let report = SpanReport::from_jsonl(&sample_stream()).unwrap();
        let mut m = Metrics::new();
        report.publish(&mut m);
        assert_eq!(m.counter("telemetry.spans_truncated"), 1);
        let h = m.histogram("obs.critical_path.len").unwrap();
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), Some(5));
        assert!(m.histogram("span.phase.retransmit").is_some());
        assert!(m.histogram("span.phase.holdback").is_some());
    }

    #[test]
    fn abort_before_initiation_retires_the_queue_slot() {
        // Two submissions queue on fragment 3; the first aborts without
        // ever initiating (home crash drain), the second commits.
        let text = jsonl(vec![
            (5, queued(3)),
            (9, queued(3)),
            (
                20,
                TelemetryEvent::Aborted {
                    node: 1,
                    fragment: 3,
                    txn_seq: 0,
                    reason: "unavailable",
                },
            ),
            (30, initiated(1, 3, 1)),
            (44, committed(cause(3, 0, 0), 1, 1)),
        ]);
        let report = SpanReport::from_jsonl(&text).unwrap();
        let s = &report.spans[0];
        // The surviving commit pairs with the SECOND queue entry (9→30),
        // not the aborted first one.
        assert_eq!(s.queue_us, 21);
        assert_eq!(s.exec_us, 14);
    }

    #[test]
    fn a_prepare_whose_home_crashed_is_uncommitted_not_truncated() {
        // §4.4.1: home 0 broadcasts the prepare of (2, 0, 4) and crashes
        // before a majority acknowledges; the elected home 1 resurrects
        // the staged entry and installs it. Nothing was evicted.
        let c = cause(2, 0, 4);
        let prepare = TelemetryEvent::BroadcastSent {
            cause: c,
            node: 0,
            recipients: 2,
        };
        let installed = |node| TelemetryEvent::Installed { cause: c, node };
        let report = SpanReport::from_jsonl(&jsonl(vec![
            (5, initiated(0, 2, 9)),
            (10, prepare.clone()),
            (12, TelemetryEvent::Crash { node: 0 }),
            (80, installed(1)),
            (90, installed(2)),
        ]))
        .unwrap();
        assert_eq!((report.truncated, report.uncommitted), (0, 1));
        let s = &report.spans[0];
        assert_eq!(s.status, SpanStatus::Uncommitted);
        assert_eq!(s.legs.len(), 2);
        assert!(SpanReport::critical_path(s).is_empty());

        // When the broadcast opens the stream, the ring may have evicted
        // the commit just before it: that span stays truncated.
        let evicted =
            SpanReport::from_jsonl(&jsonl(vec![(10, prepare), (80, installed(1))])).unwrap();
        assert_eq!((evicted.truncated, evicted.uncommitted), (1, 0));
    }

    #[test]
    fn a_leg_joins_the_first_arrival_and_the_first_install() {
        let c = cause(1, 0, 2);
        let held_back = |at| {
            (
                at,
                TelemetryEvent::HeldBack {
                    cause: c,
                    node: 1,
                    depth: 1,
                },
            )
        };
        let installed = |at, node| (at, TelemetryEvent::Installed { cause: c, node });
        let report = SpanReport::from_jsonl(&jsonl(vec![
            (10, committed(c, 0, 0)),
            installed(10, 0),
            (
                10,
                TelemetryEvent::BroadcastSent {
                    cause: c,
                    node: 0,
                    recipients: 1,
                },
            ),
            held_back(20),
            held_back(25),
            installed(30, 1),
            installed(50, 1),
        ]))
        .unwrap();
        let s = &report.spans[0];
        assert_eq!(s.status, SpanStatus::Complete);
        assert_eq!(s.legs.len(), 2, "one leg per node");
        let leg = &s.legs[1];
        assert_eq!((leg.node, leg.arrived_at, leg.installed_at), (1, 20, 30));
        assert_eq!((s.net_us(leg), leg.holdback_us()), (10, 10));
    }

    #[test]
    fn queue_wait_overlapping_election_window_is_attributed() {
        let text = jsonl(vec![
            (5, queued(1)),
            (
                10,
                TelemetryEvent::ElectionStarted {
                    fragment: 1,
                    epoch: 1,
                    candidate: 2,
                },
            ),
            (
                90,
                TelemetryEvent::TokenRecovered {
                    fragment: 1,
                    epoch: 2,
                    node: 2,
                },
            ),
            (100, initiated(2, 1, 0)),
            (110, committed(cause(1, 2, 1), 2, 0)),
        ]);
        let report = SpanReport::from_jsonl(&text).unwrap();
        let s = &report.spans[0];
        assert_eq!(s.queue_attr, QueueAttr::Election);
        assert_eq!(s.queue_us, 95);
        let f = folded(&report);
        assert!(f.contains("commit;queue;election 95\n"));
    }

    /// A leg keeps its node, two instants and a flag, and derives the rest.
    #[test]
    fn an_install_leg_is_24_bytes() {
        assert_eq!(std::mem::size_of::<InstallLeg>(), 24);
    }

    #[test]
    fn attribution_table_mentions_every_dominating_phase() {
        let report = SpanReport::from_jsonl(&sample_stream()).unwrap();
        let table = attribution_table(&report);
        assert!(table.contains("over 1 committed spans"));
        assert!(table.contains("1 truncated"));
        assert!(table.contains("queue"));
        let lines = span_lines(&report);
        assert!(lines.contains("frag=7"));
        assert!(lines.contains("status=Complete"));
        assert!(lines.contains("status=Truncated"));
    }
}
