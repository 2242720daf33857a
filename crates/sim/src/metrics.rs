//! Run metrics: named counters and histograms.
//!
//! Keys are `&'static str` in the common case but owned strings are
//! accepted too (formatted per-node keys). A `BTreeMap` keeps report output
//! deterministically ordered.

use std::borrow::Cow;
use std::collections::BTreeMap;

use crate::histogram::Histogram;

pub mod keys {
    //! Central registry of metric keys.
    //!
    //! Every fixed key spelled anywhere in the workspace lives here as a
    //! `&'static str` constant; call sites reference the constant instead
    //! of an inline literal, so a typo is a compile error instead of a
    //! silent zero counter. Dimensioned keys (`msg.<kind>`,
    //! `frag.<f>.<probe>`, `node.<n>.<probe>`) are validated structurally
    //! by [`is_registered`].

    /// Events popped from the engine queue.
    pub const SIM_EVENTS: &str = "sim.events";
    /// Telemetry events evicted by the bounded buffer.
    pub const TELEMETRY_DROPPED: &str = "telemetry.dropped";

    /// Submissions entering the system.
    pub const TXN_SUBMITTED: &str = "txn.submitted";
    /// Update transactions committed at an agent home.
    pub const TXN_COMMITTED: &str = "txn.committed";
    /// Read-only transactions finished.
    pub const TXN_READ_FINISHED: &str = "txn.read_finished";
    /// Transactions aborted (any reason).
    pub const TXN_ABORTED: &str = "txn.aborted";

    /// Aborts: program logic (`abort!`).
    pub const ABORT_LOGIC: &str = "abort.logic";
    /// Aborts: initiation rule violation (§3.2).
    pub const ABORT_INITIATION: &str = "abort.initiation";
    /// Aborts: lock-protocol deadlock (§4.1).
    pub const ABORT_DEADLOCK: &str = "abort.deadlock";
    /// Aborts: required node/agent unavailable.
    pub const ABORT_UNAVAILABLE: &str = "abort.unavailable";
    /// Aborts: submission from an undeclared class.
    pub const ABORT_UNDECLARED_CLASS: &str = "abort.undeclared_class";
    /// Aborts: model violation (malformed program/catalog mismatch).
    pub const ABORT_MALFORMED: &str = "abort.malformed";

    /// Token moves requested.
    pub const MOVES_REQUESTED: &str = "moves.requested";
    /// Token moves deferred (endpoint down / move in progress).
    pub const MOVES_DEFERRED: &str = "moves.deferred";

    /// Quasi-transactions installed at replicas.
    pub const INSTALL_COUNT: &str = "install.count";
    /// Duplicate installs dropped.
    pub const INSTALL_DUPLICATE: &str = "install.duplicate";
    /// Out-of-order installs held back.
    pub const INSTALL_HELDBACK: &str = "install.heldback";
    /// Installs rejected by catalog validation.
    pub const INSTALL_REJECTED: &str = "install.rejected";

    /// Packets discarded because the destination node was down.
    pub const NET_DROPPED_AT_DOWN_NODE: &str = "net.dropped_at_down_node";

    /// Quasi-transactions coalesced per batched broadcast envelope
    /// (histogram; recorded once per flushed batch).
    pub const NET_BATCH_SIZE: &str = "net.batch.size";
    /// Cumulative acks (standalone or piggybacked) that cleared at least
    /// one pending packet at the sender.
    pub const NET_ACK_CUMULATIVE: &str = "net.ack.cumulative";
    /// WAL entries served per range anti-entropy reply (histogram).
    pub const CATCHUP_RANGE_LEN: &str = "catchup.range_len";

    /// Deep payload materializations (one per commit).
    pub const PAYLOAD_CLONES: &str = "payload.clones";
    /// Bytes deep-copied in payload materializations.
    pub const PAYLOAD_CLONE_BYTES: &str = "payload.clone_bytes";
    /// Arc bumps sharing an already-materialized payload.
    pub const PAYLOAD_SHARES: &str = "payload.shares";
    /// Bytes shared by reference instead of copied.
    pub const PAYLOAD_SHARE_BYTES: &str = "payload.share_bytes";

    /// Node crash events.
    pub const NODE_CRASH: &str = "node.crash";
    /// Node recovery events.
    pub const NODE_RECOVER: &str = "node.recover";

    /// §4.4.3 missing updates forwarded by peers.
    pub const NOPREP_FORWARDED: &str = "noprep.forwarded";
    /// §4.4.3 missing updates repackaged by the new agent.
    pub const NOPREP_REPACKAGED: &str = "noprep.repackaged";

    /// Heartbeats broadcast by the failure detector.
    pub const DETECTOR_HEARTBEATS: &str = "detector.heartbeats";
    /// Suspicions raised by the failure detector (missed-beat threshold).
    pub const DETECTOR_SUSPICIONS: &str = "detector.suspicions";
    /// Quorum-election rounds started on behalf of suspected homes.
    pub const ELECTION_ROUNDS: &str = "election.rounds";
    /// Elections won (token re-homed through §4.4.1 recovery).
    pub const ELECTION_WON: &str = "election.won";
    /// Elections aborted (quorum unreachable or home proved alive).
    pub const ELECTION_ABORTED: &str = "election.aborted";
    /// Open group-commit batches discarded by a home crash.
    pub const BATCH_DISCARDED: &str = "batch.discarded";

    /// Log-transform baseline: operations replayed.
    pub const REPLAY_OPS: &str = "replay.ops";

    /// Submission→commit/read-finish latency (µs).
    pub const LATENCY_COMMIT: &str = "latency.commit";
    /// Crash→caught-up latency (µs).
    pub const LATENCY_RECOVERY: &str = "latency.recovery";
    /// Queued-behind-a-move wait (µs).
    pub const LATENCY_MOVE_WAIT: &str = "latency.move_wait";

    /// Commit spans that span reconstruction could only partially rebuild
    /// because ring-buffer eviction discarded their commit-side events.
    pub const TELEMETRY_SPANS_TRUNCATED: &str = "telemetry.spans_truncated";
    /// Histogram of per-commit critical-path length (number of nonzero
    /// phase segments on the longest chain to the last install).
    pub const OBS_CRITICAL_PATH_LEN: &str = "obs.critical_path.len";

    /// Every fixed key, for exhaustive registration checks.
    pub const ALL: &[&str] = &[
        SIM_EVENTS,
        TELEMETRY_DROPPED,
        TXN_SUBMITTED,
        TXN_COMMITTED,
        TXN_READ_FINISHED,
        TXN_ABORTED,
        ABORT_LOGIC,
        ABORT_INITIATION,
        ABORT_DEADLOCK,
        ABORT_UNAVAILABLE,
        ABORT_UNDECLARED_CLASS,
        ABORT_MALFORMED,
        MOVES_REQUESTED,
        MOVES_DEFERRED,
        INSTALL_COUNT,
        INSTALL_DUPLICATE,
        INSTALL_HELDBACK,
        INSTALL_REJECTED,
        NET_DROPPED_AT_DOWN_NODE,
        NET_BATCH_SIZE,
        NET_ACK_CUMULATIVE,
        CATCHUP_RANGE_LEN,
        PAYLOAD_CLONES,
        PAYLOAD_CLONE_BYTES,
        PAYLOAD_SHARES,
        PAYLOAD_SHARE_BYTES,
        NODE_CRASH,
        NODE_RECOVER,
        NOPREP_FORWARDED,
        NOPREP_REPACKAGED,
        DETECTOR_HEARTBEATS,
        DETECTOR_SUSPICIONS,
        ELECTION_ROUNDS,
        ELECTION_WON,
        ELECTION_ABORTED,
        BATCH_DISCARDED,
        REPLAY_OPS,
        LATENCY_COMMIT,
        LATENCY_RECOVERY,
        LATENCY_MOVE_WAIT,
        TELEMETRY_SPANS_TRUNCATED,
        OBS_CRITICAL_PATH_LEN,
    ];

    /// Wire names of the system's message envelopes (the `msg.<kind>`
    /// dimension).
    pub const MSG_KINDS: &[&str] = &[
        "quasi",
        "batch",
        "lock_req",
        "lock_grant",
        "lock_denied",
        "lock_release",
        "prepare",
        "prepare_ack",
        "commit_cmd",
        "abort_cmd",
        "seq_query",
        "seq_reply",
        "m0",
        "forward_missing",
        "heartbeat",
        "vote_req",
        "vote",
    ];

    /// Probe suffixes of the `frag.<f>.<probe>` dimension.
    pub const FRAG_PROBES: &[&str] = &["lag", "queue", "move_stall", "unavail_window"];
    /// Probe suffixes of the `node.<n>.<probe>` dimension.
    pub const NODE_PROBES: &[&str] = &["staleness", "holdback"];
    /// Phase names of the `span.phase.<p>` dimension — one duration
    /// histogram per reconstructed commit-span phase. `queue` splits into
    /// `token_move`/`election` when the wait overlapped an open move or
    /// election window; `net` splits out `retransmit` legs.
    pub const SPAN_PHASES: &[&str] = &[
        "queue",
        "token_move",
        "election",
        "lock_wait",
        "exec",
        "net",
        "retransmit",
        "holdback",
    ];

    /// Whether `key` is `<prefix><digits>.<suffix>` for one of `suffixes`
    /// (the prefix includes its trailing dot, e.g. `"frag."`).
    pub fn dim_matches(key: &str, prefix: &str, suffixes: &[&str]) -> bool {
        let Some(rest) = key.strip_prefix(prefix) else {
            return false;
        };
        let Some(dot) = rest.find('.') else {
            return false;
        };
        let (index, suffix) = rest.split_at(dot);
        !index.is_empty()
            && index.bytes().all(|b| b.is_ascii_digit())
            && suffixes.contains(&&suffix[1..])
    }

    /// Whether `key` is a registered fixed key or matches a registered
    /// dimensioned pattern.
    pub fn is_registered(key: &str) -> bool {
        if ALL.contains(&key) {
            return true;
        }
        if let Some(kind) = key.strip_prefix("msg.") {
            return MSG_KINDS.contains(&kind);
        }
        // `span.phase.<p>` is dimensioned by phase *name*, not by a numeric
        // index, so it gets its own rule instead of `dim_matches`.
        if let Some(phase) = key.strip_prefix("span.phase.") {
            return SPAN_PHASES.contains(&phase);
        }
        dim_matches(key, "frag.", FRAG_PROBES) || dim_matches(key, "node.", NODE_PROBES)
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn fixed_keys_are_registered() {
            for k in ALL {
                assert!(is_registered(k), "{k} should be registered");
            }
        }

        #[test]
        fn batching_and_catchup_keys_are_registered() {
            assert!(is_registered(NET_BATCH_SIZE));
            assert!(is_registered(NET_ACK_CUMULATIVE));
            assert!(is_registered(CATCHUP_RANGE_LEN));
            assert!(is_registered("msg.batch"));
        }

        #[test]
        fn self_heal_keys_are_registered() {
            assert!(is_registered(DETECTOR_HEARTBEATS));
            assert!(is_registered(DETECTOR_SUSPICIONS));
            assert!(is_registered(ELECTION_ROUNDS));
            assert!(is_registered(ELECTION_WON));
            assert!(is_registered(ELECTION_ABORTED));
            assert!(is_registered(BATCH_DISCARDED));
            assert!(is_registered("msg.heartbeat"));
            assert!(is_registered("msg.vote_req"));
            assert!(is_registered("msg.vote"));
            assert!(is_registered("frag.3.unavail_window"));
        }

        #[test]
        fn span_phase_dimension_is_fully_covered() {
            assert!(is_registered(TELEMETRY_SPANS_TRUNCATED));
            assert!(is_registered(OBS_CRITICAL_PATH_LEN));
            for p in SPAN_PHASES {
                let key = format!("span.phase.{p}");
                assert!(is_registered(&key), "{key} should be registered");
            }
            // Unknown phase names and malformed span keys stay strict.
            assert!(!is_registered("span.phase.bogus"));
            assert!(!is_registered("span.phase."));
            assert!(!is_registered("span.phase.net.extra"));
            assert!(!is_registered("span.bogus.net"));
            assert!(!is_registered("obs.critical_path.bogus"));
        }

        #[test]
        fn dimensioned_keys_match_structurally() {
            assert!(is_registered("msg.quasi"));
            assert!(is_registered("frag.12.lag"));
            assert!(is_registered("frag.0.move_stall"));
            assert!(is_registered("node.7.staleness"));
            assert!(!is_registered("msg.bogus"));
            assert!(!is_registered("frag.12.bogus"));
            assert!(!is_registered("frag.x.lag"));
            assert!(!is_registered("frag..lag"));
            assert!(!is_registered("node.7.lag"));
            assert!(!is_registered("latency.typo"));
        }
    }
}

/// Counter / histogram registry for one simulation run.
#[derive(Debug, Default)]
pub struct Metrics {
    counters: BTreeMap<Cow<'static, str>, u64>,
    histograms: BTreeMap<Cow<'static, str>, Histogram>,
}

impl Metrics {
    /// Empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Add 1 to counter `key`.
    pub fn incr(&mut self, key: impl Into<Cow<'static, str>>) {
        self.add(key, 1);
    }

    /// Add `delta` to counter `key`.
    pub fn add(&mut self, key: impl Into<Cow<'static, str>>, delta: u64) {
        *self.counters.entry(key.into()).or_insert(0) += delta;
    }

    /// Read counter `key` (0 if never written).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Set counter `key` to an absolute `value` (gauge semantics) — used to
    /// publish buffer drop counts, which are totals rather than deltas.
    pub fn set(&mut self, key: impl Into<Cow<'static, str>>, value: u64) {
        *self.counters.entry(key.into()).or_insert(0) = value;
    }

    /// Add `delta` to counter `key` without taking ownership of the key:
    /// allocates an owned copy only on the counter's *first* update, so a
    /// hot path using an interned key (see `telemetry::Probes`) is
    /// allocation-free in steady state.
    pub fn add_named(&mut self, key: &str, delta: u64) {
        if let Some(c) = self.counters.get_mut(key) {
            *c += delta;
        } else {
            self.counters.insert(Cow::Owned(key.to_owned()), delta);
        }
    }

    /// Record `value` in histogram `key`.
    pub fn observe(&mut self, key: impl Into<Cow<'static, str>>, value: u64) {
        self.histograms.entry(key.into()).or_default().record(value);
    }

    /// Record `value` in histogram `key` without taking ownership of the
    /// key; allocates only on the histogram's first observation (see
    /// [`Metrics::add_named`]).
    pub fn observe_named(&mut self, key: &str, value: u64) {
        if let Some(h) = self.histograms.get_mut(key) {
            h.record(value);
        } else {
            let mut h = Histogram::default();
            h.record(value);
            self.histograms.insert(Cow::Owned(key.to_owned()), h);
        }
    }

    /// Read histogram `key`, if it exists.
    pub fn histogram(&self, key: &str) -> Option<&Histogram> {
        self.histograms.get(key)
    }

    /// All counters in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_ref(), *v))
    }

    /// All histograms in key order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_ref(), v))
    }

    /// Merge another registry into this one (summing counters, merging
    /// histograms) — used to aggregate per-trial metrics into experiment
    /// totals.
    pub fn merge(&mut self, other: &Metrics) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }

    /// Drop all data.
    pub fn reset(&mut self) {
        self.counters.clear();
        self.histograms.clear();
    }

    /// Render a human-readable report: counters, then histogram summaries,
    /// in key order. Leads with a WARNING when [`keys::TELEMETRY_DROPPED`]
    /// is nonzero, so a truncated log cannot silently masquerade as a
    /// complete run.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let n = self.counter(keys::TELEMETRY_DROPPED);
        if n > 0 {
            out.push_str(&format!(
                "WARNING: {n} telemetry events dropped ({} > 0); the log is incomplete\n",
                keys::TELEMETRY_DROPPED
            ));
        }
        for (k, v) in self.counters() {
            out.push_str(&format!("{k} = {v}\n"));
        }
        for (k, h) in self.histograms() {
            out.push_str(&format!(
                "{k}: n={} min={} mean={:.1} p99={} max={}\n",
                h.count(),
                h.min().unwrap_or(0),
                h.mean().unwrap_or(0.0),
                h.percentile(99.0).unwrap_or(0),
                h.max().unwrap_or(0),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::new();
        m.incr("a");
        m.incr("a");
        m.add("a", 3);
        assert_eq!(m.counter("a"), 5);
    }

    #[test]
    fn missing_counter_is_zero() {
        let m = Metrics::new();
        assert_eq!(m.counter("nope"), 0);
    }

    #[test]
    fn owned_and_static_keys_collide_correctly() {
        let mut m = Metrics::new();
        m.incr("node.1.txns");
        m.incr(format!("node.{}.txns", 1));
        assert_eq!(m.counter("node.1.txns"), 2);
    }

    #[test]
    fn histograms_record() {
        let mut m = Metrics::new();
        m.observe("lat", 10);
        m.observe("lat", 20);
        let h = m.histogram("lat").unwrap();
        assert_eq!(h.count(), 2);
        assert!(m.histogram("other").is_none());
    }

    #[test]
    fn iteration_is_sorted() {
        let mut m = Metrics::new();
        m.incr("zz");
        m.incr("aa");
        m.incr("mm");
        let keys: Vec<&str> = m.counters().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["aa", "mm", "zz"]);
    }

    #[test]
    fn merge_sums_counters_and_histograms() {
        let mut a = Metrics::new();
        let mut b = Metrics::new();
        a.add("x", 2);
        b.add("x", 3);
        b.add("y", 1);
        a.observe("h", 5);
        b.observe("h", 10);
        a.merge(&b);
        assert_eq!(a.counter("x"), 5);
        assert_eq!(a.counter("y"), 1);
        assert_eq!(a.histogram("h").unwrap().count(), 2);
    }

    #[test]
    fn named_variants_accumulate_like_owned() {
        let mut m = Metrics::new();
        m.add_named("node.1.x", 2);
        m.add_named("node.1.x", 3);
        m.incr("node.1.x");
        assert_eq!(m.counter("node.1.x"), 6);
        m.observe_named("h", 5);
        m.observe_named("h", 7);
        assert_eq!(m.histogram("h").unwrap().count(), 2);
    }

    #[test]
    fn set_is_absolute() {
        let mut m = Metrics::new();
        m.set("g", 5);
        m.set("g", 3);
        assert_eq!(m.counter("g"), 3);
    }

    #[test]
    fn render_warns_on_dropped_trace() {
        let mut m = Metrics::new();
        m.incr("txn.committed");
        m.observe("lat", 10);
        let clean = m.render();
        assert!(!clean.contains("WARNING"));
        assert!(clean.contains("txn.committed = 1"));
        assert!(clean.contains("lat: n=1"));
        m.set(keys::TELEMETRY_DROPPED, 2);
        assert!(m
            .render()
            .starts_with("WARNING: 2 telemetry events dropped"));
    }

    #[test]
    fn reset_clears_everything() {
        let mut m = Metrics::new();
        m.incr("a");
        m.observe("h", 1);
        m.reset();
        assert_eq!(m.counter("a"), 0);
        assert!(m.histogram("h").is_none());
    }
}
