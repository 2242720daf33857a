//! Run metrics: named counters and histograms.
//!
//! Every counter under a fixed key — [`keys::ALL`] and the `msg.<kind>`
//! keys of [`keys::MSG_KEYS`] — lives in a slot array at an index fixed at
//! compile time ([`keys::counter`]), so the per-event, per-message and
//! per-install writers do no string comparison. Any other key (owned,
//! formatted per-node keys) goes to a `BTreeMap`. A name passed to the
//! string API resolves to the same slot, so both paths write one counter,
//! and reading back merges slots and map in key order, listing exactly the
//! keys written (a slot holds `None` until its first write). Every
//! histogram is a [`QuantileSketch`] under a `BTreeMap` key: exact count,
//! sum, min, max and mean, quantiles at most 2⁻⁵ low.

use std::borrow::Cow;
use std::collections::BTreeMap;

use crate::histogram::QuantileSketch;

pub mod keys {
    //! Central registry of metric keys.
    //!
    //! Every fixed key spelled anywhere in the workspace lives here as a
    //! `&'static str` constant; call sites reference the constant instead
    //! of an inline literal, so a typo is a compile error instead of a
    //! silent zero counter. Each fixed key and each `msg.<kind>` key also
    //! has a same-named counter [`Slot`](super::Slot) in [`counter`], which
    //! hot writers pass instead of the name. Dimensioned keys
    //! (`frag.<f>.<probe>`, `node.<n>.<probe>`, `span.phase.<p>`) are
    //! validated structurally by [`is_registered`].

    /// Declares groups of keys: a `&str` constant per key, a list constant
    /// per group, [`SLOTTED`] over all groups in order, and a same-named
    /// `Slot` per key in [`counter`], numbered in declaration order.
    macro_rules! slotted_keys {
        ($(
            $(#[$list_doc:meta])*
            $list:ident {
                $($(#[$doc:meta])* $name:ident = $key:literal;)+
            }
        )+) => {
            $($($(#[$doc])* pub const $name: &str = $key;)+)+

            $($(#[$list_doc])* pub const $list: &[&str] = &[$($name),+];)+

            /// Every key with a counter slot, in slot order.
            pub const SLOTTED: &[&str] = &[$($($name,)+)+];

            pub mod counter {
                //! The counter slot of each key in [`SLOTTED`](super::SLOTTED),
                //! under its key constant's name.

                use crate::metrics::Slot;

                /// Slot numbers, in declaration order.
                #[allow(non_camel_case_types, clippy::upper_case_acronyms)]
                #[repr(u8)]
                enum Index {
                    $($($name,)+)+
                }

                $($(
                    #[doc = concat!("Counter slot of `", $key, "`.")]
                    pub const $name: Slot = Slot(Index::$name as u8);
                )+)+
            }
        };
    }

    slotted_keys! {
        /// Every fixed key, for exhaustive registration checks.
        ALL {
            /// Events popped from the engine queue.
            SIM_EVENTS = "sim.events";
            /// Telemetry events evicted by the bounded buffer.
            TELEMETRY_DROPPED = "telemetry.dropped";

            /// Submissions entering the system.
            TXN_SUBMITTED = "txn.submitted";
            /// Update transactions committed at an agent home.
            TXN_COMMITTED = "txn.committed";
            /// Read-only transactions finished.
            TXN_READ_FINISHED = "txn.read_finished";
            /// Transactions aborted (any reason).
            TXN_ABORTED = "txn.aborted";

            /// Aborts: program logic (`abort!`).
            ABORT_LOGIC = "abort.logic";
            /// Aborts: initiation rule violation (§3.2).
            ABORT_INITIATION = "abort.initiation";
            /// Aborts: lock-protocol deadlock (§4.1).
            ABORT_DEADLOCK = "abort.deadlock";
            /// Aborts: required node/agent unavailable.
            ABORT_UNAVAILABLE = "abort.unavailable";
            /// Aborts: submission from an undeclared class.
            ABORT_UNDECLARED_CLASS = "abort.undeclared_class";
            /// Aborts: model violation (malformed program/catalog mismatch).
            ABORT_MALFORMED = "abort.malformed";

            /// Token moves requested.
            MOVES_REQUESTED = "moves.requested";
            /// Token moves deferred (endpoint down / move in progress).
            MOVES_DEFERRED = "moves.deferred";

            /// Quasi-transactions installed at replicas.
            INSTALL_COUNT = "install.count";
            /// Duplicate installs dropped.
            INSTALL_DUPLICATE = "install.duplicate";
            /// Out-of-order installs held back.
            INSTALL_HELDBACK = "install.heldback";
            /// Installs rejected by catalog validation.
            INSTALL_REJECTED = "install.rejected";

            /// Packets discarded because the destination node was down.
            NET_DROPPED_AT_DOWN_NODE = "net.dropped_at_down_node";

            /// Quasi-transactions coalesced per batched broadcast envelope
            /// (histogram; recorded once per flushed batch).
            NET_BATCH_SIZE = "net.batch.size";
            /// Cumulative acks (standalone or piggybacked) that cleared at least
            /// one pending packet at the sender.
            NET_ACK_CUMULATIVE = "net.ack.cumulative";
            /// WAL entries served per range anti-entropy reply (histogram).
            CATCHUP_RANGE_LEN = "catchup.range_len";

            /// Deep payload materializations (one per commit).
            PAYLOAD_CLONES = "payload.clones";
            /// Bytes deep-copied in payload materializations.
            PAYLOAD_CLONE_BYTES = "payload.clone_bytes";
            /// Arc bumps sharing an already-materialized payload.
            PAYLOAD_SHARES = "payload.shares";
            /// Bytes shared by reference instead of copied.
            PAYLOAD_SHARE_BYTES = "payload.share_bytes";

            /// Node crash events.
            NODE_CRASH = "node.crash";
            /// Node recovery events.
            NODE_RECOVER = "node.recover";

            /// §4.4.3 missing updates forwarded by peers.
            NOPREP_FORWARDED = "noprep.forwarded";
            /// §4.4.3 missing updates repackaged by the new agent.
            NOPREP_REPACKAGED = "noprep.repackaged";

            /// Heartbeats broadcast by the failure detector.
            DETECTOR_HEARTBEATS = "detector.heartbeats";
            /// Suspicions raised by the failure detector (missed-beat threshold).
            DETECTOR_SUSPICIONS = "detector.suspicions";
            /// Quorum-election rounds started on behalf of suspected homes.
            ELECTION_ROUNDS = "election.rounds";
            /// Elections won (token re-homed through §4.4.1 recovery).
            ELECTION_WON = "election.won";
            /// Elections aborted (quorum unreachable or home proved alive).
            ELECTION_ABORTED = "election.aborted";
            /// Open group-commit batches discarded by a home crash.
            BATCH_DISCARDED = "batch.discarded";

            /// Log-transform baseline: operations replayed.
            REPLAY_OPS = "replay.ops";

            /// Submission→commit/read-finish latency (µs).
            LATENCY_COMMIT = "latency.commit";
            /// Crash→caught-up latency (µs).
            LATENCY_RECOVERY = "latency.recovery";
            /// Queued-behind-a-move wait (µs).
            LATENCY_MOVE_WAIT = "latency.move_wait";

            /// Commit spans that span reconstruction could only partially rebuild
            /// because ring-buffer eviction discarded their commit-side events.
            TELEMETRY_SPANS_TRUNCATED = "telemetry.spans_truncated";
            /// Per-commit critical-path length (histogram; number of nonzero
            /// phase segments on the longest chain to the last install).
            OBS_CRITICAL_PATH_LEN = "obs.critical_path.len";
        }

        /// The `msg.<kind>` key of each of the system's message envelopes,
        /// counted once per delivery.
        MSG_KEYS {
            /// Deliveries of `quasi` envelopes.
            MSG_QUASI = "msg.quasi";
            /// Deliveries of `batch` envelopes.
            MSG_BATCH = "msg.batch";
            /// Deliveries of `lock_req` envelopes.
            MSG_LOCK_REQ = "msg.lock_req";
            /// Deliveries of `lock_grant` envelopes.
            MSG_LOCK_GRANT = "msg.lock_grant";
            /// Deliveries of `lock_denied` envelopes.
            MSG_LOCK_DENIED = "msg.lock_denied";
            /// Deliveries of `lock_release` envelopes.
            MSG_LOCK_RELEASE = "msg.lock_release";
            /// Deliveries of `prepare` envelopes.
            MSG_PREPARE = "msg.prepare";
            /// Deliveries of `prepare_ack` envelopes.
            MSG_PREPARE_ACK = "msg.prepare_ack";
            /// Deliveries of `commit_cmd` envelopes.
            MSG_COMMIT_CMD = "msg.commit_cmd";
            /// Deliveries of `abort_cmd` envelopes.
            MSG_ABORT_CMD = "msg.abort_cmd";
            /// Deliveries of `seq_query` envelopes.
            MSG_SEQ_QUERY = "msg.seq_query";
            /// Deliveries of `seq_reply` envelopes.
            MSG_SEQ_REPLY = "msg.seq_reply";
            /// Deliveries of `m0` envelopes.
            MSG_M0 = "msg.m0";
            /// Deliveries of `forward_missing` envelopes.
            MSG_FORWARD_MISSING = "msg.forward_missing";
            /// Deliveries of `heartbeat` envelopes.
            MSG_HEARTBEAT = "msg.heartbeat";
            /// Deliveries of `vote_req` envelopes.
            MSG_VOTE_REQ = "msg.vote_req";
            /// Deliveries of `vote` envelopes.
            MSG_VOTE = "msg.vote";
        }
    }

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

    /// Whether `key` is a registered fixed key, a `msg.<kind>` key, or
    /// matches a registered dimensioned pattern.
    pub fn is_registered(key: &str) -> bool {
        if SLOTTED.contains(&key) {
            return true;
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

/// The fixed array index of a counter whose key is known at compile time:
/// one per key in [`keys::SLOTTED`], named in [`keys::counter`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Slot(u8);

/// Number of counter slots.
const SLOTS: usize = keys::SLOTTED.len();

impl Slot {
    /// The slot of `key`, if it has one.
    fn of(key: &str) -> Option<Slot> {
        let i = keys::SLOTTED.iter().position(|&k| k == key)?;
        Some(Slot(i as u8))
    }

    /// The key this slot counts.
    pub fn key(self) -> &'static str {
        keys::SLOTTED[self.0 as usize]
    }
}

/// A counter's address: a fixed key's slot, or any other name. A name
/// that has a slot converts to the slot, so a counter is the same counter
/// whichever form writes it.
#[derive(Clone, Debug)]
pub enum CounterKey {
    /// A fixed key, written without a string comparison.
    Slot(Slot),
    /// An owned or dimensioned key, kept in the map.
    Name(Cow<'static, str>),
}

impl From<Slot> for CounterKey {
    fn from(slot: Slot) -> Self {
        CounterKey::Slot(slot)
    }
}

impl From<Cow<'static, str>> for CounterKey {
    fn from(key: Cow<'static, str>) -> Self {
        match Slot::of(&key) {
            Some(slot) => CounterKey::Slot(slot),
            None => CounterKey::Name(key),
        }
    }
}

impl From<&'static str> for CounterKey {
    fn from(key: &'static str) -> Self {
        Cow::Borrowed(key).into()
    }
}

impl From<String> for CounterKey {
    fn from(key: String) -> Self {
        Cow::<'static, str>::Owned(key).into()
    }
}

/// Counter / histogram registry for one simulation run.
#[derive(Debug)]
pub struct Metrics {
    /// Counters under slotted keys; `None` until first written.
    slots: [Option<u64>; SLOTS],
    /// Counters under every other key.
    counters: BTreeMap<Cow<'static, str>, u64>,
    histograms: BTreeMap<Cow<'static, str>, QuantileSketch>,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            slots: [None; SLOTS],
            counters: BTreeMap::new(),
            histograms: BTreeMap::new(),
        }
    }
}

impl Metrics {
    /// Empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// The cell of counter `key`, created at zero.
    fn cell(&mut self, key: impl Into<CounterKey>) -> &mut u64 {
        match key.into() {
            CounterKey::Slot(Slot(i)) => self.slots[i as usize].get_or_insert(0),
            CounterKey::Name(name) => self.counters.entry(name).or_insert(0),
        }
    }

    /// Add 1 to counter `key`.
    pub fn incr(&mut self, key: impl Into<CounterKey>) {
        self.add(key, 1);
    }

    /// Add `delta` to counter `key`.
    pub fn add(&mut self, key: impl Into<CounterKey>, delta: u64) {
        *self.cell(key) += delta;
    }

    /// Read counter `key` (0 if never written).
    pub fn counter(&self, key: &str) -> u64 {
        let value = match Slot::of(key) {
            Some(Slot(i)) => self.slots[i as usize],
            None => self.counters.get(key).copied(),
        };
        value.unwrap_or(0)
    }

    /// Set counter `key` to an absolute `value` (gauge semantics) — used to
    /// publish buffer drop counts, which are totals rather than deltas.
    pub fn set(&mut self, key: impl Into<CounterKey>, value: u64) {
        *self.cell(key) = value;
    }

    /// Record `value` in histogram `key`.
    pub fn observe(&mut self, key: impl Into<Cow<'static, str>>, value: u64) {
        self.histograms.entry(key.into()).or_default().record(value);
    }

    /// Record `value` in histogram `key` without taking ownership of the
    /// key: allocates an owned copy only on the histogram's *first*
    /// observation, so a hot path using an interned key (see
    /// `telemetry::Probes`) is allocation-free in steady state.
    pub fn observe_named(&mut self, key: &str, value: u64) {
        if let Some(h) = self.histograms.get_mut(key) {
            h.record(value);
        } else {
            let mut h = QuantileSketch::default();
            h.record(value);
            self.histograms.insert(Cow::Owned(key.to_owned()), h);
        }
    }

    /// Read histogram `key`, if it exists.
    pub fn histogram(&self, key: &str) -> Option<&QuantileSketch> {
        self.histograms.get(key)
    }

    /// All counters in key order: the written slots merged with the map.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        let slots = keys::SLOTTED
            .iter()
            .zip(self.slots)
            .filter_map(|(&k, v)| Some((k, v?)));
        let named = self.counters.iter().map(|(k, v)| (k.as_ref(), *v));
        let mut all: Vec<(&str, u64)> = slots.chain(named).collect();
        all.sort_unstable_by_key(|&(k, _)| k);
        all.into_iter()
    }

    /// All histograms in key order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &QuantileSketch)> {
        self.histograms.iter().map(|(k, v)| (k.as_ref(), v))
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
                h.quantile(99.0).unwrap_or(0),
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
    fn named_variants_accumulate_like_owned() {
        let mut m = Metrics::new();
        m.observe_named("h", 5);
        m.observe_named("h", 7);
        m.observe("h", 9);
        assert_eq!(m.histogram("h").unwrap().count(), 3);
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
    fn slot_and_name_write_one_counter() {
        let mut m = Metrics::new();
        m.incr(keys::counter::SIM_EVENTS);
        m.incr("sim.events");
        m.add(keys::SIM_EVENTS, 3);
        m.add(String::from("sim.events"), 1);
        assert_eq!(m.counter(keys::SIM_EVENTS), 6);
        m.set("sim.events", 2);
        m.incr(keys::counter::SIM_EVENTS);
        assert_eq!(m.counter("sim.events"), 3);
        m.incr(keys::counter::MSG_QUASI);
        m.add(format!("msg.{}", "quasi"), 1);
        assert_eq!(m.counter("msg.quasi"), 2);
        let listed: Vec<_> = m.counters().collect();
        assert_eq!(listed, vec![("msg.quasi", 2), ("sim.events", 3)]);
    }

    #[test]
    fn counters_and_render_merge_slots_and_names_in_key_order() {
        let mut m = Metrics::new();
        m.incr("zz.named");
        m.incr(keys::counter::TXN_COMMITTED);
        m.incr("aa.named");
        m.incr(keys::counter::MSG_QUASI);
        m.incr(format!("node.{}.txns", 3));
        let order = [
            "aa.named",
            "msg.quasi",
            "node.3.txns",
            "txn.committed",
            "zz.named",
        ];
        let listed: Vec<&str> = m.counters().map(|(k, _)| k).collect();
        assert_eq!(listed, order);
        let rendered: Vec<String> = m.render().lines().map(str::to_owned).collect();
        let expected: Vec<String> = order.iter().map(|k| format!("{k} = 1")).collect();
        assert_eq!(rendered, expected);
    }

    #[test]
    fn a_zero_write_still_lists_the_key() {
        let mut m = Metrics::new();
        m.add(keys::counter::INSTALL_COUNT, 0);
        m.add("other", 0);
        m.set(keys::counter::NODE_CRASH, 0);
        let listed: Vec<_> = m.counters().collect();
        assert_eq!(
            listed,
            vec![("install.count", 0), ("node.crash", 0), ("other", 0)]
        );
    }

    #[test]
    fn every_fixed_and_msg_key_has_a_slot_and_nothing_else() {
        assert_eq!(keys::MSG_KEYS.len(), 17);
        assert_eq!(SLOTS, keys::ALL.len() + keys::MSG_KEYS.len());
        for (i, &k) in keys::ALL.iter().chain(keys::MSG_KEYS).enumerate() {
            let slot = Slot::of(k).unwrap_or_else(|| panic!("{k} has no slot"));
            assert_eq!((slot, slot.key()), (Slot(i as u8), k));
            assert!(k.starts_with("msg.") == (i >= keys::ALL.len()), "{k}");
        }
        for k in [
            "frag.1.lag",
            "node.2.staleness",
            "span.phase.net",
            "msg.bogus",
            "msg.",
        ] {
            assert_eq!(Slot::of(k), None, "{k} must stay in the map");
        }
    }

    #[test]
    fn every_written_slot_is_listed() {
        let mut m = Metrics::new();
        for (i, &k) in keys::SLOTTED.iter().enumerate() {
            m.add(Slot::of(k).expect("slotted"), i as u64 + 1);
        }
        let mut expected: Vec<(&str, u64)> = keys::SLOTTED
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, i as u64 + 1))
            .collect();
        expected.sort_unstable();
        assert_eq!(m.counters().collect::<Vec<_>>(), expected);
    }
}
