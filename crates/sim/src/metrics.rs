//! Run metrics: counters and histograms, addressed by typed keys.
//!
//! A counter's address is a [`Slot`], an array index fixed at compile time
//! for each key in [`keys::SLOTTED`] ([`keys::slot`]). A histogram's
//! address is a [`HistKey`]: a fixed key's slot, a per-fragment or
//! per-node probe, or a span phase. So no writer compares or builds a
//! string. Every histogram is a [`QuantileSketch`] in one map: exact count,
//! sum, min, max and mean, quantiles at most 2⁻⁵ low.
//!
//! Names exist only to read and render. [`HistKey`]'s `Display` renders a
//! key's name and [`HistKey::parse`] reads one back; nothing else knows the
//! format. The read API takes names and lists metrics in name order
//! (`frag.10.lag` before `frag.2.lag`), each written key exactly once (a
//! slot holds `None` until its first write).

use std::collections::BTreeMap;
use std::fmt;

use crate::histogram::QuantileSketch;

pub mod keys {
    //! Central registry of metric keys.
    //!
    //! Every fixed key spelled anywhere in the workspace lives here as a
    //! `&'static str` constant, and each fixed key and each `msg.<kind>`
    //! key has a same-named [`Slot`](super::Slot) in [`slot`], which
    //! writers pass instead of the name. The dimensioned histograms
    //! (`frag.<f>.<probe>`, `node.<n>.<probe>`, `span.phase.<p>`) take their
    //! last part from the closed vocabularies [`FragProbe`], [`NodeProbe`]
    //! and [`SpanPhase`].

    /// Declares groups of keys: a `&str` constant per key, a list constant
    /// per group, [`SLOTTED`] over all groups in order, and a same-named
    /// `Slot` per key in [`slot`], numbered in declaration order.
    macro_rules! slotted_keys {
        ($(
            $(#[$list_doc:meta])*
            $list:ident {
                $($(#[$doc:meta])* $name:ident = $key:literal;)+
            }
        )+) => {
            $($($(#[$doc])* pub const $name: &str = $key;)+)+

            $($(#[$list_doc])* pub const $list: &[&str] = &[$($name),+];)+

            /// Every key with a slot, in slot order.
            pub const SLOTTED: &[&str] = &[$($($name,)+)+];

            pub mod slot {
                //! The slot of each key in [`SLOTTED`](super::SLOTTED), under
                //! its key constant's name: the address of its counter and,
                //! for a histogram key, of its histogram.

                use crate::metrics::Slot;

                /// Slot numbers, in declaration order.
                #[allow(non_camel_case_types, clippy::upper_case_acronyms)]
                #[repr(u8)]
                enum Index {
                    $($($name,)+)+
                }

                $($(
                    #[doc = concat!("Slot of `", $key, "`.")]
                    pub const $name: Slot = Slot(Index::$name as u8);
                )+)+
            }
        };
    }

    /// Declares closed vocabularies: per vocabulary a fieldless enum, its
    /// variants in declaration order, and each variant's name.
    macro_rules! vocabulary {
        ($(
            $(#[$doc:meta])*
            $ty:ident { $($var:ident = $name:literal,)+ }
        )+) => {$(
            $(#[$doc])*
            #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
            pub enum $ty {
                $(#[doc = concat!("`", $name, "`.")] $var,)+
            }

            impl $ty {
                /// Every variant, in declaration order.
                pub const ALL: &[$ty] = &[$($ty::$var),+];

                /// The variant's name.
                pub fn name(self) -> &'static str {
                    match self {
                        $($ty::$var => $name,)+
                    }
                }

                /// The variant named `name`.
                pub(crate) fn parse(name: &str) -> Option<$ty> {
                    $ty::ALL.iter().copied().find(|v| v.name() == name)
                }
            }
        )+};
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

    vocabulary! {
        /// The probe of a `frag.<f>.<probe>` histogram.
        FragProbe {
            Lag = "lag",
            Queue = "queue",
            MoveStall = "move_stall",
            UnavailWindow = "unavail_window",
        }

        /// The probe of a `node.<n>.<probe>` histogram.
        NodeProbe {
            Staleness = "staleness",
            Holdback = "holdback",
        }

        /// A reconstructed commit-span phase, one `span.phase.<p>` duration
        /// histogram each. `queue` splits into `token_move`/`election` when
        /// the wait overlapped an open move or election window; `net`
        /// splits out `retransmit` legs.
        SpanPhase {
            Queue = "queue",
            TokenMove = "token_move",
            Election = "election",
            LockWait = "lock_wait",
            Exec = "exec",
            Net = "net",
            Retransmit = "retransmit",
            Holdback = "holdback",
        }
    }
}

use keys::{FragProbe, NodeProbe, SpanPhase};

/// The fixed array index of a key known at compile time: one per key in
/// [`keys::SLOTTED`], named in [`keys::slot`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Slot(u8);

/// Number of slots.
const SLOTS: usize = keys::SLOTTED.len();

impl Slot {
    /// The slot of `key`, if it has one.
    fn of(key: &str) -> Option<Slot> {
        let i = keys::SLOTTED.iter().position(|&k| k == key)?;
        Some(Slot(i as u8))
    }

    /// The key this slot addresses.
    pub fn key(self) -> &'static str {
        keys::SLOTTED[self.0 as usize]
    }
}

/// A histogram's address. `Display` renders its name and
/// [`HistKey::parse`] reads the name back.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum HistKey {
    /// A fixed key (`latency.commit`, `net.batch.size`, …).
    Fixed(Slot),
    /// `frag.<f>.<probe>`.
    Frag(u32, FragProbe),
    /// `node.<n>.<probe>`.
    Node(u32, NodeProbe),
    /// `span.phase.<p>`.
    Phase(SpanPhase),
}

impl From<Slot> for HistKey {
    fn from(slot: Slot) -> Self {
        HistKey::Fixed(slot)
    }
}

impl fmt::Display for HistKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            HistKey::Fixed(slot) => f.write_str(slot.key()),
            HistKey::Frag(i, probe) => write!(f, "frag.{i}.{}", probe.name()),
            HistKey::Node(i, probe) => write!(f, "node.{i}.{}", probe.name()),
            HistKey::Phase(phase) => write!(f, "span.phase.{}", phase.name()),
        }
    }
}

impl HistKey {
    /// The key whose rendered name is `name`, if any. Every slot's key
    /// parses, so this also tells whether a name is a known metric.
    pub fn parse(name: &str) -> Option<HistKey> {
        if let Some(phase) = name.strip_prefix("span.phase.") {
            return SpanPhase::parse(phase).map(HistKey::Phase);
        }
        // `<prefix><index>.<probe>`, the index in canonical decimal.
        let dim = |prefix: &str| {
            let (index, probe) = name.strip_prefix(prefix)?.split_once('.')?;
            let canonical = index.bytes().all(|b| b.is_ascii_digit())
                && (index == "0" || !index.starts_with('0'));
            Some((index.parse().ok().filter(|_| canonical)?, probe))
        };
        if let Some((i, probe)) = dim("frag.") {
            return FragProbe::parse(probe).map(|p| HistKey::Frag(i, p));
        }
        if let Some((i, probe)) = dim("node.") {
            return NodeProbe::parse(probe).map(|p| HistKey::Node(i, p));
        }
        Slot::of(name).map(HistKey::Fixed)
    }
}

/// Counter / histogram registry for one simulation run.
#[derive(Debug)]
pub struct Metrics {
    /// Counters by slot; `None` until first written.
    counters: [Option<u64>; SLOTS],
    histograms: BTreeMap<HistKey, QuantileSketch>,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            counters: [None; SLOTS],
            histograms: BTreeMap::new(),
        }
    }
}

impl Metrics {
    /// Empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Add 1 to counter `slot`.
    pub fn incr(&mut self, slot: Slot) {
        self.add(slot, 1);
    }

    /// Add `delta` to counter `slot`.
    pub fn add(&mut self, slot: Slot, delta: u64) {
        *self.counters[slot.0 as usize].get_or_insert(0) += delta;
    }

    /// Set counter `slot` to an absolute `value` (gauge semantics) — used
    /// to publish buffer drop counts, which are totals rather than deltas.
    pub fn set(&mut self, slot: Slot, value: u64) {
        self.counters[slot.0 as usize] = Some(value);
    }

    /// Read the counter named `name` (0 if never written).
    pub fn counter(&self, name: &str) -> u64 {
        Slot::of(name)
            .and_then(|Slot(i)| self.counters[i as usize])
            .unwrap_or(0)
    }

    /// Record `value` in histogram `key`.
    pub fn observe(&mut self, key: impl Into<HistKey>, value: u64) {
        self.histograms.entry(key.into()).or_default().record(value);
    }

    /// Merge `sketch` into histogram `key`: the same histogram as observing
    /// each of its values. An empty sketch creates no histogram.
    pub fn merge(&mut self, key: impl Into<HistKey>, sketch: &QuantileSketch) {
        if !sketch.is_empty() {
            self.histograms.entry(key.into()).or_default().merge(sketch);
        }
    }

    /// Read the histogram named `name`, if it exists.
    pub fn histogram(&self, name: &str) -> Option<&QuantileSketch> {
        self.histograms.get(&HistKey::parse(name)?)
    }

    /// All written counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> {
        let mut all: Vec<(&str, u64)> = keys::SLOTTED
            .iter()
            .zip(self.counters)
            .filter_map(|(&k, v)| Some((k, v?)))
            .collect();
        all.sort_unstable_by_key(|&(k, _)| k);
        all.into_iter()
    }

    /// All histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (String, &QuantileSketch)> {
        let mut all: Vec<(String, &QuantileSketch)> = self
            .histograms
            .iter()
            .map(|(k, h)| (k.to_string(), h))
            .collect();
        all.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        all.into_iter()
    }

    /// Render a human-readable report: counters, then histogram summaries,
    /// in name order. Leads with a WARNING when [`keys::TELEMETRY_DROPPED`]
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
    use super::keys::slot;
    use super::*;

    #[test]
    fn counters_accumulate_and_set_is_absolute() {
        let mut m = Metrics::new();
        m.incr(slot::TXN_COMMITTED);
        m.incr(slot::TXN_COMMITTED);
        m.add(slot::TXN_COMMITTED, 3);
        assert_eq!(m.counter(keys::TXN_COMMITTED), 5);
        m.set(slot::TXN_COMMITTED, 2);
        assert_eq!(m.counter("txn.committed"), 2);
        assert_eq!(m.counter(keys::TXN_ABORTED), 0);
        assert_eq!(m.counter("nope"), 0);
    }

    #[test]
    fn histograms_record_under_any_key_form() {
        let mut m = Metrics::new();
        m.observe(slot::LATENCY_COMMIT, 10);
        m.observe(HistKey::Fixed(slot::LATENCY_COMMIT), 20);
        m.observe(HistKey::Frag(3, FragProbe::Lag), 7);
        assert_eq!(m.histogram("latency.commit").unwrap().count(), 2);
        assert_eq!(m.histogram("frag.3.lag").unwrap().sum(), 7);
        assert!(m.histogram("frag.4.lag").is_none());
        assert!(m.histogram("bogus").is_none());
    }

    #[test]
    fn merge_equals_observing_and_skips_empty_sketches() {
        let (mut merged, mut observed) = (Metrics::new(), Metrics::new());
        let mut sketch = QuantileSketch::new();
        for v in [3, 900, 70_000] {
            sketch.record(v);
            observed.observe(HistKey::Phase(SpanPhase::Net), v);
        }
        merged.merge(HistKey::Phase(SpanPhase::Net), &sketch);
        merged.merge(slot::OBS_CRITICAL_PATH_LEN, &QuantileSketch::new());
        assert_eq!(merged.render(), observed.render());
        assert!(merged.histogram(keys::OBS_CRITICAL_PATH_LEN).is_none());
    }

    #[test]
    fn render_warns_on_dropped_trace() {
        let mut m = Metrics::new();
        m.incr(slot::TXN_COMMITTED);
        m.observe(slot::LATENCY_COMMIT, 10);
        let clean = m.render();
        assert!(!clean.contains("WARNING"));
        assert!(clean.contains("txn.committed = 1"));
        assert!(clean.contains("latency.commit: n=1"));
        m.set(slot::TELEMETRY_DROPPED, 2);
        assert!(m
            .render()
            .starts_with("WARNING: 2 telemetry events dropped"));
    }

    #[test]
    fn counters_and_histograms_list_in_name_order() {
        let mut m = Metrics::new();
        m.incr(slot::TXN_COMMITTED);
        m.incr(slot::MSG_QUASI);
        m.add(slot::INSTALL_COUNT, 0);
        let listed: Vec<_> = m.counters().collect();
        assert_eq!(
            listed,
            [("install.count", 0), ("msg.quasi", 1), ("txn.committed", 1)]
        );
        for key in [
            HistKey::Phase(SpanPhase::Exec),
            HistKey::Frag(2, FragProbe::Lag),
            HistKey::Node(1, NodeProbe::Staleness),
            HistKey::Frag(10, FragProbe::Lag),
            HistKey::Fixed(slot::LATENCY_COMMIT),
        ] {
            m.observe(key, 1);
        }
        let names: Vec<String> = m.histograms().map(|(k, _)| k).collect();
        assert_eq!(
            names,
            [
                "frag.10.lag",
                "frag.2.lag",
                "latency.commit",
                "node.1.staleness",
                "span.phase.exec",
            ]
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
        for k in ["frag.1.lag", "node.2.staleness", "span.phase.net", "msg."] {
            assert_eq!(Slot::of(k), None, "{k} has no slot");
        }
    }

    #[test]
    fn every_written_slot_is_listed() {
        let mut m = Metrics::new();
        for i in 0..SLOTS {
            m.add(Slot(i as u8), i as u64 + 1);
        }
        let mut expected: Vec<(&str, u64)> = keys::SLOTTED
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, i as u64 + 1))
            .collect();
        expected.sort_unstable();
        assert_eq!(m.counters().collect::<Vec<_>>(), expected);
    }

    #[test]
    fn every_name_round_trips() {
        let mut all: Vec<HistKey> = (0..SLOTS).map(|i| HistKey::Fixed(Slot(i as u8))).collect();
        for i in [0, 9, 10, u32::MAX] {
            all.extend(FragProbe::ALL.iter().map(|&p| HistKey::Frag(i, p)));
            all.extend(NodeProbe::ALL.iter().map(|&p| HistKey::Node(i, p)));
        }
        all.extend(SpanPhase::ALL.iter().map(|&p| HistKey::Phase(p)));
        for key in all {
            let name = key.to_string();
            assert_eq!(HistKey::parse(&name), Some(key), "{name}");
        }
        for name in [
            "frag.12.bogus",
            "frag.x.lag",
            "frag..lag",
            "frag.+1.lag",
            "frag.01.lag",
            "frag.4294967296.lag",
            "frag.1.lag.x",
            "node.7.lag",
            "node.7",
            "msg.bogus",
            "msg.",
            "latency.typo",
            "span.phase.bogus",
            "span.phase.",
            "span.phase.net.extra",
            "span.bogus.net",
            "obs.critical_path.bogus",
            "",
        ] {
            assert_eq!(HistKey::parse(name), None, "{name} must not parse");
        }
    }
}
