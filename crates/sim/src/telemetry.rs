//! Structured event telemetry.
//!
//! This module records **typed** events carrying virtual time,
//! node/fragment ids, and a causal id — the originating
//! quasi-transaction's `(fragment, epoch, frag_seq)` — so a commit at the
//! agent can be joined to its install at every replica, a move request to
//! the token's arrival, and a crash to the completion of catch-up.
//!
//! Layering: this crate sits below the model crate, so events carry *raw*
//! ids (`u32` node/fragment, `u64` epoch/sequence). The system layer
//! converts its typed ids at the emission site.
//!
//! Discipline:
//!
//! * disabled by default; emission sites construct events inside closures so
//!   a disabled stream is a single branch — zero allocation on hot paths;
//! * the buffer is bounded; overflow evicts oldest-first and counts drops;
//! * everything is deterministic: the event log for a seeded run is
//!   byte-for-byte reproducible.
//!
//! On top of the raw stream, [`Probes`] derives online measurements and
//! publishes them as dimensioned [`Metrics`] histograms (`frag.<f>.lag`,
//! `node.<n>.staleness`, …) through an interning cache so steady-state
//! observation allocates nothing, and keeps one [`QuantileSketch`] of the
//! commit→install lag merged over every fragment.

use std::collections::{BTreeMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

use crate::histogram::QuantileSketch;
use crate::metrics::{keys, Metrics};
use crate::time::SimTime;

/// Causal identity of a quasi-transaction: the fragment it updates, the
/// token epoch it was issued under, and its position in the fragment's
/// update sequence. Every event downstream of a commit (broadcast, install,
/// forward, repackage) carries the same id, which is what makes the
/// commit→install join well-defined even across §4.4.3 repackaging.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CausalId {
    /// Fragment whose update sequence this transaction extends.
    pub fragment: u32,
    /// Token epoch under which the sequence number was issued.
    pub epoch: u64,
    /// Position in the fragment's update sequence.
    pub frag_seq: u64,
}

/// Closed vocabulary of `aborted.reason`: the suffixes of the `abort.*`
/// metric keys.
fn abort_reasons() -> impl Iterator<Item = &'static str> {
    keys::ALL.iter().filter_map(|k| k.strip_prefix("abort."))
}

/// Closed vocabulary of `delivered.kind`: the `msg.<kind>` dimension.
fn msg_kinds() -> impl Iterator<Item = &'static str> {
    keys::MSG_KINDS.iter().copied()
}

/// Closed vocabulary of `election_aborted.reason`.
fn election_abort_reasons() -> impl Iterator<Item = &'static str> {
    ["timeout", "home_alive", "superseded", "candidate_crashed"].into_iter()
}

/// The label a field is written and read under: `,"<field>":`.
macro_rules! label {
    ($field:ident) => {
        concat!(",\"", stringify!($field), "\":")
    };
}

/// Encode one declared field; a vocabulary word is checked against its
/// vocabulary so an emission site cannot drift from what the decoder reads.
macro_rules! put_field {
    ($out:ident, $field:ident, $ty:ty) => {
        <$ty as Wire>::put($field, label!($field), $out)
    };
    ($out:ident, $field:ident, $ty:ty, $vocab:path) => {{
        debug_assert!(
            $vocab().any(|w| w == *$field),
            "{:?} is not in the {} vocabulary",
            $field,
            stringify!($vocab)
        );
        $out.push(label!($field));
        $out.push("\"");
        $out.push($field);
        $out.push("\"");
    }};
}

/// Decode one declared field.
macro_rules! take_field {
    ($cur:ident, $field:ident, $ty:ty) => {
        <$ty as Wire>::take(label!($field), $cur)?
    };
    ($cur:ident, $field:ident, $ty:ty, $vocab:path) => {
        $cur.word(label!($field), $vocab())?
    };
}

/// A test value for one declared field: the type's minimum or maximum, or
/// the first or last word of the vocabulary.
#[cfg_attr(not(test), allow(unused_macros))]
macro_rules! sample_field {
    ($max:ident, $ty:ty) => {
        <$ty as tests::Sample>::sample($max)
    };
    ($max:ident, $ty:ty, $vocab:path) => {
        if $max {
            $vocab().last()
        } else {
            $vocab().next()
        }
        .expect("vocabulary is not empty")
    };
}

/// The one declaration of the telemetry vocabulary. Each event is listed
/// once: `Variant = "wire_name" { field: type, … }`, a string field naming
/// its closed vocabulary as `field: &'static str = vocabulary`. The enum,
/// [`TelemetryEvent::name`], the JSON-lines encoder and the strict decoder
/// are all generated from this list, so adding an event is one edit here
/// (plus whichever consumers want to match on it).
macro_rules! telemetry_events {
    ($(
        $(#[$vmeta:meta])*
        $variant:ident = $wire:literal {
            $( $(#[$fmeta:meta])* $field:ident: $ty:ty $(= $vocab:path)? ),+ $(,)?
        }
    )+) => {
        /// One structured telemetry event.
        ///
        /// Variants cover the transaction lifecycle, token movement, the
        /// network, and crash recovery. The set is deliberately open-ended:
        /// consumers must treat unknown variants as opaque (match with a
        /// wildcard arm).
        #[derive(Clone, Debug, PartialEq, Eq)]
        pub enum TelemetryEvent {
            $( $(#[$vmeta])* $variant { $( $(#[$fmeta])* $field: $ty ),+ }, )+
        }

        impl TelemetryEvent {
            /// The variant's stable wire name, used by the JSON-lines
            /// export and the timeline renderer.
            pub fn name(&self) -> &'static str {
                match self {
                    $( TelemetryEvent::$variant { .. } => $wire, )+
                }
            }

            /// Append the variant's fields in declared order.
            fn put_fields(&self, out: &mut Line) {
                match self {
                    $( TelemetryEvent::$variant { $( $field ),+ } => {
                        $( put_field!(out, $field, $ty $(, $vocab)?); )+
                    } )+
                }
            }

            /// Read the fields of the event called `name`, in declared order.
            fn take_fields(name: &str, cur: &mut Cursor<'_>) -> Result<TelemetryEvent, String> {
                match name {
                    $( $wire => Ok(TelemetryEvent::$variant {
                        $( $field: take_field!(cur, $field, $ty $(, $vocab)?), )+
                    }), )+
                    _ => Err(format!("unknown event {name:?}")),
                }
            }

            /// One record of every variant, every field at its minimum or
            /// maximum.
            #[cfg(test)]
            fn samples(max: bool) -> Vec<TelemetryEvent> {
                vec![ $( TelemetryEvent::$variant {
                    $( $field: sample_field!(max, $ty $(, $vocab)?), )+
                }, )+ ]
            }
        }
    };
}

telemetry_events! {
    /// A submission entered the system at its initiating node.
    Initiated = "initiated" {
        /// Initiating node.
        node: u32,
        /// Fragment the transaction runs against.
        fragment: u32,
        /// The node-local transaction sequence number the submission runs
        /// under — pairs initiation with the eventual `Committed` /
        /// `Aborted` carrying the same `(node, txn_seq)`.
        txn_seq: u64,
    }
    /// A quasi-transaction committed at the fragment's agent home.
    Committed = "committed" {
        /// Causal id of the committed quasi-transaction.
        cause: CausalId,
        /// Agent home where the commit happened.
        node: u32,
        /// Node-local sequence of the committing transaction at its origin
        /// — joins the commit back to its `Initiated` (and any
        /// `LockWaitStarted`/`LockGranted` pair) for span reconstruction.
        txn_seq: u64,
    }
    /// The committed quasi-transaction was broadcast to replicas.
    BroadcastSent = "broadcast_sent" {
        /// Causal id of the broadcast quasi-transaction.
        cause: CausalId,
        /// Broadcasting node (the agent home).
        node: u32,
        /// Number of recipients addressed.
        recipients: u32,
    }
    /// A quasi-transaction was installed at a replica (the commit at the
    /// agent home counts as that node's install, so fault-free each commit
    /// joins to exactly R installs, R = replica count).
    Installed = "installed" {
        /// Causal id of the installed quasi-transaction.
        cause: CausalId,
        /// Node the install happened at.
        node: u32,
    }
    /// A transaction aborted.
    Aborted = "aborted" {
        /// Node at which the abort was decided.
        node: u32,
        /// Fragment of the aborted transaction.
        fragment: u32,
        /// Node-local sequence of the aborted transaction at its origin —
        /// closes the `Initiated`/`LockWaitStarted` pair for spans.
        txn_seq: u64,
        /// Abort reason, matching the `abort.*` metric suffixes.
        reason: &'static str = abort_reasons,
    }
    /// A read ran at a node; records how far behind the agent it was.
    ReadObserved = "read_observed" {
        /// Node that served the read.
        node: u32,
        /// Fragment read.
        fragment: u32,
        /// Highest update sequence installed at the reading node.
        seen_seq: u64,
        /// Agent's current update sequence (what a fresh read would see).
        agent_seq: u64,
    }
    /// An out-of-order quasi-transaction was held back at a replica.
    HeldBack = "held_back" {
        /// Causal id of the held-back quasi-transaction — lets span
        /// reconstruction split the replica hop into network time
        /// (commit→arrival) and hold-back time (arrival→install).
        cause: CausalId,
        /// Node holding the update back.
        node: u32,
        /// Hold-back buffer depth after insertion.
        depth: u64,
    }
    /// A §4.1 transaction began acquiring read/exclusive locks (2PC-style
    /// lock-site round). Paired with `LockGranted` by `(node, txn_seq)`.
    LockWaitStarted = "lock_wait_started" {
        /// Home node of the acquiring transaction.
        node: u32,
        /// Fragment the transaction updates (or reads, for read-only).
        fragment: u32,
        /// Node-local sequence of the acquiring transaction.
        txn_seq: u64,
        /// Number of *remote* lock sites contacted (0 = all-local).
        sites: u32,
    }
    /// All locks for the transaction are held; execution proceeds. Ends
    /// the `LockWaitStarted` phase opened by the same `(node, txn_seq)`.
    LockGranted = "lock_granted" {
        /// Home node of the acquiring transaction.
        node: u32,
        /// Fragment the transaction updates (or reads, for read-only).
        fragment: u32,
        /// Node-local sequence of the acquiring transaction.
        txn_seq: u64,
    }
    /// A submission queued behind a move or a majority commit.
    SubmissionQueued = "submission_queued" {
        /// Fragment whose queue grew.
        fragment: u32,
        /// Queue depth after insertion.
        depth: u64,
    }
    /// A token (agent) move was requested.
    MoveRequested = "move_requested" {
        /// Fragment whose token moves.
        fragment: u32,
        /// Current agent home.
        from: u32,
        /// Destination node.
        to: u32,
    }
    /// The token finished moving: the destination is now the agent.
    TokenArrived = "token_arrived" {
        /// Fragment whose token arrived.
        fragment: u32,
        /// New agent home.
        node: u32,
    }
    /// A move was deferred or abandoned (endpoint down, move in progress).
    MoveAborted = "move_aborted" {
        /// Fragment whose move did not start.
        fragment: u32,
        /// Agent home at the time of the request.
        from: u32,
        /// Requested destination.
        to: u32,
    }
    /// The link layer dropped transmissions (fault injection or the
    /// destination node being down).
    Dropped = "dropped" {
        /// Sender.
        from: u32,
        /// Intended receiver.
        to: u32,
        /// Number of transmissions lost in this batch.
        count: u64,
    }
    /// The reliable layer retransmitted unacked packets.
    Retransmit = "retransmit" {
        /// Sender.
        from: u32,
        /// Receiver.
        to: u32,
        /// Number of retransmissions in this batch.
        count: u64,
    }
    /// An application message was released in order to its destination.
    Delivered = "delivered" {
        /// Sender.
        from: u32,
        /// Receiver.
        to: u32,
        /// Message kind (the envelope's wire name).
        kind: &'static str = msg_kinds,
    }
    /// A node crashed (volatile state lost; WAL survives).
    Crash = "crash" {
        /// Crashed node.
        node: u32,
    }
    /// A node recovered: the WAL was replayed into the store.
    Recover = "recover" {
        /// Recovered node.
        node: u32,
        /// Fragments found divergent from the agents at recovery time.
        behind_fragments: u64,
    }
    /// A recovered node finished catching up on every divergent fragment.
    CatchupComplete = "catchup_complete" {
        /// Node whose catch-up completed.
        node: u32,
    }
    /// A node's failure detector suspected a silent peer.
    SuspectRaised = "suspect_raised" {
        /// Observing node (whose local detector raised the suspicion).
        node: u32,
        /// The suspected peer.
        suspect: u32,
    }
    /// A quorum election started to re-home a suspected token.
    ElectionStarted = "election_started" {
        /// Fragment whose token is being re-homed.
        fragment: u32,
        /// The token epoch the election fences on.
        epoch: u64,
        /// The initiating node (and candidate new home).
        candidate: u32,
    }
    /// An election reached a majority: the token re-homed under a new
    /// epoch, fencing out the old home.
    ElectionWon = "election_won" {
        /// Fragment whose token re-homed.
        fragment: u32,
        /// The **new** (post-reattach) token epoch.
        epoch: u64,
        /// The winning node (new agent home).
        node: u32,
    }
    /// An election round ended without re-homing the token.
    ElectionAborted = "election_aborted" {
        /// Fragment the round concerned.
        fragment: u32,
        /// The epoch the round fenced on.
        epoch: u64,
        /// Why: a word of `election_abort_reasons`.
        reason: &'static str = election_abort_reasons,
    }
    /// Post-election §4.4.1 recovery finished: the elected home holds the
    /// token and the fragment accepts writes again.
    TokenRecovered = "token_recovered" {
        /// Recovered fragment.
        fragment: u32,
        /// Epoch the fragment now runs under.
        epoch: u64,
        /// The elected home.
        node: u32,
    }
    /// An open group-commit batch element was discarded by a home crash
    /// before its broadcast; closes the causal id's lifecycle so the
    /// commit→install join is not left dangling.
    BatchDiscarded = "batch_discarded" {
        /// Causal id of the never-broadcast quasi-transaction.
        cause: CausalId,
        /// The crashed home that held the open batch.
        node: u32,
    }
}

/// A timestamped telemetry event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TelemetryRecord {
    /// Virtual time of emission.
    pub at: SimTime,
    /// The event.
    pub event: TelemetryEvent,
}

/// A declared field type: how it is written after its label, read back,
/// and range-checked.
trait Wire: Sized {
    fn put(&self, label: &'static str, out: &mut Line);
    fn take(label: &'static str, cur: &mut Cursor<'_>) -> Result<Self, String>;
}

/// `"00"`, `"01"`, … `"99"`: the two decimal digits of every value below 100.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// One JSON line under construction, on the stack, so that appending a
/// label or a number is a copy rather than a `String` growth check. Every
/// line the vocabulary can produce fits: the longest, every number at
/// `u64::MAX`, is under 200 bytes (the codec round-trip test writes it).
struct Line {
    bytes: [u8; 256],
    len: usize,
}

impl Line {
    fn new() -> Line {
        Line {
            bytes: [0; 256],
            len: 0,
        }
    }

    #[inline(always)]
    fn push(&mut self, s: &str) {
        let end = self.len + s.len();
        self.bytes[self.len..end].copy_from_slice(s.as_bytes());
        self.len = end;
    }

    /// Append `v` in decimal, the digits `v.to_string()` has, written in
    /// place two at a time from the right.
    #[inline(always)]
    fn decimal(&mut self, mut v: u64) {
        let end = self.len + v.checked_ilog10().unwrap_or(0) as usize + 1;
        let digits = &mut self.bytes[self.len..end];
        let mut at = digits.len();
        while v >= 100 {
            let pair = (v % 100) as usize * 2;
            v /= 100;
            at -= 2;
            digits[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        }
        if v >= 10 {
            let pair = v as usize * 2;
            digits[..2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        } else {
            digits[0] = b'0' + v as u8;
        }
        self.len = end;
    }

    fn as_bytes(&self) -> &[u8] {
        &self.bytes[..self.len]
    }

    fn as_str(&self) -> &str {
        std::str::from_utf8(self.as_bytes()).expect("the encoder writes ASCII")
    }
}

impl Wire for u64 {
    #[inline(always)]
    fn put(&self, label: &'static str, out: &mut Line) {
        out.push(label);
        out.decimal(*self);
    }
    #[inline(always)]
    fn take(label: &'static str, cur: &mut Cursor<'_>) -> Result<u64, String> {
        cur.number(label)
    }
}

impl Wire for u32 {
    #[inline(always)]
    fn put(&self, label: &'static str, out: &mut Line) {
        u64::from(*self).put(label, out);
    }
    #[inline(always)]
    fn take(label: &'static str, cur: &mut Cursor<'_>) -> Result<u32, String> {
        let v = cur.number(label)?;
        u32::try_from(v).map_err(|_| format!("field {:?}: {v} exceeds u32", field_of(label)))
    }
}

/// A causal id flattens to `fragment`/`epoch`/`frag_seq` whatever the
/// field holding it is called.
impl Wire for CausalId {
    #[inline(always)]
    fn put(&self, _: &'static str, out: &mut Line) {
        self.fragment.put(label!(fragment), out);
        self.epoch.put(label!(epoch), out);
        self.frag_seq.put(label!(frag_seq), out);
    }
    #[inline(always)]
    fn take(_: &'static str, cur: &mut Cursor<'_>) -> Result<CausalId, String> {
        Ok(CausalId {
            fragment: Wire::take(label!(fragment), cur)?,
            epoch: Wire::take(label!(epoch), cur)?,
            frag_seq: Wire::take(label!(frag_seq), cur)?,
        })
    }
}

/// The field name inside a `,"<field>":` (or `{"<field>":`) label.
fn field_of(label: &str) -> &str {
    &label[2..label.len() - 2]
}

/// The unread remainder of one JSON line.
struct Cursor<'a> {
    rest: &'a str,
}

impl<'a> Cursor<'a> {
    /// Consume `label`, the next declared field's `,"<field>":`.
    #[inline(always)]
    fn label(&mut self, label: &'static str) -> Result<(), String> {
        if !self.rest.as_bytes().starts_with(label.as_bytes()) {
            return Err(self.expected(label));
        }
        self.rest = &self.rest[label.len()..];
        Ok(())
    }

    #[cold]
    fn expected(&self, label: &'static str) -> String {
        format!(
            "expected field {:?}, found {}",
            field_of(label),
            self.found()
        )
    }

    /// What stands at the cursor, for an error message.
    fn found(&self) -> String {
        let key = self
            .rest
            .strip_prefix(",\"")
            .and_then(|r| r.split_once("\":"));
        match key {
            Some((key, _)) => format!("field {key:?}"),
            None if self.rest == "}" => "the end of the object".to_string(),
            None => format!("{:?}", self.rest),
        }
    }

    /// A number in the encoder's form: decimal digits, no sign, no
    /// leading zero, at most `u64::MAX`. The digits accumulate unchecked in
    /// one pass: fewer than 20 cannot overflow, and 20 are in range when
    /// they compare no greater than `u64::MAX`'s.
    #[inline(always)]
    fn number(&mut self, label: &'static str) -> Result<u64, String> {
        self.label(label)?;
        let bytes = self.rest.as_bytes();
        let mut len = 0;
        let mut value = 0u64;
        while let Some(&b) = bytes.get(len).filter(|b| b.is_ascii_digit()) {
            value = value.wrapping_mul(10).wrapping_add(u64::from(b - b'0'));
            len += 1;
        }
        let canonical = len == 1 || (len > 1 && bytes[0] != b'0');
        let in_range = len < 20 || (len == 20 && &bytes[..20] <= b"18446744073709551615");
        if !(canonical && in_range) {
            return Err(self.not_a_number(label, len));
        }
        self.rest = &self.rest[len..];
        Ok(value)
    }

    #[cold]
    fn not_a_number(&self, label: &'static str, len: usize) -> String {
        if len == 0 || self.rest.starts_with('0') {
            format!(
                "field {:?}: expected a number, found {:?}",
                field_of(label),
                self.rest
            )
        } else {
            format!(
                "field {:?}: {} exceeds u64",
                field_of(label),
                &self.rest[..len]
            )
        }
    }

    /// A quoted string. The encoder writes identifiers only, so there are
    /// no escapes to undo.
    #[inline(always)]
    fn string(&mut self, label: &'static str) -> Result<&'a str, String> {
        self.label(label)?;
        let rest = self.rest;
        let end = rest
            .as_bytes()
            .iter()
            .skip(1)
            .position(|&b| b == b'"')
            .filter(|_| rest.starts_with('"'));
        let Some(end) = end else {
            return Err(format!(
                "field {:?}: expected a string, found {:?}",
                field_of(label),
                rest
            ));
        };
        self.rest = &rest[end + 2..];
        Ok(&rest[1..end + 1])
    }

    /// A string that must be one of `vocabulary`'s words.
    fn word(
        &mut self,
        label: &'static str,
        mut vocabulary: impl Iterator<Item = &'static str>,
    ) -> Result<&'static str, String> {
        let value = self.string(label)?;
        vocabulary
            .find(|w| *w == value)
            .ok_or_else(|| format!("unknown {} {value:?}", field_of(label)))
    }
}

impl TelemetryRecord {
    /// The record's JSON-lines encoding (hand-rolled: no serde in this
    /// offline build), without a newline.
    ///
    /// One flat object per line: `at_micros`, `event`, then the variant's
    /// declared fields in declared order. Causal ids flatten to
    /// `fragment`/`epoch`/`frag_seq`. Numbers are unsigned decimals,
    /// strings are words of a closed vocabulary, and there is no
    /// whitespace.
    pub fn to_json_line(&self) -> String {
        self.json_line().as_str().to_owned()
    }

    /// [`TelemetryRecord::to_json_line`] in a stack buffer.
    fn json_line(&self) -> Line {
        let mut line = Line::new();
        self.at.micros().put("{\"at_micros\":", &mut line);
        line.push(label!(event));
        line.push("\"");
        line.push(self.event.name());
        line.push("\"");
        self.event.put_fields(&mut line);
        line.push("}");
        line
    }

    /// Strict inverse of [`TelemetryRecord::to_json_line`]: accepts exactly
    /// the lines the encoder can write. Anything else is an error naming
    /// the offending field: an unknown event, a missing, extra, duplicate
    /// or out-of-order field, a string where a number is declared (or the
    /// reverse), a value beyond its type's range, or a word outside its
    /// vocabulary.
    pub fn from_json_line(line: &str) -> Result<TelemetryRecord, String> {
        let mut cur = Cursor { rest: line };
        let record = Self::take(&mut cur)?;
        if cur.rest != "}" {
            return Err(format!(
                "expected the end of the object, found {}",
                cur.found()
            ));
        }
        Ok(record)
    }

    /// [`TelemetryRecord::from_json_line`] on the first line of `text`,
    /// without splitting the line off first: the record and the text after
    /// its line, or `None` when the line is not a valid record. Only a line
    /// that opens an object is tried, so a comment costs no error message.
    fn from_json_line_at(text: &str) -> Option<(TelemetryRecord, &str)> {
        if !text.starts_with('{') {
            return None;
        }
        let mut cur = Cursor { rest: text };
        let record = Self::take(&mut cur).ok()?;
        // No field runs past a newline, so the line ends at the brace.
        let (rest_of_line, after) = first_line(cur.rest.strip_prefix('}')?);
        rest_of_line.is_empty().then_some((record, after))
    }

    /// Everything of a record but its closing brace.
    fn take(cur: &mut Cursor<'_>) -> Result<TelemetryRecord, String> {
        let at = cur.number("{\"at_micros\":")?;
        let name = cur.string(label!(event))?;
        let event = TelemetryEvent::take_fields(name, cur)?;
        Ok(TelemetryRecord {
            at: SimTime(at),
            event,
        })
    }
}

/// The first line of `text` as [`str::lines`] yields it, and the text
/// after that line.
fn first_line(text: &str) -> (&str, &str) {
    match text.split_once('\n') {
        Some((line, after)) => (line.strip_suffix('\r').unwrap_or(line), after),
        None => (text, ""),
    }
}

/// The comment line that opens one run's segment of an export.
const SCENARIO_HEADER: &str = "# scenario:";

/// Render an export: an optional `# scenario: <name> section: <section>`
/// header, a drop-marker comment when the ring wrapped, then one record
/// per line, oldest first. Comment lines start with `#` so a JSONL
/// consumer can skip them unambiguously.
pub fn render_jsonl<'a>(
    scenario: Option<(&str, &str)>,
    dropped: u64,
    records: impl IntoIterator<Item = &'a TelemetryRecord>,
) -> String {
    let mut out = String::new();
    if let Some((name, section)) = scenario {
        out.push_str(&format!("{SCENARIO_HEADER} {name} section: {section}\n"));
    }
    if dropped > 0 {
        out.push_str(&format!("# {dropped} earlier events dropped\n"));
    }
    // Lines are copied as bytes and the whole is checked as UTF-8 once.
    let mut out = out.into_bytes();
    for r in records {
        out.extend_from_slice(r.json_line().as_bytes());
        out.push(b'\n');
    }
    String::from_utf8(out).expect("the encoder writes ASCII")
}

/// One meaningful line of an export, as [`read_jsonl`] hands it out.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JsonlEntry {
    /// A `# scenario:` header: a new run starts and virtual time restarts.
    Scenario,
    /// A decoded event line.
    Record(TelemetryRecord),
}

/// Read an export line by line, handing each scenario header and decoded
/// record to `visit`. This is the single
/// definition of a valid export: blank lines and `#` comments are skipped,
/// every other line must decode ([`TelemetryRecord::from_json_line`]),
/// `at_micros` never decreases within a run, and there is at least one
/// record. Errors (the reader's and `visit`'s) name the 1-based line.
pub fn read_jsonl(
    text: &str,
    mut visit: impl FnMut(JsonlEntry) -> Result<(), String>,
) -> Result<(), String> {
    let mut last_at = 0;
    let mut records = 0usize;
    let (mut rest, mut n) = (text, 0);
    while !rest.is_empty() {
        n += 1;
        // A record line decodes where it stands. Any other line is split
        // off and read on its own, and so is a record line that does not
        // decode, for the error message.
        let r = match TelemetryRecord::from_json_line_at(rest) {
            Some((r, after)) => {
                rest = after;
                r
            }
            None => {
                let (line, after) = first_line(rest);
                rest = after;
                if line.starts_with(SCENARIO_HEADER) {
                    last_at = 0;
                    visit(JsonlEntry::Scenario).map_err(|e| format!("line {n}: {e}"))?;
                    continue;
                }
                if line.is_empty() || line.starts_with('#') {
                    continue;
                }
                TelemetryRecord::from_json_line(line).map_err(|e| format!("line {n}: {e}"))?
            }
        };
        let at = r.at.micros();
        if at < last_at {
            return Err(format!(
                "line {n}: at_micros {at} decreases (previous {last_at})"
            ));
        }
        last_at = at;
        records += 1;
        visit(JsonlEntry::Record(r)).map_err(|e| format!("line {n}: {e}"))?;
    }
    if records == 0 {
        return Err("no event lines".to_string());
    }
    Ok(())
}

/// Multiply-and-rotate hashing for the few integers of a causal id or a
/// dimensioned key: the simulator assigns these itself, so SipHash's
/// resistance to crafted keys buys nothing and costs most of a lookup.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdHasher(u64);

impl IdHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A map keyed by simulator-assigned ids (causal ids, node and fragment
/// numbers), hashed with [`IdHasher`]: the commit→install joins of the
/// probes here and of span reconstruction. The determinism lint bans
/// `HashMap` for its per-process random hasher; this one's hasher is
/// fixed, so even its iteration order is a function of the insertions.
#[allow(clippy::disallowed_types)]
pub type IdMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A family of dimensioned probe keys, `<prefix>.<index>.<suffix>`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Dim {
    FragLag,
    FragQueue,
    FragMoveStall,
    FragUnavailWindow,
    NodeStaleness,
    NodeHoldback,
}

impl Dim {
    /// The family's `(prefix, suffix)`.
    fn parts(self) -> (&'static str, &'static str) {
        match self {
            Dim::FragLag => ("frag", "lag"),
            Dim::FragQueue => ("frag", "queue"),
            Dim::FragMoveStall => ("frag", "move_stall"),
            Dim::FragUnavailWindow => ("frag", "unavail_window"),
            Dim::NodeStaleness => ("node", "staleness"),
            Dim::NodeHoldback => ("node", "holdback"),
        }
    }
}

/// Interning cache for dimensioned metric keys (`frag.3.lag`,
/// `node.7.staleness`, …). The first observation of a `(family, index)`
/// pair formats and stores the key; every later observation reuses the
/// stored `String`, so steady-state emission performs no formatting and no
/// allocation.
#[derive(Debug, Default)]
struct DimKeys {
    cache: IdMap<(Dim, u32), String>,
    interned: u64,
}

impl DimKeys {
    /// The interned key for `dim` at `index`, formatting it only on first
    /// use.
    fn key(&mut self, dim: Dim, index: u32) -> &str {
        let interned = &mut self.interned;
        self.cache.entry((dim, index)).or_insert_with(|| {
            *interned += 1;
            let (prefix, suffix) = dim.parts();
            format!("{prefix}.{index}.{suffix}")
        })
    }

    /// How many distinct keys have been formatted so far. Tests pin this to
    /// assert steady-state observation allocates no new keys.
    fn interned(&self) -> u64 {
        self.interned
    }
}

/// Online probe state derived from the event stream.
///
/// Probes publish into [`Metrics`] under dimensioned keys:
///
/// * `frag.<f>.lag` — histogram of commit→install propagation lag (µs),
///   one observation per *remote* install (the paper's mutual-consistency
///   window, §4.3 discussion).
/// * `node.<n>.staleness` — histogram of `agent_seq − seen_seq` at each
///   read served by node `n` (how many updates behind the agent the read
///   ran, §4.1 vs §4.3 freshness).
/// * `node.<n>.holdback` — histogram of hold-back buffer depth at each
///   out-of-order arrival.
/// * `frag.<f>.queue` — histogram of submission queue depth behind a
///   move or a majority commit.
/// * `frag.<f>.move_stall` — histogram of token-movement stall time (µs),
///   `MoveRequested`→`TokenArrived` (§5 unavailability window). A move
///   aborted mid-flight (endpoint crash) **also** closes its window with
///   an observation — the stall was real — provided the abort names the
///   same `(from, to)` endpoints that opened it; a deferral of an
///   unrelated request for the same fragment does not.
/// * `frag.<f>.unavail_window` — histogram of self-heal unavailability
///   (µs), `ElectionStarted`→`TokenRecovered`; an election aborted because
///   the home proved alive discards the window (no recovery happened).
#[derive(Debug, Default)]
pub struct Probes {
    keys: DimKeys,
    commit_at: IdMap<CausalId, SimTime>,
    move_started: BTreeMap<u32, (SimTime, u32, u32)>,
    unavail_started: BTreeMap<u32, SimTime>,
    /// Merged commit→install lag across all fragments, recorded online at
    /// observation time — complete even after ring-buffer eviction, bounded
    /// memory at any cardinality. It equals the merge of the per-fragment
    /// `frag.<f>.lag` histograms. The benchmark of record reads its
    /// `lag_p50_us`/`lag_p99_us` from exact notification lags and this
    /// sketch only as the cross-check `sim.telemetry.lag_p99_us`.
    lag_sketch: QuantileSketch,
}

impl Probes {
    fn update(&mut self, at: SimTime, ev: &TelemetryEvent, metrics: &mut Metrics) {
        match ev {
            TelemetryEvent::Committed { cause, .. } => {
                self.commit_at.insert(*cause, at);
            }
            TelemetryEvent::Installed { cause, node: _ } => {
                if let Some(&t0) = self.commit_at.get(cause) {
                    // The agent home's own install records a zero lag, so
                    // the fault-free distribution is visibly zero rather
                    // than silently absent; remote installs measure the
                    // mutual-consistency window.
                    let lag = at.micros().saturating_sub(t0.micros());
                    let key = self.keys.key(Dim::FragLag, cause.fragment);
                    metrics.observe_named(key, lag);
                    self.lag_sketch.record(lag);
                }
            }
            TelemetryEvent::ReadObserved {
                node,
                seen_seq,
                agent_seq,
                ..
            } => {
                let staleness = agent_seq.saturating_sub(*seen_seq);
                let key = self.keys.key(Dim::NodeStaleness, *node);
                metrics.observe_named(key, staleness);
            }
            TelemetryEvent::HeldBack { node, depth, .. } => {
                let key = self.keys.key(Dim::NodeHoldback, *node);
                metrics.observe_named(key, *depth);
            }
            TelemetryEvent::SubmissionQueued { fragment, depth } => {
                let key = self.keys.key(Dim::FragQueue, *fragment);
                metrics.observe_named(key, *depth);
            }
            TelemetryEvent::MoveRequested { fragment, from, to } => {
                self.move_started
                    .entry(*fragment)
                    .or_insert((at, *from, *to));
            }
            TelemetryEvent::TokenArrived { fragment, .. } => {
                if let Some((t0, _, _)) = self.move_started.remove(fragment) {
                    let stall = at.micros().saturating_sub(t0.micros());
                    let key = self.keys.key(Dim::FragMoveStall, *fragment);
                    metrics.observe_named(key, stall);
                }
            }
            TelemetryEvent::MoveAborted { fragment, from, to } => {
                // Only the move that opened the window may close it: a
                // deferred *unrelated* request for the same fragment must
                // not swallow the in-flight move's stall measurement. The
                // matching abort observes the stall — the fragment really
                // was unavailable that long — instead of leaking it.
                if let Some(&(t0, f0, t0_to)) = self.move_started.get(fragment) {
                    if f0 == *from && t0_to == *to {
                        self.move_started.remove(fragment);
                        let stall = at.micros().saturating_sub(t0.micros());
                        let key = self.keys.key(Dim::FragMoveStall, *fragment);
                        metrics.observe_named(key, stall);
                    }
                }
            }
            TelemetryEvent::ElectionStarted { fragment, .. } => {
                self.unavail_started.entry(*fragment).or_insert(at);
            }
            TelemetryEvent::TokenRecovered { fragment, .. } => {
                if let Some(t0) = self.unavail_started.remove(fragment) {
                    let window = at.micros().saturating_sub(t0.micros());
                    let key = self.keys.key(Dim::FragUnavailWindow, *fragment);
                    metrics.observe_named(key, window);
                }
            }
            // A false suspicion (the home answered mid-election) never
            // made the fragment unavailable; timed-out rounds keep the
            // window open for the retry.
            TelemetryEvent::ElectionAborted {
                fragment,
                reason: "home_alive",
                ..
            } => {
                self.unavail_started.remove(fragment);
            }
            TelemetryEvent::BatchDiscarded { cause, .. } => {
                // The commit will never install anywhere else; close the
                // lag join so the causal id does not dangle.
                self.commit_at.remove(cause);
            }
            _ => {}
        }
    }

    /// Number of distinct dimensioned keys formatted so far.
    pub fn interned_keys(&self) -> u64 {
        self.keys.interned()
    }

    /// The merged commit→install lag sketch (all fragments, all installs
    /// joined so far). Exact in count/sum/min/max; quantiles within 2⁻⁵.
    pub fn lag_sketch(&self) -> &QuantileSketch {
        &self.lag_sketch
    }
}

/// Bounded, optionally-disabled structured event stream with online probes.
///
/// Disabled by default, closure-deferred emission (see `Engine::emit`),
/// bounded buffer with a drop counter.
#[derive(Debug)]
pub struct Telemetry {
    enabled: bool,
    cap: usize,
    dropped: u64,
    events: VecDeque<TelemetryRecord>,
    probes: Probes,
}

impl Telemetry {
    /// A stream that records nothing (the default for production runs).
    pub fn disabled() -> Self {
        Telemetry {
            enabled: false,
            cap: 0,
            dropped: 0,
            events: VecDeque::new(),
            probes: Probes::default(),
        }
    }

    /// A stream that keeps at most `cap` most-recent events. Probes are
    /// updated on every event regardless of eviction, so derived metrics
    /// stay exact even when the raw buffer wraps.
    pub fn bounded(cap: usize) -> Self {
        Telemetry {
            enabled: true,
            cap: cap.max(1),
            dropped: 0,
            events: VecDeque::new(),
            probes: Probes::default(),
        }
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Record an event: update probes, then buffer (evicting oldest-first
    /// past the cap). No-op when disabled — but callers should gate on
    /// [`Telemetry::is_enabled`] *before* constructing the event so hot
    /// paths pay a single branch (see `Engine::emit`).
    pub fn record(&mut self, at: SimTime, event: TelemetryEvent, metrics: &mut Metrics) {
        if !self.enabled {
            return;
        }
        self.probes.update(at, &event, metrics);
        if self.events.len() == self.cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(TelemetryRecord { at, event });
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TelemetryRecord> {
        self.events.iter()
    }

    /// How many events were evicted due to the cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Probe state (for key-interning assertions).
    pub fn probes(&self) -> &Probes {
        &self.probes
    }

    /// Render the retained events as JSON lines, newest last, preceded by a
    /// drop-marker comment line when the buffer wrapped (see the free
    /// function [`render_jsonl`]).
    pub fn render_jsonl(&self) -> String {
        render_jsonl(None, self.dropped, &self.events)
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A test value of a declared field type: its minimum or its maximum.
    pub(super) trait Sample {
        fn sample(max: bool) -> Self;
    }

    impl Sample for u64 {
        fn sample(max: bool) -> u64 {
            [0, u64::MAX][usize::from(max)]
        }
    }

    impl Sample for u32 {
        fn sample(max: bool) -> u32 {
            [0, u32::MAX][usize::from(max)]
        }
    }

    impl Sample for CausalId {
        fn sample(max: bool) -> CausalId {
            CausalId {
                fragment: Sample::sample(max),
                epoch: Sample::sample(max),
                frag_seq: Sample::sample(max),
            }
        }
    }

    fn cause(f: u32, seq: u64) -> CausalId {
        CausalId {
            fragment: f,
            epoch: 0,
            frag_seq: seq,
        }
    }

    #[test]
    fn disabled_stream_records_nothing() {
        let mut t = Telemetry::disabled();
        let mut m = Metrics::new();
        t.record(SimTime(1), TelemetryEvent::Crash { node: 0 }, &mut m);
        assert!(t.is_empty());
        assert!(!t.is_enabled());
        assert_eq!(m.counters().count(), 0);
    }

    #[test]
    fn bounded_stream_evicts_oldest_and_counts_drops() {
        let mut t = Telemetry::bounded(2);
        let mut m = Metrics::new();
        for n in 0..4 {
            t.record(SimTime(n), TelemetryEvent::Crash { node: n as u32 }, &mut m);
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 2);
        let nodes: Vec<u32> = t
            .events()
            .map(|r| match r.event {
                TelemetryEvent::Crash { node } => node,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(nodes, vec![2, 3]);
        assert!(t.render_jsonl().starts_with("# 2 earlier events dropped\n"));
    }

    #[test]
    fn lag_probe_joins_commit_to_install() {
        let mut t = Telemetry::bounded(16);
        let mut m = Metrics::new();
        let c = cause(3, 7);
        t.record(
            SimTime::from_millis(10),
            TelemetryEvent::Committed {
                cause: c,
                node: 0,
                txn_seq: 0,
            },
            &mut m,
        );
        t.record(
            SimTime::from_millis(10),
            TelemetryEvent::Installed { cause: c, node: 0 },
            &mut m,
        );
        t.record(
            SimTime::from_millis(35),
            TelemetryEvent::Installed { cause: c, node: 1 },
            &mut m,
        );
        let h = m.histogram("frag.3.lag").expect("lag histogram");
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(25_000));
    }

    #[test]
    fn staleness_probe_is_per_node() {
        let mut t = Telemetry::bounded(16);
        let mut m = Metrics::new();
        t.record(
            SimTime(1),
            TelemetryEvent::ReadObserved {
                node: 2,
                fragment: 0,
                seen_seq: 5,
                agent_seq: 9,
            },
            &mut m,
        );
        let h = m
            .histogram("node.2.staleness")
            .expect("staleness histogram");
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), Some(4));
    }

    #[test]
    fn move_stall_probe_spans_request_to_arrival() {
        let mut t = Telemetry::bounded(16);
        let mut m = Metrics::new();
        t.record(
            SimTime::from_secs(1),
            TelemetryEvent::MoveRequested {
                fragment: 1,
                from: 0,
                to: 2,
            },
            &mut m,
        );
        t.record(
            SimTime::from_secs(4),
            TelemetryEvent::TokenArrived {
                fragment: 1,
                node: 2,
            },
            &mut m,
        );
        let h = m.histogram("frag.1.move_stall").expect("stall histogram");
        assert_eq!(h.max(), Some(3_000_000));
        // A second arrival with no open request records nothing.
        t.record(
            SimTime::from_secs(5),
            TelemetryEvent::TokenArrived {
                fragment: 1,
                node: 0,
            },
            &mut m,
        );
        assert_eq!(m.histogram("frag.1.move_stall").unwrap().count(), 1);
    }

    #[test]
    fn move_stall_observed_not_leaked_on_matching_abort() {
        let mut t = Telemetry::bounded(16);
        let mut m = Metrics::new();
        t.record(
            SimTime::from_secs(1),
            TelemetryEvent::MoveRequested {
                fragment: 2,
                from: 0,
                to: 3,
            },
            &mut m,
        );
        // An unrelated deferred request (different endpoints) must not
        // close the in-flight move's window.
        t.record(
            SimTime::from_secs(2),
            TelemetryEvent::MoveAborted {
                fragment: 2,
                from: 3,
                to: 4,
            },
            &mut m,
        );
        assert!(m.histogram("frag.2.move_stall").is_none());
        // The matching abort (the opener crashed mid-move) closes the
        // window WITH an observation — emitted, not leaked.
        t.record(
            SimTime::from_secs(5),
            TelemetryEvent::MoveAborted {
                fragment: 2,
                from: 0,
                to: 3,
            },
            &mut m,
        );
        let h = m.histogram("frag.2.move_stall").expect("stall observed");
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), Some(4_000_000));
        // And the window is closed: a later arrival records nothing new.
        t.record(
            SimTime::from_secs(9),
            TelemetryEvent::TokenArrived {
                fragment: 2,
                node: 0,
            },
            &mut m,
        );
        assert_eq!(m.histogram("frag.2.move_stall").unwrap().count(), 1);
    }

    #[test]
    fn unavail_window_spans_election_to_recovery() {
        let mut t = Telemetry::bounded(16);
        let mut m = Metrics::new();
        t.record(
            SimTime::from_secs(1),
            TelemetryEvent::ElectionStarted {
                fragment: 0,
                epoch: 3,
                candidate: 1,
            },
            &mut m,
        );
        // A timed-out round keeps the window open for the retry.
        t.record(
            SimTime::from_secs(2),
            TelemetryEvent::ElectionAborted {
                fragment: 0,
                epoch: 3,
                reason: "timeout",
            },
            &mut m,
        );
        t.record(
            SimTime::from_secs(3),
            TelemetryEvent::ElectionStarted {
                fragment: 0,
                epoch: 3,
                candidate: 1,
            },
            &mut m,
        );
        t.record(
            SimTime::from_secs(4),
            TelemetryEvent::TokenRecovered {
                fragment: 0,
                epoch: 4,
                node: 1,
            },
            &mut m,
        );
        let h = m.histogram("frag.0.unavail_window").expect("window");
        assert_eq!(h.count(), 1);
        // Measured from the FIRST round, not the retry.
        assert_eq!(h.max(), Some(3_000_000));
        // A false suspicion discards the window entirely.
        t.record(
            SimTime::from_secs(10),
            TelemetryEvent::ElectionStarted {
                fragment: 0,
                epoch: 4,
                candidate: 2,
            },
            &mut m,
        );
        t.record(
            SimTime::from_secs(11),
            TelemetryEvent::ElectionAborted {
                fragment: 0,
                epoch: 4,
                reason: "home_alive",
            },
            &mut m,
        );
        t.record(
            SimTime::from_secs(20),
            TelemetryEvent::TokenRecovered {
                fragment: 0,
                epoch: 5,
                node: 2,
            },
            &mut m,
        );
        assert_eq!(m.histogram("frag.0.unavail_window").unwrap().count(), 1);
    }

    #[test]
    fn batch_discarded_closes_the_lag_join() {
        let mut t = Telemetry::bounded(16);
        let mut m = Metrics::new();
        let c = cause(1, 4);
        t.record(
            SimTime(0),
            TelemetryEvent::Committed {
                cause: c,
                node: 0,
                txn_seq: 0,
            },
            &mut m,
        );
        t.record(
            SimTime(10),
            TelemetryEvent::BatchDiscarded { cause: c, node: 0 },
            &mut m,
        );
        // A stray install after the discard joins to nothing.
        t.record(
            SimTime(99),
            TelemetryEvent::Installed { cause: c, node: 2 },
            &mut m,
        );
        assert!(m.histogram("frag.1.lag").is_none());
    }

    #[test]
    fn self_heal_events_serialize_flat() {
        let r = TelemetryRecord {
            at: SimTime::from_millis(2),
            event: TelemetryEvent::SuspectRaised {
                node: 1,
                suspect: 0,
            },
        };
        assert_eq!(
            r.to_json_line(),
            "{\"at_micros\":2000,\"event\":\"suspect_raised\",\"node\":1,\"suspect\":0}"
        );
        let r = TelemetryRecord {
            at: SimTime(7),
            event: TelemetryEvent::ElectionAborted {
                fragment: 3,
                epoch: 2,
                reason: "home_alive",
            },
        };
        assert_eq!(
            r.to_json_line(),
            "{\"at_micros\":7,\"event\":\"election_aborted\",\"fragment\":3,\"epoch\":2,\"reason\":\"home_alive\"}"
        );
        let r = TelemetryRecord {
            at: SimTime(8),
            event: TelemetryEvent::BatchDiscarded {
                cause: cause(2, 11),
                node: 4,
            },
        };
        assert_eq!(
            r.to_json_line(),
            "{\"at_micros\":8,\"event\":\"batch_discarded\",\"fragment\":2,\"epoch\":0,\"frag_seq\":11,\"node\":4}"
        );
    }

    #[test]
    fn dim_keys_intern_once() {
        let mut k = DimKeys::default();
        assert_eq!(k.key(Dim::FragLag, 3), "frag.3.lag");
        assert_eq!(k.key(Dim::FragLag, 3), "frag.3.lag");
        assert_eq!(k.key(Dim::NodeStaleness, 3), "node.3.staleness");
        assert_eq!(k.interned(), 2);
    }

    #[test]
    fn steady_state_observation_interns_no_new_keys() {
        let mut t = Telemetry::bounded(64);
        let mut m = Metrics::new();
        let warm = |t: &mut Telemetry, m: &mut Metrics, at: u64| {
            t.record(
                SimTime(at),
                TelemetryEvent::ReadObserved {
                    node: 1,
                    fragment: 0,
                    seen_seq: 0,
                    agent_seq: 1,
                },
                m,
            );
        };
        warm(&mut t, &mut m, 1);
        let after_first = t.probes().interned_keys();
        for i in 2..50 {
            warm(&mut t, &mut m, i);
        }
        assert_eq!(t.probes().interned_keys(), after_first);
        assert_eq!(m.histogram("node.1.staleness").unwrap().count(), 49);
    }

    #[test]
    fn json_lines_are_flat() {
        let r = TelemetryRecord {
            at: SimTime::from_millis(5),
            event: TelemetryEvent::Delivered {
                from: 1,
                to: 2,
                kind: "quasi",
            },
        };
        assert_eq!(
            r.to_json_line(),
            "{\"at_micros\":5000,\"event\":\"delivered\",\"from\":1,\"to\":2,\"kind\":\"quasi\"}"
        );
        let r = TelemetryRecord {
            at: SimTime(0),
            event: TelemetryEvent::Committed {
                cause: cause(2, 11),
                node: 4,
                txn_seq: 9,
            },
        };
        assert_eq!(
            r.to_json_line(),
            "{\"at_micros\":0,\"event\":\"committed\",\"fragment\":2,\"epoch\":0,\"frag_seq\":11,\"node\":4,\"txn_seq\":9}"
        );
        let r = TelemetryRecord {
            at: SimTime(3),
            event: TelemetryEvent::HeldBack {
                cause: cause(1, 6),
                node: 2,
                depth: 4,
            },
        };
        assert_eq!(
            r.to_json_line(),
            "{\"at_micros\":3,\"event\":\"held_back\",\"fragment\":1,\"epoch\":0,\"frag_seq\":6,\"node\":2,\"depth\":4}"
        );
    }

    /// The reader's verdict on `digits` written as a field: the value, or
    /// `None` for a refusal.
    fn read_number(digits: &str) -> Option<u64> {
        let field = format!(",\"x\":{digits}}}");
        let mut cur = Cursor { rest: &field };
        let value = cur.number(",\"x\":").ok()?;
        assert_eq!(cur.rest, "}", "{digits}: the reader stops after the digits");
        Some(value)
    }

    /// The integer writer and reader against `u64::to_string` and
    /// `str::parse`, at every boundary and over a seeded sweep.
    #[test]
    fn integer_codec_agrees_with_std_formatting_and_parsing() {
        let mut values = vec![0, 9, 10, u64::from(u32::MAX), u64::MAX];
        for k in 1..=19 {
            let p = 10u64.pow(k);
            values.extend([p - 1, p, p + 1]);
        }
        let mut rng = crate::rng::SimRng::new(42);
        for _ in 0..50_000 {
            // Every magnitude, not just the 19- and 20-digit values a
            // uniform u64 almost always is.
            let shift = rng.gen_range(0..64u32);
            values.push(rng.next_u64() >> shift);
        }
        for v in values {
            let mut line = Line::new();
            line.decimal(v);
            assert_eq!(line.as_str(), v.to_string());
            assert_eq!(read_number(&v.to_string()), Some(v));
        }

        // Any digit string: the reader accepts what `parse` accepts, minus
        // a leading zero, which the writer never produces.
        let mut digit_strings: Vec<String> = [
            "18446744073709551616",
            "18446744073709551619",
            "18446744073709551620",
            "99999999999999999999",
            "100000000000000000000",
            "00",
            "007",
        ]
        .map(String::from)
        .to_vec();
        for _ in 0..50_000 {
            let len = rng.gen_range(1..=22usize);
            digit_strings.push(
                (0..len)
                    .map(|_| char::from(b'0' + rng.gen_range(0..10u8)))
                    .collect(),
            );
        }
        for digits in digit_strings {
            let canonical = digits.len() == 1 || !digits.starts_with('0');
            let expected = digits.parse::<u64>().ok().filter(|_| canonical);
            assert_eq!(read_number(&digits), expected, "{digits}");
        }
    }

    #[test]
    fn every_variant_round_trips_through_the_codec() {
        for max in [false, true] {
            let events = TelemetryEvent::samples(max);
            // A new event must be declared in `telemetry_events!`, which is
            // what puts it in this list.
            assert_eq!(events.len(), 25);
            let mut names: Vec<&str> = events.iter().map(TelemetryEvent::name).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), events.len(), "wire names must be distinct");
            for event in events {
                let at = SimTime(if max { u64::MAX } else { 0 });
                let r = TelemetryRecord { at, event };
                let line = r.to_json_line();
                assert_eq!(TelemetryRecord::from_json_line(&line), Ok(r), "{line}");
            }
        }
        let r = TelemetryRecord {
            at: SimTime(u64::MAX),
            event: TelemetryEvent::Committed {
                cause: CausalId {
                    fragment: u32::MAX,
                    epoch: u64::MAX,
                    frag_seq: u64::MAX,
                },
                node: u32::MAX,
                txn_seq: u64::MAX,
            },
        };
        assert_eq!(
            r.to_json_line(),
            "{\"at_micros\":18446744073709551615,\"event\":\"committed\",\"fragment\":4294967295,\"epoch\":18446744073709551615,\"frag_seq\":18446744073709551615,\"node\":4294967295,\"txn_seq\":18446744073709551615}"
        );
    }

    #[test]
    fn render_and_read_agree_on_comments_and_scenarios() {
        let r = |at| TelemetryRecord {
            at: SimTime(at),
            event: TelemetryEvent::Crash { node: 1 },
        };
        let first = render_jsonl(Some(("a", "4.1")), 3, &[r(5), r(9)]);
        assert!(first.starts_with("# scenario: a section: 4.1\n# 3 earlier events dropped\n"));
        // A second header restarts virtual time.
        let text = first + &render_jsonl(Some(("b", "5")), 0, &[r(2)]);
        let mut entries = Vec::new();
        read_jsonl(&text, |e| {
            entries.push(e);
            Ok(())
        })
        .unwrap();
        use JsonlEntry::{Record, Scenario};
        assert_eq!(
            entries,
            [Scenario, Record(r(5)), Record(r(9)), Scenario, Record(r(2))]
        );
        // The visitor's error is reported with the line it was handed.
        let err = read_jsonl(&text, |e| match e {
            Scenario => Ok(()),
            Record(_) => Err("stop".to_string()),
        });
        assert_eq!(err, Err("line 3: stop".to_string()));
    }

    #[test]
    fn read_jsonl_splits_lines_as_str_lines_does() {
        let r = |at| TelemetryRecord {
            at: SimTime(at),
            event: TelemetryEvent::Crash { node: 1 },
        };
        let (a, b) = (r(1).to_json_line(), r(2).to_json_line());
        let read = |text: &str| {
            let mut entries = Vec::new();
            read_jsonl(text, |e| {
                entries.push(e);
                Ok(())
            })
            .map(|()| entries)
        };
        for text in [
            format!("{a}\r\n\r\n{b}"),
            format!("{a}\n\n{b}\n"),
            format!("{a}\r\n{b}\r\n"),
        ] {
            let expected = vec![JsonlEntry::Record(r(1)), JsonlEntry::Record(r(2))];
            assert_eq!(read(&text), Ok(expected), "{text:?}");
        }
        // A carriage return that ends no line belongs to it.
        let err = TelemetryRecord::from_json_line(&format!("{b}\r")).unwrap_err();
        assert_eq!(read(&format!("{a}\n{b}\r")), Err(format!("line 2: {err}")));
    }

    #[test]
    fn lock_pair_events_serialize_flat() {
        let r = TelemetryRecord {
            at: SimTime(10),
            event: TelemetryEvent::LockWaitStarted {
                node: 1,
                fragment: 2,
                txn_seq: 5,
                sites: 3,
            },
        };
        assert_eq!(
            r.to_json_line(),
            "{\"at_micros\":10,\"event\":\"lock_wait_started\",\"node\":1,\"fragment\":2,\"txn_seq\":5,\"sites\":3}"
        );
        let r = TelemetryRecord {
            at: SimTime(20),
            event: TelemetryEvent::LockGranted {
                node: 1,
                fragment: 2,
                txn_seq: 5,
            },
        };
        assert_eq!(
            r.to_json_line(),
            "{\"at_micros\":20,\"event\":\"lock_granted\",\"node\":1,\"fragment\":2,\"txn_seq\":5}"
        );
    }

    #[test]
    fn lag_sketch_tracks_the_probe_histograms() {
        let mut t = Telemetry::bounded(2); // tiny ring: eviction is constant
        let mut m = Metrics::new();
        for seq in 0..8u64 {
            let c = cause((seq % 2) as u32, seq);
            t.record(
                SimTime(1_000 * seq),
                TelemetryEvent::Committed {
                    cause: c,
                    node: 0,
                    txn_seq: seq,
                },
                &mut m,
            );
            t.record(
                SimTime(1_000 * seq + 250 * (seq + 1)),
                TelemetryEvent::Installed { cause: c, node: 1 },
                &mut m,
            );
        }
        // The merged sketch saw every install despite ring eviction, and
        // it equals the union of the per-frag histograms, moments and
        // every quantile.
        let s = t.probes().lag_sketch();
        let mut union = QuantileSketch::new();
        union.merge(m.histogram("frag.0.lag").unwrap());
        union.merge(m.histogram("frag.1.lag").unwrap());
        assert_eq!(s.count(), 8);
        assert_eq!(s.count(), union.count());
        assert_eq!(s.sum(), union.sum());
        assert_eq!(s.min(), union.min());
        assert_eq!(s.max(), union.max());
        for q in 0..=100 {
            let q = q as f64;
            assert_eq!(s.quantile(q), union.quantile(q), "q={q}");
        }
        assert!(t.dropped() > 0, "ring must actually have wrapped");
    }

    #[test]
    fn probes_survive_buffer_eviction() {
        // Cap of 1: every event is evicted immediately, yet derived metrics
        // keep counting.
        let mut t = Telemetry::bounded(1);
        let mut m = Metrics::new();
        let c = cause(0, 0);
        t.record(
            SimTime(0),
            TelemetryEvent::Committed {
                cause: c,
                node: 0,
                txn_seq: 0,
            },
            &mut m,
        );
        t.record(
            SimTime(9),
            TelemetryEvent::Installed { cause: c, node: 1 },
            &mut m,
        );
        assert_eq!(m.histogram("frag.0.lag").unwrap().count(), 1);
        assert_eq!(t.len(), 1);
        assert_eq!(t.dropped(), 1);
    }
}
