//! Per-commit span reconstruction.
//!
//! A single forward pass over the (time-ordered) event stream groups
//! events by causal id into [`CommitSpan`]s:
//!
//! ```text
//! submission_queued ─┐
//!                    ├ queue wait        (fragment-FIFO pairing)
//! initiated ─────────┤
//!   lock_wait_started├ lock wait         ((node, txn_seq) pairing)
//!   lock_granted ────┤
//!                    ├ exec              (initiated→committed − lock wait)
//! committed ─────────┼──────────────── one leg per replica ───┐
//!                    │  net   (committed→arrival; arrival =   │
//!                    │         held_back time if any, else     │
//!                    │         the install itself)             │
//!                    │  holdback (arrival→installed)           │
//! installed ─────────┴──────────────────────────────────────────┘
//! ```
//!
//! Pre-commit pairing is exact where the emitter gives exact keys
//! (`(node, txn_seq)` for initiation/locks) and documented-approximate
//! where it cannot (`submission_queued` carries no transaction id, so
//! queue exits pair FIFO per fragment — correct because the drain *is*
//! FIFO, ambiguous only when an unrelated submission initiates on the
//! same fragment inside the same drain instant). Spans whose commit-side
//! events were evicted by the telemetry ring are reported **explicitly**
//! as truncated — counted, never silently dropped — and a §4.4.1 prepare
//! whose home crashed before committing is reported as uncommitted, not
//! mistaken for one.

use std::borrow::Borrow;
use std::collections::{BTreeMap, VecDeque};

use fragdb_sim::metrics::keys::{slot, SpanPhase as Phase};
use fragdb_sim::metrics::HistKey;
use fragdb_sim::telemetry::{read_jsonl, IdMap, JsonlEntry};
use fragdb_sim::{CausalId, Metrics, QuantileSketch, TelemetryEvent, TelemetryRecord};

/// What the queue wait of a span was actually waiting on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueAttr {
    /// Ordinary busy-fragment wait (majority commit in progress).
    Wait,
    /// The wait overlapped an open token-move window (§4.4.2 stall).
    TokenMove,
    /// The wait overlapped an open election window (§5 outage).
    Election,
}

/// The phase a queue wait with attribution `attr` observes under.
fn queue_phase(attr: QueueAttr) -> Phase {
    match attr {
        QueueAttr::Wait => Phase::Queue,
        QueueAttr::TokenMove => Phase::TokenMove,
        QueueAttr::Election => Phase::Election,
    }
}

/// The phase a leg's network time observes under.
fn net_phase(leg: &InstallLeg) -> Phase {
    if leg.retransmitted {
        Phase::Retransmit
    } else {
        Phase::Net
    }
}

/// Reconstruction status of one span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanStatus {
    /// Commit seen and every expected replica install joined.
    Complete,
    /// Commit seen, but fewer installs than `recipients + 1` (drops still
    /// outstanding at stream end, or install events evicted).
    Incomplete,
    /// Install-side events exist but the commit itself was evicted by the
    /// telemetry ring — only hold-back durations are recoverable.
    Truncated,
    /// A §4.4.1 prepare was broadcast but never committed: its home
    /// crashed in between. Installs, if any, are the elected home's
    /// resurrection of the staged entry; as for a truncated span, only
    /// hold-back durations are recoverable.
    Uncommitted,
    /// The commit's batch was discarded by a home crash; the causal id's
    /// lifecycle closed without installs.
    Discarded,
}

/// One replica install joined to its commit. A leg keeps only what it
/// cannot derive: its hold-back time is [`InstallLeg::holdback_us`] and
/// its network time [`CommitSpan::net_us`].
#[derive(Clone, Copy, Debug)]
pub struct InstallLeg {
    /// Installing node.
    pub node: u32,
    /// Whether the home→replica link retransmitted inside this leg's
    /// commit→install window.
    pub retransmitted: bool,
    /// Install time, µs.
    pub installed_at: u64,
    /// Arrival time, µs: the first `held_back` for this `(cause, node)`
    /// if any, else the install instant itself.
    pub arrived_at: u64,
}

impl InstallLeg {
    /// arrival→install, µs (hold-back gap-fill time).
    pub fn holdback_us(&self) -> u64 {
        self.installed_at - self.arrived_at
    }
}

/// One reconstructed per-commit span.
#[derive(Clone, Debug)]
pub struct CommitSpan {
    /// Causal id grouping every event of this span.
    pub cause: CausalId,
    /// Committing node (the agent home), if the commit was seen.
    pub commit_node: Option<u32>,
    /// Commit time, µs, if the commit was seen.
    pub committed_at: Option<u64>,
    /// Initiation time, µs, when the `(node, txn_seq)` join found it.
    pub initiated_at: Option<u64>,
    /// Queue wait before initiation, µs, when the FIFO join found one.
    pub queue_us: u64,
    /// What the queue wait overlapped (meaningful when `queue_us > 0`).
    pub queue_attr: QueueAttr,
    /// §4.1 lock-wait duration, µs, when the lock pair was seen.
    pub lock_wait_us: u64,
    /// initiated→committed minus lock wait, µs.
    pub exec_us: u64,
    /// Remote recipients addressed by the broadcast, if seen.
    pub recipients: Option<u32>,
    /// Joined install legs, keyed and ordered by node.
    pub legs: Vec<InstallLeg>,
    /// Reconstruction status.
    pub status: SpanStatus,
}

impl CommitSpan {
    /// commit→arrival of `leg`, µs: 0 for the home leg and for a span
    /// whose commit was not seen.
    pub fn net_us(&self, leg: &InstallLeg) -> u64 {
        match (self.committed_at, self.commit_node) {
            (Some(t0), Some(home)) if leg.node != home => leg.arrived_at.saturating_sub(t0),
            _ => 0,
        }
    }

    fn new(cause: CausalId) -> Self {
        CommitSpan {
            cause,
            commit_node: None,
            committed_at: None,
            initiated_at: None,
            queue_us: 0,
            queue_attr: QueueAttr::Wait,
            lock_wait_us: 0,
            exec_us: 0,
            recipients: None,
            legs: Vec::new(),
            status: SpanStatus::Truncated,
        }
    }
}

/// Pre-commit context captured at initiation, waiting for its commit.
#[derive(Clone, Copy)]
struct InitCtx {
    at: u64,
    queue_interval: Option<(u64, u64)>,
    fragment: u32,
}

/// Span building state while the pass is still consuming events. Until
/// finalize, `span.legs` holds one leg per `installed` event in stream
/// order, only `node` and `installed_at` filled in. What few spans have
/// (held-back arrivals, a queue interval) lives in [`Pass`]'s side
/// tables.
struct SpanBuild {
    span: CommitSpan,
    /// Instant of the `broadcast_sent`, if seen.
    broadcast_at: Option<u64>,
    discarded: bool,
}

/// Aggregated reconstruction output over one event stream.
pub struct SpanReport {
    /// Every reconstructed span, ordered by causal id.
    pub spans: Vec<CommitSpan>,
    /// Spans whose commit-side events were evicted (status `Truncated`).
    pub truncated: u64,
    /// Prepares whose home crashed before the commit (status
    /// `Uncommitted`).
    pub uncommitted: u64,
    /// Spans discarded by a home crash before broadcast.
    pub discarded: u64,
    /// Spans with commit and full replica join.
    pub complete: u64,
    /// Spans with commit but missing installs at stream end.
    pub incomplete: u64,
    /// Per-phase duration sketches, keyed by phase name (the
    /// `sim::metrics::keys::SpanPhase` vocabulary).
    pub phase: BTreeMap<&'static str, QuantileSketch>,
    /// Critical-path attribution: phase → (spans where it dominated the
    /// critical path, µs it contributed on those paths).
    pub critical: BTreeMap<&'static str, (u64, u128)>,
    /// Sketch behind the `obs.critical_path.len` histogram.
    pub critical_len: QuantileSketch,
}

/// FIFO / keyed pre-commit pairing state.
#[derive(Default)]
struct PreCommit {
    queued: BTreeMap<u32, VecDeque<u64>>,
    lock_open: IdMap<(u32, u64), u64>,
    lock_done: IdMap<(u32, u64), (u64, u64)>,
    init_open: IdMap<(u32, u64), InitCtx>,
}

/// Move / election windows per fragment, for queue-wait attribution.
#[derive(Default)]
struct Windows {
    open_move: BTreeMap<u32, u64>,
    moves: BTreeMap<u32, Vec<(u64, u64)>>,
    open_elec: BTreeMap<u32, u64>,
    elecs: BTreeMap<u32, Vec<(u64, u64)>>,
}

impl Windows {
    fn close_open(&mut self, end: u64) {
        for (f, t0) in std::mem::take(&mut self.open_move) {
            self.moves.entry(f).or_default().push((t0, end));
        }
        for (f, t0) in std::mem::take(&mut self.open_elec) {
            self.elecs.entry(f).or_default().push((t0, end));
        }
    }

    fn attr(&self, fragment: u32, interval: (u64, u64)) -> QueueAttr {
        let overlaps = |windows: Option<&Vec<(u64, u64)>>| {
            windows.is_some_and(|ws| ws.iter().any(|&(s, e)| interval.0 <= e && s <= interval.1))
        };
        // Elections imply a §5 outage — the stronger explanation wins.
        if overlaps(self.elecs.get(&fragment)) {
            QueueAttr::Election
        } else if overlaps(self.moves.get(&fragment)) {
            QueueAttr::TokenMove
        } else {
            QueueAttr::Wait
        }
    }
}

/// The forward pass: everything reconstruction remembers between events.
#[derive(Default)]
struct Pass {
    pre: PreCommit,
    win: Windows,
    /// NACK-repair instants per `(from, to)` link.
    retrans: IdMap<(u32, u32), Vec<u64>>,
    /// Spans under construction, in order of first sight.
    builds: Vec<SpanBuild>,
    /// Each causal id's position in `builds`.
    index: IdMap<CausalId, usize>,
    /// `(node, instant)` of every `held_back`, in stream order, for the
    /// spans that have one. Keyed by causal id rather than position: the
    /// builds are sorted before they are finalized.
    arrived: IdMap<CausalId, Vec<(u32, u64)>>,
    /// Pre-commit queue interval of a queued submission's span,
    /// re-checked against windows at finalize.
    queued: IdMap<CausalId, (u64, u64)>,
    /// Instant of the first event, once one is seen.
    start_at: Option<u64>,
    end_at: u64,
}

impl Pass {
    fn build(&mut self, cause: CausalId) -> &mut SpanBuild {
        let builds = &mut self.builds;
        let i = *self.index.entry(cause).or_insert_with(|| {
            builds.push(SpanBuild {
                span: CommitSpan::new(cause),
                broadcast_at: None,
                discarded: false,
            });
            builds.len() - 1
        });
        &mut builds[i]
    }

    /// Consume the next event of the (time-ordered) stream. Events spans
    /// do not use fall through the wildcard arm.
    fn feed(&mut self, r: &TelemetryRecord) {
        let at = r.at.micros();
        self.start_at.get_or_insert(at);
        self.end_at = self.end_at.max(at);
        let (pre, win) = (&mut self.pre, &mut self.win);
        match r.event {
            TelemetryEvent::SubmissionQueued { fragment, .. } => {
                pre.queued.entry(fragment).or_default().push_back(at);
            }
            TelemetryEvent::Initiated {
                node,
                fragment,
                txn_seq,
            } => {
                let queue_interval = pre
                    .queued
                    .get_mut(&fragment)
                    .and_then(VecDeque::pop_front)
                    .map(|t0| (t0, at));
                pre.init_open.insert(
                    (node, txn_seq),
                    InitCtx {
                        at,
                        queue_interval,
                        fragment,
                    },
                );
            }
            TelemetryEvent::LockWaitStarted { node, txn_seq, .. } => {
                pre.lock_open.insert((node, txn_seq), at);
            }
            TelemetryEvent::LockGranted { node, txn_seq, .. } => {
                if let Some(t0) = pre.lock_open.remove(&(node, txn_seq)) {
                    pre.lock_done.insert((node, txn_seq), (t0, at));
                }
            }
            TelemetryEvent::Aborted {
                node,
                fragment,
                txn_seq,
                ..
            } => {
                pre.lock_open.remove(&(node, txn_seq));
                pre.lock_done.remove(&(node, txn_seq));
                if pre.init_open.remove(&(node, txn_seq)).is_none() {
                    // Aborted before initiation (home down): if the
                    // submission had been parked in the fragment's
                    // queue, retire its FIFO entry so it cannot
                    // mis-pair with the next initiation.
                    if let Some(q) = pre.queued.get_mut(&fragment) {
                        q.pop_front();
                    }
                }
            }
            TelemetryEvent::Committed {
                cause,
                node,
                txn_seq,
            } => {
                let lock = pre.lock_done.remove(&(node, txn_seq));
                let init = pre.init_open.remove(&(node, txn_seq));
                let b = self.build(cause);
                b.span.commit_node = Some(node);
                b.span.committed_at = Some(at);
                if let Some((t0, t1)) = lock {
                    b.span.lock_wait_us = t1 - t0;
                }
                if let Some(init) = init {
                    b.span.initiated_at = Some(init.at);
                    b.span.exec_us = (at - init.at).saturating_sub(b.span.lock_wait_us);
                    if let Some((qs, qe)) = init.queue_interval {
                        b.span.queue_us = qe - qs;
                        self.queued.insert(cause, (qs, qe));
                    }
                    debug_assert_eq!(init.fragment, cause.fragment);
                }
            }
            TelemetryEvent::BroadcastSent {
                cause, recipients, ..
            } => {
                let b = self.build(cause);
                b.span.recipients = Some(recipients);
                b.broadcast_at = Some(at);
                // Room for every install the broadcast leads to, the
                // home's included. Only a hint: a forged count in an
                // export must not abort the reader.
                let legs = &mut b.span.legs;
                let _ =
                    legs.try_reserve_exact((recipients as usize + 1).saturating_sub(legs.len()));
            }
            TelemetryEvent::HeldBack { cause, node, .. } => {
                self.build(cause);
                self.arrived.entry(cause).or_default().push((node, at));
            }
            TelemetryEvent::Installed { cause, node } => {
                self.build(cause).span.legs.push(InstallLeg {
                    node,
                    retransmitted: false,
                    installed_at: at,
                    arrived_at: at,
                });
            }
            TelemetryEvent::BatchDiscarded { cause, .. } => self.build(cause).discarded = true,
            TelemetryEvent::Retransmit { from, to, .. } => {
                self.retrans.entry((from, to)).or_default().push(at);
            }
            TelemetryEvent::MoveRequested { fragment, .. } => {
                win.open_move.entry(fragment).or_insert(at);
            }
            TelemetryEvent::TokenArrived { fragment, .. }
            | TelemetryEvent::MoveAborted { fragment, .. } => {
                if let Some(t0) = win.open_move.remove(&fragment) {
                    win.moves.entry(fragment).or_default().push((t0, at));
                }
            }
            TelemetryEvent::ElectionStarted { fragment, .. } => {
                win.open_elec.entry(fragment).or_insert(at);
            }
            TelemetryEvent::TokenRecovered { fragment, .. } => {
                if let Some(t0) = win.open_elec.remove(&fragment) {
                    win.elecs.entry(fragment).or_default().push((t0, at));
                }
            }
            // A false suspicion never made the fragment unavailable.
            TelemetryEvent::ElectionAborted {
                fragment,
                reason: "home_alive",
                ..
            } => {
                win.open_elec.remove(&fragment);
            }
            _ => {}
        }
    }

    fn finish(mut self) -> SpanReport {
        self.win.close_open(self.end_at);
        // Sorted, each link's repair instants answer "any repair inside
        // this window?" by binary search, whatever order they came in.
        for instants in self.retrans.values_mut() {
            instants.sort_unstable();
        }
        drop(self.index);
        self.builds.sort_unstable_by_key(|b| b.span.cause);
        SpanReport::finalize(
            self.builds,
            self.start_at,
            &self.win,
            &self.retrans,
            &self.arrived,
            &self.queued,
        )
    }
}

impl SpanReport {
    /// Reconstruct from the in-memory typed stream: records by reference,
    /// or by value as `Telemetry::events` unpacks them.
    pub fn from_records(records: impl IntoIterator<Item: Borrow<TelemetryRecord>>) -> SpanReport {
        let mut pass = Pass::default();
        for r in records {
            pass.feed(r.borrow());
        }
        pass.finish()
    }

    /// Reconstruct from a JSONL export, record by record as the lines
    /// decode: same output as [`SpanReport::from_records`] over the run
    /// that produced it. The file must be a valid export
    /// ([`fragdb_sim::telemetry::read_jsonl`]) of **one** run: causal ids
    /// restart with every run, so a second `# scenario:` header is an
    /// error rather than a silent merge.
    pub fn from_jsonl(text: &str) -> Result<SpanReport, String> {
        let mut pass = Pass::default();
        let mut runs = 0;
        read_jsonl(text, |entry| {
            match entry {
                JsonlEntry::Record(r) => pass.feed(&r),
                JsonlEntry::Scenario => {
                    runs += 1;
                    if runs > 1 {
                        return Err(
                            "second `# scenario:` header: spans need one run per file".to_string()
                        );
                    }
                }
            }
            Ok(())
        })?;
        Ok(pass.finish())
    }

    /// Turn the builds, in causal-id order, into the report. `start_at` is
    /// the instant of the stream's first event; `arrived` and `queued` are
    /// the pass's side tables.
    fn finalize(
        builds: Vec<SpanBuild>,
        start_at: Option<u64>,
        win: &Windows,
        retrans: &IdMap<(u32, u32), Vec<u64>>,
        arrived: &IdMap<CausalId, Vec<(u32, u64)>>,
        queued: &IdMap<CausalId, (u64, u64)>,
    ) -> SpanReport {
        let mut report = SpanReport {
            spans: Vec::new(),
            truncated: 0,
            uncommitted: 0,
            discarded: 0,
            complete: 0,
            incomplete: 0,
            phase: BTreeMap::new(),
            critical: BTreeMap::new(),
            critical_len: QuantileSketch::new(),
        };
        // Per phase: its duration sketch, and (spans it dominated, µs).
        let mut phase: [QuantileSketch; Phase::ALL.len()] = Default::default();
        let mut critical = [(0u64, 0u128); Phase::ALL.len()];

        // Mapped rather than pushed, so the spans reuse the builds' memory
        // instead of holding a second copy of every span at the peak.
        let builds = builds.into_iter().map(|mut b| {
            // Queue-wait attribution against the full window set.
            let cause = b.span.cause;
            if let Some(&iv) = queued.get(&cause) {
                b.span.queue_attr = win.attr(cause.fragment, iv);
            }

            // One leg per node, in node order: the stable sort keeps each
            // node's first install ahead of any later one.
            let (committed_at, commit_node) = (b.span.committed_at, b.span.commit_node);
            let legs = &mut b.span.legs;
            legs.sort_by_key(|leg| leg.node);
            legs.dedup_by_key(|leg| leg.node);
            for leg in legs.iter_mut() {
                let (node, installed_at) = (leg.node, leg.installed_at);
                let is_home = commit_node == Some(node);
                if !is_home {
                    leg.arrived_at = (arrived.get(&cause).into_iter().flatten())
                        .find(|&&(n, _)| n == node)
                        .map(|&(_, t)| t)
                        .filter(|&t| t <= installed_at)
                        .unwrap_or(installed_at);
                }
                if let (Some(t0), Some(home)) = (committed_at, commit_node) {
                    if !is_home {
                        // The first repair after the commit, if any, must
                        // come no later than the install.
                        leg.retransmitted = retrans.get(&(home, node)).is_some_and(|ts| {
                            let after = ts.partition_point(|&t| t <= t0);
                            ts.get(after).is_some_and(|&t| t <= installed_at)
                        });
                    }
                }
            }

            // Status. Ring eviction removes a prefix of the stream, and a
            // commit is emitted at its broadcast's instant or, for a
            // §4.4.1 prepare, after it; so a broadcast later than the
            // stream's first instant whose commit is missing never had one.
            b.span.status = if b.discarded {
                SpanStatus::Discarded
            } else if b.span.committed_at.is_none() {
                if b.broadcast_at.zip(start_at).is_some_and(|(t, s)| t > s) {
                    SpanStatus::Uncommitted
                } else {
                    SpanStatus::Truncated
                }
            } else {
                let expected = b.span.recipients.map(|r| r as usize + 1);
                match expected {
                    Some(e) if b.span.legs.len() < e => SpanStatus::Incomplete,
                    _ => SpanStatus::Complete,
                }
            };
            match b.span.status {
                SpanStatus::Complete => report.complete += 1,
                SpanStatus::Incomplete => report.incomplete += 1,
                SpanStatus::Truncated => report.truncated += 1,
                SpanStatus::Uncommitted => report.uncommitted += 1,
                SpanStatus::Discarded => report.discarded += 1,
            }

            Self::phases(&b.span, |p, us| phase[p as usize].record(us));
            if b.span.committed_at.is_some() {
                // The dominant phase: max duration, earliest-in-pipeline
                // on ties.
                let mut len = 0;
                let mut dominant: Option<(Phase, u64)> = None;
                for (p, us) in Self::critical_segments(&b.span) {
                    len += 1;
                    if dominant.is_none_or(|(_, most)| us > most) {
                        dominant = Some((p, us));
                    }
                }
                report.critical_len.record(len);
                if let Some((p, us)) = dominant {
                    critical[p as usize].0 += 1;
                    critical[p as usize].1 += u128::from(us);
                }
            }
            b.span
        });
        report.spans = builds.collect();
        for ((&p, sketch), dominated) in Phase::ALL.iter().zip(phase).zip(critical) {
            if !sketch.is_empty() {
                report.phase.insert(p.name(), sketch);
            }
            if dominated.0 > 0 {
                report.critical.insert(p.name(), dominated);
            }
        }
        report
    }

    /// Hand `observe` the `(phase, duration)` observations one span
    /// contributes.
    fn phases(s: &CommitSpan, mut observe: impl FnMut(Phase, u64)) {
        if s.committed_at.is_none() {
            // Truncated or uncommitted: only hold-back durations are
            // trustworthy.
            for leg in &s.legs {
                observe(Phase::Holdback, leg.holdback_us());
            }
            return;
        }
        if s.initiated_at.is_some() {
            if s.queue_us > 0 || s.queue_attr != QueueAttr::Wait {
                observe(queue_phase(s.queue_attr), s.queue_us);
            }
            if s.lock_wait_us > 0 {
                observe(Phase::LockWait, s.lock_wait_us);
            }
            observe(Phase::Exec, s.exec_us);
        }
        for leg in &s.legs {
            observe(net_phase(leg), s.net_us(leg));
            observe(Phase::Holdback, leg.holdback_us());
        }
    }

    /// The segments of [`SpanReport::critical_path`], in pipeline order.
    fn critical_segments(s: &CommitSpan) -> impl Iterator<Item = (Phase, u64)> {
        let committed = s.committed_at.is_some();
        let pre = (committed && s.initiated_at.is_some()).then(|| {
            [
                (queue_phase(s.queue_attr), s.queue_us),
                (Phase::LockWait, s.lock_wait_us),
                (Phase::Exec, s.exec_us),
            ]
        });
        let last = s
            .legs
            .iter()
            .max_by_key(|l| (l.installed_at, l.node))
            .filter(|_| committed)
            .map(|last| {
                [
                    (net_phase(last), s.net_us(last)),
                    (Phase::Holdback, last.holdback_us()),
                ]
            });
        pre.into_iter()
            .flatten()
            .chain(last.into_iter().flatten())
            .filter(|&(_, us)| us > 0)
    }

    /// The ordered critical path of one span: the chain of phases ending
    /// at the **last** install, zero-duration segments dropped.
    pub fn critical_path(s: &CommitSpan) -> Vec<(&'static str, u64)> {
        Self::critical_segments(s)
            .map(|(p, us)| (p.name(), us))
            .collect()
    }

    /// Publish span-derived metrics: `telemetry.spans_truncated`, and
    /// the `obs.critical_path.len` and `span.phase.<p>` sketches built with
    /// the report, merged as they are (a merge is exact).
    pub fn publish(&self, metrics: &mut Metrics) {
        metrics.set(slot::TELEMETRY_SPANS_TRUNCATED, self.truncated);
        metrics.merge(slot::OBS_CRITICAL_PATH_LEN, &self.critical_len);
        for &p in Phase::ALL {
            if let Some(sketch) = self.phase.get(p.name()) {
                metrics.merge(HistKey::Phase(p), sketch);
            }
        }
    }

    /// Total spans reconstructed.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when no spans were reconstructed.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Quantile (`q` in `[0, 100]`) of one phase's duration sketch, 0
    /// when the phase never occurred.
    pub fn phase_quantile(&self, phase: &str, q: f64) -> u64 {
        self.phase
            .get(phase)
            .and_then(|s| s.quantile(q))
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    /// A build is its span, the broadcast instant and a flag: held-back
    /// arrivals and queue intervals live in the pass's side tables.
    #[test]
    fn a_span_build_is_152_bytes() {
        assert_eq!(std::mem::size_of::<super::CommitSpan>(), 128);
        assert_eq!(std::mem::size_of::<super::SpanBuild>(), 152);
    }
}
