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
//! as truncated — counted, never silently dropped.

use std::collections::{BTreeMap, VecDeque};

use fragdb_sim::metrics::keys;
use fragdb_sim::telemetry::{read_jsonl, JsonlEntry};
use fragdb_sim::{CausalId, Metrics, QuantileSketch, TelemetryEvent, TelemetryRecord};

/// What the queue wait of a span was actually waiting on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueAttr {
    /// Ordinary busy-fragment wait (2PC / majority commit in progress).
    Wait,
    /// The wait overlapped an open token-move window (§4.4.2 stall).
    TokenMove,
    /// The wait overlapped an open election window (§5 outage).
    Election,
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
    /// The commit's batch was discarded by a home crash; the causal id's
    /// lifecycle closed without installs.
    Discarded,
}

/// One replica install joined to its commit.
#[derive(Clone, Copy, Debug)]
pub struct InstallLeg {
    /// Installing node.
    pub node: u32,
    /// Install time, µs.
    pub installed_at: u64,
    /// Arrival time, µs: the first `held_back` for this `(cause, node)`
    /// if any, else the install instant itself.
    pub arrived_at: u64,
    /// commit→arrival, µs (0 for the home leg and truncated spans).
    pub net_us: u64,
    /// arrival→install, µs (hold-back gap-fill time).
    pub holdback_us: u64,
    /// Whether the home→replica link retransmitted inside this leg's
    /// commit→install window.
    pub retransmitted: bool,
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

/// Span building state while the pass is still consuming events.
struct SpanBuild {
    span: CommitSpan,
    /// First `held_back` per node (arrival times).
    arrived: BTreeMap<u32, u64>,
    /// First `installed` per node.
    installed: BTreeMap<u32, u64>,
    discarded: bool,
    /// Pre-commit queue interval, re-checked against windows at finalize.
    queue_interval: Option<(u64, u64)>,
}

/// Aggregated reconstruction output over one event stream.
pub struct SpanReport {
    /// Every reconstructed span, ordered by causal id.
    pub spans: Vec<CommitSpan>,
    /// Spans whose commit-side events were evicted (status `Truncated`).
    pub truncated: u64,
    /// Spans discarded by a home crash before broadcast.
    pub discarded: u64,
    /// Spans with commit and full replica join.
    pub complete: u64,
    /// Spans with commit but missing installs at stream end.
    pub incomplete: u64,
    /// Per-phase duration sketches, keyed by phase name (the
    /// `sim::metrics::keys::SPAN_PHASES` vocabulary).
    pub phase: BTreeMap<&'static str, QuantileSketch>,
    /// Critical-path attribution: phase → (spans where it dominated the
    /// critical path, µs it contributed on those paths).
    pub critical: BTreeMap<&'static str, (u64, u128)>,
    /// Histogram source for `obs.critical_path.len`.
    pub critical_len: QuantileSketch,
}

/// FIFO / keyed pre-commit pairing state.
#[derive(Default)]
struct PreCommit {
    queued: BTreeMap<u32, VecDeque<u64>>,
    lock_open: BTreeMap<(u32, u64), u64>,
    lock_done: BTreeMap<(u32, u64), (u64, u64)>,
    init_open: BTreeMap<(u32, u64), InitCtx>,
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
    retrans: BTreeMap<(u32, u32), Vec<u64>>,
    builds: BTreeMap<CausalId, SpanBuild>,
    end_at: u64,
}

impl Pass {
    fn build(&mut self, cause: CausalId) -> &mut SpanBuild {
        self.builds.entry(cause).or_insert_with(|| SpanBuild {
            span: CommitSpan::new(cause),
            arrived: BTreeMap::new(),
            installed: BTreeMap::new(),
            discarded: false,
            queue_interval: None,
        })
    }

    /// Consume the next event of the (time-ordered) stream. Events spans
    /// do not use fall through the wildcard arm.
    fn feed(&mut self, r: &TelemetryRecord) {
        let at = r.at.micros();
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
                        b.queue_interval = Some((qs, qe));
                    }
                    debug_assert_eq!(init.fragment, cause.fragment);
                }
            }
            TelemetryEvent::BroadcastSent {
                cause, recipients, ..
            } => self.build(cause).span.recipients = Some(recipients),
            TelemetryEvent::HeldBack { cause, node, .. } => {
                self.build(cause).arrived.entry(node).or_insert(at);
            }
            TelemetryEvent::Installed { cause, node } => {
                self.build(cause).installed.entry(node).or_insert(at);
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
        SpanReport::finalize(self.builds, &self.win, &self.retrans)
    }
}

impl SpanReport {
    /// Reconstruct from the in-memory typed stream.
    pub fn from_records<'a>(records: impl IntoIterator<Item = &'a TelemetryRecord>) -> SpanReport {
        let mut pass = Pass::default();
        for r in records {
            pass.feed(r);
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

    fn finalize(
        builds: BTreeMap<CausalId, SpanBuild>,
        win: &Windows,
        retrans: &BTreeMap<(u32, u32), Vec<u64>>,
    ) -> SpanReport {
        let mut report = SpanReport {
            spans: Vec::with_capacity(builds.len()),
            truncated: 0,
            discarded: 0,
            complete: 0,
            incomplete: 0,
            phase: BTreeMap::new(),
            critical: BTreeMap::new(),
            critical_len: QuantileSketch::new(),
        };

        for (_, mut b) in builds {
            // Queue-wait attribution against the full window set.
            if let Some(iv) = b.queue_interval {
                b.span.queue_attr = win.attr(b.span.cause.fragment, iv);
            }

            // Assemble legs in node order (BTreeMap iteration).
            for (&node, &installed_at) in &b.installed {
                let is_home = b.span.commit_node == Some(node);
                let arrived_at = if is_home {
                    installed_at
                } else {
                    b.arrived
                        .get(&node)
                        .copied()
                        .filter(|&t| t <= installed_at)
                        .unwrap_or(installed_at)
                };
                let (net_us, retransmitted) = match (b.span.committed_at, b.span.commit_node) {
                    (Some(t0), Some(home)) if !is_home => {
                        let rt = retrans
                            .get(&(home, node))
                            .is_some_and(|ts| ts.iter().any(|&t| t0 < t && t <= installed_at));
                        (arrived_at.saturating_sub(t0), rt)
                    }
                    _ => (0, false),
                };
                b.span.legs.push(InstallLeg {
                    node,
                    installed_at,
                    arrived_at,
                    net_us,
                    holdback_us: installed_at - arrived_at,
                    retransmitted,
                });
            }

            // Status.
            b.span.status = if b.discarded {
                SpanStatus::Discarded
            } else if b.span.committed_at.is_none() {
                SpanStatus::Truncated
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
                SpanStatus::Discarded => report.discarded += 1,
            }

            report.observe_phases(&b.span);
            report.observe_critical(&b.span);
            report.spans.push(b.span);
        }
        report
    }

    /// The `span.phase.<p>` name the queue wait observes under.
    pub fn queue_phase_name(attr: QueueAttr) -> &'static str {
        match attr {
            QueueAttr::Wait => "queue",
            QueueAttr::TokenMove => "token_move",
            QueueAttr::Election => "election",
        }
    }

    /// The `(phase, duration)` observations one span contributes,
    /// identical for sketch aggregation and metrics publication.
    pub fn phase_observations(s: &CommitSpan) -> Vec<(&'static str, u64)> {
        let mut out = Vec::new();
        if s.committed_at.is_none() {
            // Truncated: only hold-back durations are trustworthy.
            for leg in &s.legs {
                out.push(("holdback", leg.holdback_us));
            }
            return out;
        }
        if s.initiated_at.is_some() {
            if s.queue_us > 0 || s.queue_attr != QueueAttr::Wait {
                out.push((Self::queue_phase_name(s.queue_attr), s.queue_us));
            }
            if s.lock_wait_us > 0 {
                out.push(("lock_wait", s.lock_wait_us));
            }
            out.push(("exec", s.exec_us));
        }
        for leg in &s.legs {
            let name = if leg.retransmitted {
                "retransmit"
            } else {
                "net"
            };
            out.push((name, leg.net_us));
            out.push(("holdback", leg.holdback_us));
        }
        out
    }

    fn observe_phases(&mut self, s: &CommitSpan) {
        for (name, us) in Self::phase_observations(s) {
            self.phase_entry(name).record(us);
        }
    }

    fn phase_entry(&mut self, name: &'static str) -> &mut QuantileSketch {
        self.phase.entry(name).or_default()
    }

    /// The ordered critical path of one span: the chain of phases ending
    /// at the **last** install, zero-duration segments dropped.
    pub fn critical_path(s: &CommitSpan) -> Vec<(&'static str, u64)> {
        if s.committed_at.is_none() {
            return Vec::new();
        }
        let mut path = Vec::new();
        if s.initiated_at.is_some() {
            path.push((Self::queue_phase_name(s.queue_attr), s.queue_us));
            path.push(("lock_wait", s.lock_wait_us));
            path.push(("exec", s.exec_us));
        }
        if let Some(last) = s.legs.iter().max_by_key(|l| (l.installed_at, l.node)) {
            let name = if last.retransmitted {
                "retransmit"
            } else {
                "net"
            };
            path.push((name, last.net_us));
            path.push(("holdback", last.holdback_us));
        }
        path.retain(|&(_, us)| us > 0);
        path
    }

    fn observe_critical(&mut self, s: &CommitSpan) {
        if s.committed_at.is_none() {
            return;
        }
        let path = Self::critical_path(s);
        self.critical_len.record(path.len() as u64);
        // The dominant phase: max duration, earliest-in-pipeline on ties
        // (`max_by_key` keeps the last max, so scan reversed).
        if let Some(&(name, us)) = path.iter().rev().max_by_key(|&&(_, us)| us) {
            let e = self.critical.entry(name).or_insert((0, 0));
            e.0 += 1;
            e.1 += u128::from(us);
        }
    }

    /// Publish span-derived metrics under their registered keys:
    /// `telemetry.spans_truncated`, `obs.critical_path.len`, and one
    /// `span.phase.<p>` histogram per observed phase.
    pub fn publish(&self, metrics: &mut Metrics) {
        metrics.set(keys::TELEMETRY_SPANS_TRUNCATED, self.truncated);
        for s in &self.spans {
            if s.committed_at.is_some() {
                let len = Self::critical_path(s).len() as u64;
                metrics.observe(keys::OBS_CRITICAL_PATH_LEN, len);
            }
            for (name, us) in Self::phase_observations(s) {
                let key = format!("span.phase.{name}");
                debug_assert!(keys::is_registered(&key), "{key} must be registered");
                metrics.observe(key, us);
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
