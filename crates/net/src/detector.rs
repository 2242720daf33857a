//! Deterministic heartbeat failure detection.
//!
//! The paper (§4.4, §5) assumes an operator notices a dead agent home and
//! triggers recovery by hand. This module supplies the mechanical
//! replacement: every node broadcasts a periodic heartbeat over the
//! reliable layer, and every node runs one `FailureDetector` instance —
//! its *local view* of peer liveness. A peer that stays silent for more
//! than `suspect_after` heartbeat periods is **suspected**; suspicion is
//! advisory (it feeds the quorum election in fragdb-core, which is what
//! actually decides), so a false suspicion of a slow-but-alive peer is
//! safe — it costs at most an aborted election round.
//!
//! Like the rest of the crate the detector is engine-agnostic and purely
//! deterministic: it owns no timers and samples no clocks. The caller
//! feeds it observed beats (`heard`) and polls it on its own schedule
//! (`tick`), both stamped with virtual [`SimTime`], so two same-seed runs
//! suspect the same peers at the same instants.

use std::collections::BTreeMap;

use fragdb_model::NodeId;
use fragdb_sim::{SimDuration, SimTime};

/// One node's local view of which peers are alive.
#[derive(Clone, Debug)]
pub struct FailureDetector {
    /// Heartbeat broadcast period (shared, from config).
    period: SimDuration,
    /// Consecutive silent periods before suspecting a peer.
    suspect_after: u32,
    /// Tracked peers and when each was last heard from.
    peers: BTreeMap<NodeId, PeerView>,
}

#[derive(Clone, Debug)]
struct PeerView {
    last_heard: SimTime,
    suspected: bool,
}

impl FailureDetector {
    /// A detector suspecting peers silent for more than
    /// `suspect_after × period`.
    pub fn new(period: SimDuration, suspect_after: u32) -> Self {
        FailureDetector {
            period,
            suspect_after: suspect_after.max(1),
            peers: BTreeMap::new(),
        }
    }

    /// Start (or restart) tracking `peer`, granting it a full silence
    /// allowance from `now`. Used at startup and when the *observer*
    /// itself recovers from a crash — its stale liveness view must not
    /// produce instant suspicions.
    pub fn track(&mut self, peer: NodeId, now: SimTime) {
        self.peers.insert(
            peer,
            PeerView {
                last_heard: now,
                suspected: false,
            },
        );
    }

    /// Record a heartbeat (or any authenticated traffic) from `peer`.
    /// Returns `true` when this clears a standing suspicion — the caller
    /// uses that to abort an election the peer's silence started.
    pub fn heard(&mut self, peer: NodeId, now: SimTime) -> bool {
        match self.peers.get_mut(&peer) {
            Some(view) => {
                let was = view.suspected;
                view.last_heard = now;
                view.suspected = false;
                was
            }
            None => {
                self.track(peer, now);
                false
            }
        }
    }

    /// The silence threshold: peers quiet longer than this are suspected.
    pub fn suspicion_threshold(&self) -> SimDuration {
        SimDuration::from_micros(self.period.micros() * u64::from(self.suspect_after))
    }

    /// Sweep the roster at `now`; returns peers **newly** suspected by
    /// this sweep, in ascending node order (deterministic). Already-
    /// suspected peers are not re-reported.
    pub fn tick(&mut self, now: SimTime) -> Vec<NodeId> {
        let threshold = self.suspicion_threshold();
        let mut newly = Vec::new();
        for (&peer, view) in &mut self.peers {
            if !view.suspected && now.since(view.last_heard) > threshold {
                view.suspected = true;
                newly.push(peer);
            }
        }
        newly
    }

    /// Is `peer` currently suspected?
    pub fn is_suspected(&self, peer: NodeId) -> bool {
        self.peers.get(&peer).is_some_and(|v| v.suspected)
    }

    /// Currently-suspected peers, ascending.
    pub fn suspected(&self) -> Vec<NodeId> {
        self.peers
            .iter()
            .filter(|(_, v)| v.suspected)
            .map(|(&p, _)| p)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn silent_peer_is_suspected_once_past_threshold() {
        let mut d = FailureDetector::new(SimDuration::from_millis(100), 3);
        d.track(NodeId(1), t(0));
        assert_eq!(d.suspicion_threshold(), SimDuration::from_millis(300));
        assert!(d.tick(t(300)).is_empty(), "at threshold: not yet");
        assert_eq!(d.tick(t(301)), vec![NodeId(1)]);
        assert!(d.is_suspected(NodeId(1)));
        assert!(d.tick(t(500)).is_empty(), "no re-report");
        assert_eq!(d.suspected(), vec![NodeId(1)]);
    }

    #[test]
    fn heartbeats_keep_peer_alive_and_clear_suspicion() {
        let mut d = FailureDetector::new(SimDuration::from_millis(100), 3);
        d.track(NodeId(2), t(0));
        assert!(!d.heard(NodeId(2), t(250)));
        assert!(d.tick(t(400)).is_empty(), "heard at 250, silent 150 < 300");
        assert_eq!(d.tick(t(600)), vec![NodeId(2)]);
        // The slow peer speaks again: suspicion clears and is reported.
        assert!(d.heard(NodeId(2), t(700)));
        assert!(!d.is_suspected(NodeId(2)));
        assert!(d.tick(t(900)).is_empty());
    }

    #[test]
    fn tracking_resets_the_allowance_and_unknown_peers_autotrack() {
        let mut d = FailureDetector::new(SimDuration::from_millis(100), 2);
        d.track(NodeId(3), t(0));
        assert_eq!(d.tick(t(1000)), vec![NodeId(3)]);
        // Observer recovery: re-track with a fresh allowance.
        d.track(NodeId(3), t(1000));
        assert!(d.tick(t(1100)).is_empty());
        // A beat from an untracked peer starts tracking it.
        assert!(!d.heard(NodeId(9), t(1000)));
        assert_eq!(d.tick(t(2000)), vec![NodeId(3), NodeId(9)]);
        assert_eq!(d.suspected(), vec![NodeId(3), NodeId(9)]);
    }

    #[test]
    fn same_inputs_same_suspicions() {
        let run = || {
            let mut d = FailureDetector::new(SimDuration::from_millis(50), 3);
            for n in 0..5 {
                d.track(NodeId(n), t(0));
            }
            let mut out = Vec::new();
            for step in 1..20 {
                let now = t(step * 40);
                if step % 3 == 0 {
                    d.heard(NodeId(step as u32 % 5), now);
                }
                out.extend(d.tick(now));
            }
            out
        };
        assert_eq!(run(), run());
    }
}
