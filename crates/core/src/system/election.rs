//! Self-healing token recovery: heartbeat sweep + quorum election.
//!
//! The paper (§4.4, §5) leaves post-failure agent recovery to an operator:
//! someone notices the dead home and moves the token by hand. This module
//! mechanizes that. Each [`Ev::DetectorTick`] every live node broadcasts a
//! [`Envelope::Heartbeat`] and sweeps its local [`FailureDetector`]; when
//! the lowest-id live replica of a majority-commit fragment suspects that
//! fragment's token home, it calls an election among the fragment's
//! replicas. A voter grants at most one candidate per `(fragment, epoch)`,
//! so at most one candidate can assemble a majority in an epoch; the
//! winner bumps the token epoch (fencing the deposed home — see the epoch
//! fence in `check_majority`) and re-homes the token through the §4.4.1
//! recovery machinery, which is exactly the manual move's code path.
//!
//! Elections are restricted to fragments under the `MajorityCommit`
//! policy: it is the one policy whose recovery needs no cooperation from
//! the (dead) old home, because every committed update was acknowledged by
//! a majority and any two majorities intersect. A suspicion of a home
//! under any other policy is surfaced (`SuspectRaised`) but not acted on.
//!
//! A false suspicion — the home is slow or partitioned, not dead — is
//! safe everywhere in this file: suspicion only starts a vote; losing the
//! vote costs nothing; winning it bumps the epoch, and the fence turns the
//! old regime's in-flight commits into clean aborts.
//!
//! [`Ev::DetectorTick`]: crate::events::Ev::DetectorTick
//! [`FailureDetector`]: fragdb_net::FailureDetector

use std::collections::BTreeSet;

use fragdb_model::{FragmentId, NodeId};
use fragdb_sim::metrics::keys::slot;
use fragdb_sim::{SimTime, TelemetryEvent};

use crate::envelope::Envelope;
use crate::events::Ev;
use crate::system::{Notes, System};

/// One open election (at most one per fragment).
pub(crate) struct ElectionState {
    /// The suspected home being voted out.
    pub home: NodeId,
    /// The token epoch this election fences on: votes and the win are
    /// valid only while the token is still at this epoch.
    pub fenced_epoch: u64,
    /// The proposed new home (the initiating replica itself).
    pub candidate: NodeId,
    /// Yes-votes received, the candidate's own included.
    pub votes: BTreeSet<NodeId>,
    /// When this round's patience timer fires; earlier (stale) timeout
    /// events no-op against it.
    pub deadline: SimTime,
}

impl System {
    /// The recurring detector tick: re-arm, beat, sweep, (maybe) elect.
    pub(crate) fn handle_detector_tick(&mut self, at: SimTime, notes: &mut Notes) {
        if !self.detector_cfg.enabled() {
            return;
        }
        // Re-arm first so the cadence is independent of the work below.
        self.engine
            .schedule_at(at + self.detector_cfg.heartbeat_period, Ev::DetectorTick);
        self.detector_beat += 1;
        let beat = self.detector_beat;
        let n = self.nodes.len() as u32;

        // Every live node beats to its monitor peers — the nodes it shares
        // at least one fragment replica set with. Under full replication
        // that is every peer (the pre-§6 behavior); under partial
        // replication the per-tick fan-out is bounded by the replica sets
        // instead of O(n²). Beats to a down peer are dropped at its door
        // and retransmitted; the reliable layer's resync on recovery
        // clears the backlog. A beat never reaches its own sender, so the
        // down set cannot change while the nodes beat.
        for from in (0..n).map(NodeId) {
            if self.down.contains(&from) {
                continue;
            }
            let mut i = 0;
            while let Some(peer) = self.monitor_peer(from, i) {
                i += 1;
                self.engine.metrics.incr(slot::DETECTOR_HEARTBEATS);
                let heartbeat = Envelope::Heartbeat { from, beat };
                self.send_direct(at, from, peer, heartbeat, notes);
            }
        }

        // Sweep each live node's local view for newly silent peers.
        for observer in (0..n).map(NodeId) {
            if self.down.contains(&observer) {
                continue;
            }
            let Some(d) = self.detectors.get_mut(&observer) else {
                continue;
            };
            for suspect in d.tick(at) {
                self.engine.metrics.incr(slot::DETECTOR_SUSPICIONS);
                self.engine.emit(|| TelemetryEvent::SuspectRaised {
                    node: observer.0,
                    suspect: suspect.0,
                });
            }
        }

        // Election scan — standing suspicions, not just newly raised ones,
        // so an aborted (timed-out) round retries on the next tick. Only
        // the fragment's designated initiator acts: the lowest-id replica
        // that is live and does not itself suspect it. Starting a round
        // changes nothing another fragment's scan reads, so the rounds
        // start after the scan; the list stays unallocated on a tick that
        // starts none.
        let mut rounds = Vec::new();
        for fragment in self.tokens.fragments() {
            if self.elections.contains_key(&fragment) || self.move_state.contains_key(&fragment) {
                continue;
            }
            if !self.move_policy_for(fragment).needs_majority_commit() {
                continue;
            }
            let home = self.tokens.home(fragment);
            let electable = |r: &NodeId| {
                *r != home
                    && !self.down.contains(r)
                    && self.detectors.get(r).is_some_and(|d| d.is_suspected(home))
            };
            // A 2-replica set cannot out-vote its own home (majority = 2
            // includes the dead home); Fdb051 warns about this statically.
            let initiator = match self.replica_sets.get(&fragment) {
                Some(set) if set.len() < 3 => continue,
                Some(set) => set.iter().copied().find(electable),
                None if n < 3 => continue,
                None => (0..n).map(NodeId).find(electable),
            };
            if let Some(initiator) = initiator {
                rounds.push((fragment, initiator));
            }
        }
        for (fragment, initiator) in rounds {
            self.start_election(at, fragment, initiator, notes);
        }
    }

    /// Open a round: fence on the current epoch, self-vote, solicit the
    /// rest of the replica set, arm the patience timer.
    fn start_election(
        &mut self,
        at: SimTime,
        fragment: FragmentId,
        candidate: NodeId,
        notes: &mut Notes,
    ) {
        let home = self.tokens.home(fragment);
        let epoch = self.tokens.epoch(fragment);
        self.engine.metrics.incr(slot::ELECTION_ROUNDS);
        self.engine.emit(|| TelemetryEvent::ElectionStarted {
            fragment: fragment.0,
            epoch,
            candidate: candidate.0,
        });
        let deadline = at + self.detector_cfg.election_timeout;
        self.elections.insert(
            fragment,
            ElectionState {
                home,
                fenced_epoch: epoch,
                candidate,
                votes: [candidate].into_iter().collect(),
                deadline,
            },
        );
        self.granted_votes
            .insert((fragment, epoch, candidate), candidate);
        self.engine
            .schedule_at(deadline, Ev::ElectionTimeout { fragment, epoch });
        for v in self.roster(fragment) {
            if v == candidate || v == home {
                continue;
            }
            let request = Envelope::VoteReq {
                fragment,
                epoch,
                candidate,
                reply_to: candidate,
            };
            self.send_direct(at, candidate, v, request, notes);
        }
    }

    /// A heartbeat arrives at `node` from `beater`. Clearing a standing
    /// suspicion at a candidate aborts its election: the home is alive.
    pub(crate) fn on_heartbeat(&mut self, at: SimTime, node: NodeId, beater: NodeId) {
        let cleared = self
            .detectors
            .get_mut(&node)
            .is_some_and(|d| d.heard(beater, at));
        if !cleared {
            return;
        }
        let stale: Vec<FragmentId> = self
            .elections
            .iter()
            .filter(|(_, e)| e.candidate == node && e.home == beater)
            .map(|(&f, _)| f)
            .collect();
        for fragment in stale {
            let e = self.elections.remove(&fragment).expect("collected above");
            self.abort_election(fragment, e.fenced_epoch, "home_alive");
        }
    }

    /// A replica decides whether to grant a vote. The grant requires: the
    /// epoch is current (nothing re-homed the token meanwhile), this voter
    /// also suspects the home, and it has not granted a different
    /// candidate in this `(fragment, epoch)`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_vote_req(
        &mut self,
        at: SimTime,
        node: NodeId,
        fragment: FragmentId,
        epoch: u64,
        candidate: NodeId,
        reply_to: NodeId,
        notes: &mut Notes,
    ) {
        let home = self.tokens.home(fragment);
        let granted = epoch == self.tokens.epoch(fragment)
            && self
                .detectors
                .get(&node)
                .is_some_and(|d| d.is_suspected(home))
            && match self.granted_votes.get(&(fragment, epoch, node)) {
                Some(&prior) => prior == candidate,
                None => true,
            };
        if granted {
            self.granted_votes
                .insert((fragment, epoch, node), candidate);
        }
        self.send_direct(
            at,
            node,
            reply_to,
            Envelope::Vote {
                fragment,
                epoch,
                from: node,
                granted,
            },
            notes,
        );
    }

    /// A vote reaches the candidate; a majority wins the round.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_vote(
        &mut self,
        at: SimTime,
        node: NodeId,
        fragment: FragmentId,
        epoch: u64,
        voter: NodeId,
        granted: bool,
        notes: &mut Notes,
    ) {
        let majority = self.majority(fragment);
        let won = {
            let Some(e) = self.elections.get_mut(&fragment) else {
                return;
            };
            if e.fenced_epoch != epoch || e.candidate != node || !granted {
                return;
            }
            e.votes.insert(voter);
            e.votes.len() >= majority
        };
        if !won {
            return;
        }
        let e = self.elections.remove(&fragment).expect("present above");
        if self.tokens.epoch(fragment) != e.fenced_epoch {
            // An explicit move (or a competing mechanism) re-homed the
            // token while the votes were in flight; the win is void.
            return self.abort_election(fragment, e.fenced_epoch, "superseded");
        }
        self.engine.metrics.incr(slot::ELECTION_WON);
        self.engine.emit(|| TelemetryEvent::ElectionWon {
            fragment: fragment.0,
            epoch: e.fenced_epoch,
            node: e.candidate.0,
        });
        // The reattach bumps the epoch — from here the fence in
        // `check_majority` refuses every commit the deposed home staged.
        self.tokens.reattach(fragment, e.candidate);
        self.begin_majority_recovery(at, fragment, e.home, e.candidate, true, notes);
    }

    /// The round's patience ran out; a retry starts at the next tick if
    /// the home is still suspected.
    pub(crate) fn handle_election_timeout(
        &mut self,
        at: SimTime,
        fragment: FragmentId,
        epoch: u64,
    ) {
        let stale = match self.elections.get(&fragment) {
            Some(e) => e.fenced_epoch != epoch || at < e.deadline,
            None => true,
        };
        if !stale {
            self.elections.remove(&fragment);
            self.abort_election(fragment, epoch, "timeout");
        }
    }

    /// Shared abort bookkeeping (the election has already been removed).
    pub(crate) fn abort_election(
        &mut self,
        fragment: FragmentId,
        epoch: u64,
        reason: &'static str,
    ) {
        self.engine.metrics.incr(slot::ELECTION_ABORTED);
        self.engine.emit(|| TelemetryEvent::ElectionAborted {
            fragment: fragment.0,
            epoch,
            reason,
        });
    }

    /// Crash-time cleanup: a dead candidate's rounds abort, and the dead
    /// node's volatile votes (granted and received) are struck so they
    /// cannot count toward any majority after it restarts amnesiac.
    pub(crate) fn election_cleanup_on_crash(&mut self, node: NodeId) {
        let dead: Vec<FragmentId> = self
            .elections
            .iter()
            .filter(|(_, e)| e.candidate == node)
            .map(|(&f, _)| f)
            .collect();
        for fragment in dead {
            let e = self.elections.remove(&fragment).expect("collected above");
            self.abort_election(fragment, e.fenced_epoch, "candidate_crashed");
        }
        for e in self.elections.values_mut() {
            e.votes.remove(&node);
        }
        self.granted_votes.retain(|&(_, _, voter), _| voter != node);
    }
}
