//! Model-checking hooks on [`System`]: pending-event enumeration, stepping
//! by explicit choice, and a time-abstract state digest.
//!
//! These are the primitives `fragdb-mc` builds its replay-based DFS on. The
//! contract is:
//!
//! 1. Every pending event — timers included — is individually enumerable
//!    and takeable on any [`System`]: the engine's one queue needs no mode
//!    switch ([`fragdb_sim::Engine::mc_pending`], `mc_take`).
//! 2. [`System::mc_choices`] lists the enabled transitions of the current
//!    state. Each carries a stable `seq` key (valid for exactly one
//!    [`System::mc_step`] from this state) and a human-readable label used
//!    for witnesses. Because the simulation is fully deterministic, a
//!    recorded sequence of `seq` keys replays to the identical state from a
//!    freshly built system — which is what lets the checker backtrack
//!    without `System: Clone`.
//! 3. [`System::mc_digest`] hashes the protocol-visible state while
//!    abstracting absolute virtual time. Two states with equal digests have
//!    identical label-level futures (timestamps only affect the canonical
//!    default order, never which transitions are enabled), so the explorer
//!    may prune revisits.

use std::collections::BTreeSet;

use fragdb_model::{FragmentId, NodeId};
use fragdb_net::Pkt;
use fragdb_sim::SimTime;

use crate::envelope::Envelope;
use crate::events::{Ev, Notification};

use super::{MoveState, Pending, System};

/// One enabled transition of the current state.
#[derive(Clone, Debug)]
pub struct McChoice {
    /// Scheduled instant (ordering hint only; the checker may fire any
    /// pending event next regardless of timestamp).
    pub at: SimTime,
    /// Engine sequence number — the key passed to [`System::mc_step`].
    pub seq: u64,
    /// Stable, time-free description of the event (used in witnesses and in
    /// the pending-set component of the state digest).
    pub label: String,
    /// For data-packet deliveries of a replicated install, the broadcast
    /// identity used by the partial-order reduction.
    pub delivery: Option<McDelivery>,
    /// Crash/recover/topology events: their presence disables the POR,
    /// since a fault does not commute with a delivery to the same node.
    pub is_fault: bool,
}

/// Identity of a broadcast-install delivery for POR grouping: deliveries of
/// the same `(from, fragment, epoch, frag_seq)` to *different* destinations
/// commute (they touch disjoint node state).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct McDelivery {
    /// Sending node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// Fragment of the carried install.
    pub fragment: FragmentId,
    /// Token epoch of the carried install.
    pub epoch: u64,
    /// Fragment sequence number of the carried install.
    pub frag_seq: u64,
}

impl System {
    /// Enumerate the enabled transitions of the current state, sorted by
    /// the canonical `(at, seq)` key.
    pub fn mc_choices(&self) -> Vec<McChoice> {
        self.engine
            .mc_pending()
            .into_iter()
            .map(|(at, seq, ev)| {
                let delivery = match ev {
                    Ev::Pkt(pd) => match &pd.pkt {
                        Pkt::Data { msg, .. } => match msg {
                            Envelope::Quasi { quasi, .. } => Some(McDelivery {
                                from: pd.from,
                                to: pd.to,
                                fragment: quasi.fragment,
                                epoch: quasi.epoch,
                                frag_seq: quasi.frag_seq,
                            }),
                            Envelope::Batch { batch, .. } => batch.first().map(|q| McDelivery {
                                from: pd.from,
                                to: pd.to,
                                fragment: q.fragment,
                                epoch: q.epoch,
                                frag_seq: q.frag_seq,
                            }),
                            _ => None,
                        },
                        Pkt::Ack { .. } => None,
                    },
                    _ => None,
                };
                let is_fault = matches!(ev, Ev::Crash(_) | Ev::Recover(_) | Ev::Net(_));
                McChoice {
                    at,
                    seq,
                    label: format!("{ev:?}"),
                    delivery,
                    is_fault,
                }
            })
            .collect()
    }

    /// Fire the pending event keyed by `seq` and run its handler. Returns
    /// `None` if no live pending event carries that key.
    pub fn mc_step(&mut self, seq: u64) -> Option<Vec<Notification>> {
        let (at, ev) = self.engine.mc_take(seq)?;
        Some(self.handle(at, ev))
    }

    /// `true` when no events are pending — the run has quiesced and the
    /// final-state invariants (convergence, durability, serializability)
    /// apply.
    pub fn mc_quiescent(&self) -> bool {
        self.engine.pending() == 0
    }

    /// Per-node installed-sequence frontier: `(node, fragment, next_install)`
    /// for every frontier the node currently tracks. The model checker
    /// asserts these never move backwards between consecutive states (except
    /// across a crash of the node, which legitimately resets them).
    pub fn mc_install_frontier(&self) -> Vec<(NodeId, FragmentId, u64)> {
        let mut out = Vec::new();
        for slot in &self.nodes {
            for (&frag, &next) in &slot.next_install {
                out.push((slot.replica.node, frag, next));
            }
        }
        out
    }

    /// Time-abstract digest of the protocol-visible state (FNV-1a over
    /// [`System::mc_state_string`]).
    pub fn mc_digest(&self) -> u64 {
        fnv1a(self.mc_state_string().as_bytes())
    }

    /// Canonical rendering of the protocol-visible state with absolute
    /// virtual times stripped. Everything that determines future behaviour
    /// at the label level is included: per-node stores, WALs, install
    /// frontiers, hold-back buffers, staged prepares, coordination state,
    /// token placement, movement/election state, the down set, the reliable
    /// layer's counters, the pending-event label multiset, and the recorded
    /// history normalized to per-`(node, object)` op order.
    pub fn mc_state_string(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(1024);
        let objects: Vec<_> = self
            .catalog
            .fragments()
            .iter()
            .flat_map(|f| f.objects.iter().copied())
            .collect();
        // Candidate txns for the lock fingerprint: everything that can hold
        // or await a lock right now.
        let mut lock_txns: BTreeSet<_> = self.pending.keys().copied().collect();
        for slot in &self.nodes {
            lock_txns.extend(slot.remote_reqs.keys().copied());
            lock_txns.extend(slot.staged.keys().copied());
        }
        for slot in &self.nodes {
            let n = slot.replica.node;
            let _ = write!(s, "n{n}");
            if self.down.contains(&n) {
                s.push_str("[down]");
            }
            s.push_str("{st:");
            for &o in &objects {
                let _ = write!(s, "{o}={:?};", slot.replica.read(o));
            }
            s.push_str("|wal:");
            for e in slot.replica.wal().entries() {
                let _ = write!(s, "{}@{}.{}.{};", e.txn, e.fragment, e.epoch, e.frag_seq);
            }
            s.push_str("|ni:");
            for (f, v) in &slot.next_install {
                let _ = write!(s, "{f}={v};");
            }
            s.push_str("|hb:");
            for (f, m) in &slot.holdback {
                for (seq, q) in m {
                    let _ = write!(s, "{f}.{seq}={};", q.txn);
                }
            }
            s.push_str("|staged:");
            for t in slot.staged.keys() {
                let _ = write!(s, "{t};");
            }
            s.push_str("|rc:");
            for (f, rc) in &slot.regime_close {
                let _ = write!(s, "{f}e{}>{};", rc.old_epoch, rc.new_home);
            }
            s.push_str("|lk:");
            for &t in &lock_txns {
                for &o in &objects {
                    if slot.locks.holds(t, o) {
                        let _ = write!(s, "{t}@{o};");
                    }
                }
            }
            s.push('}');
        }
        s.push_str("|tok:");
        for f in self.tokens.fragments() {
            let _ = write!(
                s,
                "{f}@{}e{}s{};",
                self.tokens.home(f),
                self.tokens.epoch(f),
                self.tokens.peek_frag_seq(f)
            );
        }
        s.push_str("|pend:");
        for (t, p) in &self.pending {
            let desc = match p {
                Pending::LockAcq {
                    fragment,
                    outstanding_sites,
                    granted,
                    ..
                } => format!("L{fragment}o{}g{}", outstanding_sites.len(), granted.len()),
                Pending::XWait { fragment, .. } => format!("X{fragment}"),
                Pending::Majority { fragment, acks, .. } => format!("M{fragment}a{}", acks.len()),
            };
            let _ = write!(s, "{t}={desc};");
        }
        s.push_str("|mv:");
        for (f, m) in &self.move_state {
            let desc = match m {
                MoveState::MajorityRecovery {
                    new_home,
                    old_home,
                    elected,
                    replies,
                } => format!("R{old_home}>{new_home}e{elected}r{}", replies.len()),
                MoveState::AwaitingData { new_home, old_home } => {
                    format!("D{old_home}>{new_home}")
                }
                MoveState::AwaitingSeq {
                    new_home,
                    old_home,
                    upto,
                } => format!("S{old_home}>{new_home}u{upto}"),
            };
            let _ = write!(s, "{f}={desc};");
        }
        s.push_str("|q:");
        for (f, q) in &self.queued {
            let _ = write!(s, "{f}={};", q.len());
        }
        s.push_str("|mi:");
        for (f, t) in &self.majority_inflight {
            let _ = write!(s, "{f}={t};");
        }
        s.push_str("|el:");
        for f in self.elections.keys() {
            let _ = write!(s, "{f};");
        }
        for ((f, e, n), c) in &self.granted_votes {
            let _ = write!(s, "v{f}e{e}n{n}={c};");
        }
        s.push_str("|rec:");
        for ((n, f), (e, _)) in &self.recovering {
            let _ = write!(s, "{n}.{f}e{e};");
        }
        s.push_str("|ts:");
        for (n, v) in &self.tombstones {
            let _ = write!(s, "{n}x{};", v.len());
        }
        let _ = write!(s, "|seq:{:?}", self.next_txn_seq);
        let _ = write!(s, "|net:{:?}", self.net.stats());
        s.push_str("|evq:");
        let mut labels: Vec<String> = self
            .engine
            .mc_pending()
            .into_iter()
            .map(|(_, _, ev)| format!("{ev:?}"))
            .collect();
        labels.sort();
        for l in &labels {
            s.push_str(l);
            s.push(';');
        }
        s.push_str("|hist:");
        // Per-(node, object) op order is what the serialization analyzers
        // consume; absolute times and global seq values are path noise.
        let mut keyed: Vec<_> = self
            .history
            .ops()
            .iter()
            .map(|op| {
                (
                    (op.node, op.object),
                    op.seq,
                    format!("{}{:?}{}", op.txn, op.kind, u8::from(op.is_install)),
                )
            })
            .collect();
        keyed.sort();
        for ((n, o), _, desc) in &keyed {
            let _ = write!(s, "{n}.{o}:{desc};");
        }
        s
    }
}

/// Stable 64-bit FNV-1a (the std hasher is not guaranteed stable across
/// runs, and determinism across processes is part of the mc contract).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use fragdb_model::{AgentId, FragmentCatalog, ObjectId, Value};
    use fragdb_net::Topology;
    use fragdb_sim::SimDuration;

    use crate::config::SystemConfig;
    use crate::events::Submission;

    use super::*;

    fn tiny_system() -> System {
        let mut b = FragmentCatalog::builder();
        let (f0, _) = b.add_fragment("F0", 2);
        let topology = Topology::full_mesh(3, SimDuration::from_millis(5));
        let agents = vec![(f0, AgentId::Node(NodeId(0)), NodeId(0))];
        System::build(topology, b.build(), agents, SystemConfig::unrestricted(7))
            .expect("tiny system builds")
    }

    fn bump(fragment: FragmentId) -> Submission {
        Submission::update(
            fragment,
            Box::new(move |ctx| {
                let v = match ctx.read(ObjectId(0)) {
                    Value::Int(i) => i,
                    _ => 0,
                };
                ctx.write(ObjectId(0), Value::Int(v + 1))?;
                Ok(())
            }),
        )
    }

    #[test]
    fn choices_replay_to_identical_digests() {
        let build = || {
            let mut sys = tiny_system();
            sys.submit_at(SimTime::from_millis(1), bump(FragmentId(0)));
            sys.submit_at(SimTime::from_millis(2), bump(FragmentId(0)));
            sys
        };
        // Drive one run to quiescence in canonical order, recording choices.
        let mut sys = build();
        let mut path = Vec::new();
        let mut digests = Vec::new();
        while let Some(choice) = sys.mc_choices().first().cloned() {
            sys.mc_step(choice.seq).expect("choice is live");
            path.push(choice.seq);
            digests.push(sys.mc_digest());
        }
        assert!(sys.mc_quiescent());
        // Replaying the recorded keys on a fresh system reproduces every
        // intermediate digest — the property the DFS backtracking relies on.
        let mut replay = build();
        for (i, &seq) in path.iter().enumerate() {
            replay.mc_step(seq).expect("replay step is live");
            assert_eq!(replay.mc_digest(), digests[i], "digest diverged at {i}");
        }
    }

    #[test]
    fn digest_abstracts_time_but_not_state() {
        let mut a = tiny_system();
        let b = tiny_system();
        assert_eq!(a.mc_digest(), b.mc_digest(), "fresh systems agree");
        a.submit_at(SimTime::from_millis(1), bump(FragmentId(0)));
        assert_ne!(a.mc_digest(), b.mc_digest(), "pending submit is visible");
    }

    #[test]
    fn delivery_choices_carry_broadcast_identity() {
        let mut sys = tiny_system();
        sys.submit_at(SimTime::from_millis(1), bump(FragmentId(0)));
        // Step until replica-bound install packets appear.
        let mut saw_delivery = false;
        for _ in 0..64 {
            let choices = sys.mc_choices();
            if let Some(d) = choices.iter().find_map(|c| c.delivery) {
                assert_eq!(d.fragment, FragmentId(0));
                assert_eq!(d.from, NodeId(0));
                saw_delivery = true;
                break;
            }
            let Some(first) = choices.first().cloned() else {
                break;
            };
            sys.mc_step(first.seq);
        }
        assert!(saw_delivery, "install broadcast never appeared");
    }
}
