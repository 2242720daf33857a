//! The [`System`]: `n` replicated nodes wired to a simulated network,
//! executing transactions under a chosen control strategy and movement
//! policy, recording everything into a [`History`].
//!
//! The system is *driven*: workload code schedules [`Ev`]s (submissions,
//! partitions, agent moves) on the engine and then pumps
//! [`System::step_until`], reacting to the returned [`Notification`]s.
//! Domain triggers — e.g. the §2 banking rule "when an ACTIVITY update
//! reaches the central office, post it to BALANCES" — are driver reactions
//! to [`Notification::Installed`].

mod batch;
mod election;
mod exec;
mod install;
mod locks_proto;
mod majority;
mod mc;
mod moves;

pub use mc::{McChoice, McDelivery};

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use fragdb_model::{
    AgentId, FragmentCatalog, FragmentId, History, NodeId, ObjectId, QuasiTransaction, TxnId,
    Updates, Value,
};
use fragdb_net::{
    Delivery, FailureDetector, NetAction, NetworkChange, PktDelivery, ReliableNet, Topology,
};
use fragdb_sim::metrics::keys;
use fragdb_sim::{CausalId, Engine, SimDuration, SimTime, TelemetryEvent};
use fragdb_storage::{LockManager, Replica};

use crate::config::SystemConfig;
use crate::envelope::Envelope;
use crate::events::{AbortReason, Ev, Notification, Submission};
use crate::movement::MovePolicy;
use crate::program::{TxnEffects, UpdateFn};
use crate::strategy::{StrategyError, StrategyKind};
use crate::tokens::TokenRegistry;

/// Per-node runtime state.
pub(crate) struct NodeSlot {
    /// The node's database copy + WAL.
    pub replica: Replica,
    /// Lock table for objects whose fragments are homed here (§4.1).
    pub locks: LockManager,
    /// Remote lock requests waiting at this lock site: txn -> request.
    pub remote_reqs: BTreeMap<TxnId, RemoteLockReq>,
    /// §4.4.1: quasi-transactions staged by `Prepare`, awaiting `CommitCmd`.
    pub staged: BTreeMap<TxnId, QuasiTransaction>,
    /// Next fragment sequence expected for ordered installation.
    pub next_install: BTreeMap<FragmentId, u64>,
    /// Out-of-order quasi-transactions held until their predecessors land.
    pub holdback: BTreeMap<FragmentId, BTreeMap<u64, QuasiTransaction>>,
    /// §4.4.3: what this node learned from `M0` about a closed regime.
    pub regime_close: BTreeMap<FragmentId, RegimeClose>,
    /// §4.4.3: late `(epoch, frag_seq)` transactions this node (as a new
    /// home) has already repackaged — a late transaction can arrive twice,
    /// once from the origin's broadcast and once forwarded by a third node.
    pub noprep_handled: BTreeMap<FragmentId, BTreeSet<(u64, u64)>>,
}

/// §4.4.3 knowledge recorded when `M0` arrives.
#[derive(Clone, Debug)]
pub(crate) struct RegimeClose {
    /// The epoch that ended.
    pub old_epoch: u64,
    /// Highest old-regime `frag_seq` the new home had (`i`); `None` if it
    /// had none.
    pub last_seq: Option<u64>,
    /// Where late old-regime transactions must be forwarded.
    pub new_home: NodeId,
}

/// A remote lock request parked at a lock site.
pub(crate) struct RemoteLockReq {
    /// Objects requested (all homed at this site).
    pub objects: Vec<ObjectId>,
    /// Objects not yet granted.
    pub outstanding: BTreeSet<ObjectId>,
    /// Where to send the grant.
    pub reply_to: NodeId,
}

/// Cross-event state of an in-flight transaction.
pub(crate) enum Pending {
    /// §4.1: waiting for shared-lock grants from lock sites.
    LockAcq {
        fragment: FragmentId,
        home: NodeId,
        program: Option<UpdateFn>,
        read_only: bool,
        outstanding_sites: BTreeSet<NodeId>,
        contacted_sites: BTreeSet<NodeId>,
        granted: BTreeMap<ObjectId, (NodeId, Value)>,
        submitted_at: SimTime,
    },
    /// §4.1: program ran; waiting for local exclusive locks on the write set.
    XWait {
        fragment: FragmentId,
        home: NodeId,
        effects: TxnEffects,
        contacted_sites: BTreeSet<NodeId>,
        submitted_at: SimTime,
    },
    /// §4.4.1: staged; waiting for a majority of `PrepareAck`s.
    Majority {
        fragment: FragmentId,
        home: NodeId,
        quasi: QuasiTransaction,
        reads: Vec<(NodeId, ObjectId)>,
        acks: BTreeSet<NodeId>,
        submitted_at: SimTime,
    },
}

/// Per-fragment state while an agent move is in progress. Every variant
/// remembers `old_home` so a crash of either endpoint mid-move can be
/// unwound (the token reattaches to the surviving side instead of the
/// move stalling forever).
pub(crate) enum MoveState {
    /// §4.4.1: new home is recovering the update sequence from a majority.
    MajorityRecovery {
        new_home: NodeId,
        old_home: NodeId,
        /// `true` when a quorum election (not the driver) started the
        /// recovery; completion then emits `TokenRecovered`.
        elected: bool,
        replies: BTreeSet<NodeId>,
    },
    /// §4.4.2A: waiting for the couriered fragment copy.
    AwaitingData { new_home: NodeId, old_home: NodeId },
    /// §4.4.2B: new home waits until it has installed everything below
    /// `upto`.
    AwaitingSeq {
        new_home: NodeId,
        old_home: NodeId,
        upto: u64,
    },
}

/// A submission parked while its fragment is mid-move (or behind a
/// serialized majority commit).
pub(crate) struct QueuedSub {
    pub submission: Submission,
    pub queued_at: SimTime,
}

/// Cleanup a crashed node owes the rest of the system, announced when it
/// recovers ("presumed abort, declared on restart"). A dead node cannot
/// send; these are the messages it would have sent to abort its in-flight
/// transactions.
pub(crate) enum CrashTombstone {
    /// §4.4.1: tell the replica set to drop a staged prepare.
    AbortCmd { fragment: FragmentId, txn: TxnId },
    /// §4.1: free the shared locks the dead coordinator held at lock sites.
    LockRelease { txn: TxnId, sites: BTreeSet<NodeId> },
}

/// Why a declared configuration cannot be assembled into a [`System`].
///
/// Every variant corresponds to a static precondition from the paper;
/// `fragdb-check` renders the same conditions as `FDB0xx` diagnostics
/// before a build is ever attempted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// The chosen control strategy failed its own validation (e.g. a §4.2
    /// read-access graph that is not elementarily acyclic).
    Strategy(StrategyError),
    /// A catalog fragment was assigned no agent token.
    MissingAgent(FragmentId),
    /// A fragment appeared more than once in the agent assignment (§3.1:
    /// exactly one token per fragment).
    DuplicateAgent(FragmentId),
    /// An agent assignment referenced a fragment not in the catalog.
    UnknownFragment(FragmentId),
    /// An agent's home node does not exist in the topology.
    HomeOutOfRange {
        /// Fragment whose agent is misplaced.
        fragment: FragmentId,
        /// The out-of-range home.
        home: NodeId,
        /// Number of nodes in the topology.
        nodes: u32,
    },
    /// A node agent must be homed at its own node (§3.1: "the agent is
    /// the node").
    NodeAgentForeignHome {
        /// Fragment concerned.
        fragment: FragmentId,
        /// The node agent.
        agent: NodeId,
        /// The (different) declared home.
        home: NodeId,
    },
    /// §4.1 read locks are defined for fixed agents only; the fragment
    /// mixes them with a movement policy.
    LocksRequireFixedAgents(FragmentId),
    /// A §6 replica set is empty.
    EmptyReplicaSet(FragmentId),
    /// A §6 replica set names a node outside the topology.
    ReplicaOutOfRange {
        /// Fragment concerned.
        fragment: FragmentId,
        /// The out-of-range replica.
        replica: NodeId,
    },
    /// A fragment's agent home is missing from its own replica set.
    HomeNotInReplicaSet {
        /// Fragment concerned.
        fragment: FragmentId,
        /// The home that holds no replica.
        home: NodeId,
    },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Strategy(e) => write!(f, "{e}"),
            BuildError::MissingAgent(fr) => write!(f, "fragment {fr} has no agent token"),
            BuildError::DuplicateAgent(fr) => {
                write!(f, "fragment {fr} assigned more than one agent token")
            }
            BuildError::UnknownFragment(fr) => {
                write!(f, "agent assigned to unknown fragment {fr}")
            }
            BuildError::HomeOutOfRange {
                fragment,
                home,
                nodes,
            } => write!(
                f,
                "fragment {fragment}'s agent home {home} out of range (topology has {nodes} nodes)"
            ),
            BuildError::NodeAgentForeignHome {
                fragment,
                agent,
                home,
            } => write!(
                f,
                "fragment {fragment}'s node agent {agent} must be homed at itself, not {home}"
            ),
            BuildError::LocksRequireFixedAgents(fr) => write!(
                f,
                "§4.1 read locks are defined for fixed agents only (fragment {fr})"
            ),
            BuildError::EmptyReplicaSet(fr) => {
                write!(f, "empty replica set for fragment {fr}")
            }
            BuildError::ReplicaOutOfRange { fragment, replica } => {
                write!(f, "replica {replica} out of range for fragment {fragment}")
            }
            BuildError::HomeNotInReplicaSet { fragment, home } => write!(
                f,
                "fragment {fragment}'s agent home {home} must be in its replica set"
            ),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<StrategyError> for BuildError {
    fn from(e: StrategyError) -> Self {
        BuildError::Strategy(e)
    }
}

/// The fragments-and-agents distributed database system.
pub struct System {
    /// The discrete-event engine driving everything.
    pub engine: Engine<Ev>,
    /// The executed history (feed it to `fragdb_graphs::analyze`).
    pub history: History,
    pub(crate) catalog: FragmentCatalog,
    pub(crate) strategy: StrategyKind,
    pub(crate) move_policy: MovePolicy,
    /// §6: per-fragment strategy overrides.
    pub(crate) strategy_overrides: std::collections::BTreeMap<FragmentId, StrategyKind>,
    /// §6: per-fragment movement-policy overrides.
    pub(crate) move_overrides: std::collections::BTreeMap<FragmentId, MovePolicy>,
    pub(crate) net: ReliableNet<Envelope>,
    pub(crate) tokens: TokenRegistry,
    pub(crate) nodes: Vec<NodeSlot>,
    /// Nodes currently crashed: packets addressed to them are dropped on
    /// arrival, submissions homed at them abort as unavailable.
    pub(crate) down: BTreeSet<NodeId>,
    /// Abort messages each crashed node owes the system, sent at recovery.
    pub(crate) tombstones: BTreeMap<NodeId, Vec<CrashTombstone>>,
    /// Crash-recovery catch-up in progress: `(node, fragment)` → the
    /// `next_install` target that means "caught up", and when recovery
    /// started (for the `latency.recovery` metric).
    pub(crate) recovering: BTreeMap<(NodeId, FragmentId), (u64, SimTime)>,
    pub(crate) next_txn_seq: Vec<u64>,
    pub(crate) pending: BTreeMap<TxnId, Pending>,
    pub(crate) move_state: BTreeMap<FragmentId, MoveState>,
    pub(crate) queued: BTreeMap<FragmentId, VecDeque<QueuedSub>>,
    /// §4.4.1: at most one majority commit in flight per fragment.
    pub(crate) majority_inflight: BTreeMap<FragmentId, TxnId>,
    /// §6: partial replication map (absent = fully replicated).
    pub(crate) replica_sets: BTreeMap<FragmentId, BTreeSet<NodeId>>,
    /// Group-commit batching knob (off by default).
    pub(crate) batch_cfg: crate::config::BatchConfig,
    /// Per-fragment open group-commit batch at the fragment's home.
    pub(crate) open_batches: BTreeMap<FragmentId, OpenBatch>,
    /// Flush-timer generation allocator (stale timers are no-ops).
    pub(crate) next_batch_gen: u64,
    /// Self-healing token recovery knob (off by default).
    pub(crate) detector_cfg: crate::config::DetectorConfig,
    /// Each live node's local liveness view (present only when the
    /// detector is enabled; a crashed node's entry is volatile and is
    /// rebuilt fresh at recovery).
    pub(crate) detectors: BTreeMap<NodeId, FailureDetector>,
    /// Open quorum elections, at most one per fragment.
    pub(crate) elections: BTreeMap<FragmentId, election::ElectionState>,
    /// Vote ledger: `(fragment, epoch, voter) → candidate`. A voter grants
    /// at most one candidate per `(fragment, epoch)`, so two candidates
    /// can never both assemble a majority in the same epoch.
    pub(crate) granted_votes: BTreeMap<(FragmentId, u64, NodeId), NodeId>,
    /// Monotone heartbeat counter shared by all senders (diagnostic only).
    pub(crate) detector_beat: u64,
}

/// An under-construction group-commit batch (volatile, home-side).
pub(crate) struct OpenBatch {
    /// The home node that committed the batched transactions.
    pub(crate) home: NodeId,
    /// Generation guarding this batch's linger timer.
    pub(crate) gen: u64,
    /// The coalesced quasi-transactions, in commit (`frag_seq`) order.
    pub(crate) quasis: Vec<QuasiTransaction>,
}

impl System {
    /// Build a system.
    ///
    /// `agents` assigns each fragment its initial agent and home node; every
    /// fragment in the catalog must appear exactly once.
    pub fn build(
        topology: Topology,
        catalog: FragmentCatalog,
        agents: Vec<(FragmentId, AgentId, NodeId)>,
        config: SystemConfig,
    ) -> Result<System, BuildError> {
        config.strategy.validate()?;
        for strategy in config.strategy_overrides.values() {
            strategy.validate()?;
        }
        let n = topology.node_count();
        let mut tokens = TokenRegistry::new();
        for &(fragment, agent, home) in &agents {
            if catalog.fragment(fragment).is_err() {
                return Err(BuildError::UnknownFragment(fragment));
            }
            if home.0 >= n {
                return Err(BuildError::HomeOutOfRange {
                    fragment,
                    home,
                    nodes: n,
                });
            }
            if let AgentId::Node(node) = agent {
                if node != home {
                    return Err(BuildError::NodeAgentForeignHome {
                        fragment,
                        agent: node,
                        home,
                    });
                }
            }
            if tokens.fragments().any(|f| f == fragment) {
                return Err(BuildError::DuplicateAgent(fragment));
            }
            tokens.mint(fragment, agent, home);
        }
        for frag in catalog.fragments() {
            // Every fragment needs exactly one token (§3.1).
            if !tokens.fragments().any(|f| f == frag.id) {
                return Err(BuildError::MissingAgent(frag.id));
            }
            // §4.1 read locks are defined for fixed agents only — checked
            // per fragment so §6 mixtures stay sound.
            let strategy = config
                .strategy_overrides
                .get(&frag.id)
                .unwrap_or(&config.strategy);
            let movement = config
                .move_overrides
                .get(&frag.id)
                .unwrap_or(&config.move_policy);
            if strategy.uses_read_locks() && *movement != MovePolicy::Fixed {
                return Err(BuildError::LocksRequireFixedAgents(frag.id));
            }
            if let Some(set) = config.replica_sets.get(&frag.id) {
                if set.is_empty() {
                    return Err(BuildError::EmptyReplicaSet(frag.id));
                }
                if let Some(&replica) = set.iter().find(|r| r.0 >= n) {
                    return Err(BuildError::ReplicaOutOfRange {
                        fragment: frag.id,
                        replica,
                    });
                }
                let home = tokens.home(frag.id);
                if !set.contains(&home) {
                    return Err(BuildError::HomeNotInReplicaSet {
                        fragment: frag.id,
                        home,
                    });
                }
            }
        }
        let nodes = (0..n)
            .map(|i| NodeSlot {
                replica: Replica::new(NodeId(i)),
                locks: LockManager::new(),
                remote_reqs: BTreeMap::new(),
                staged: BTreeMap::new(),
                next_install: BTreeMap::new(),
                holdback: BTreeMap::new(),
                regime_close: BTreeMap::new(),
                noprep_handled: BTreeMap::new(),
            })
            .collect();
        let mut system = System {
            engine: Engine::new(config.seed),
            history: History::new(),
            catalog,
            strategy: config.strategy,
            move_policy: config.move_policy,
            strategy_overrides: config.strategy_overrides,
            move_overrides: config.move_overrides,
            net: ReliableNet::new(topology).with_faults(config.faults),
            tokens,
            nodes,
            down: BTreeSet::new(),
            tombstones: BTreeMap::new(),
            recovering: BTreeMap::new(),
            next_txn_seq: vec![0; n as usize],
            pending: BTreeMap::new(),
            move_state: BTreeMap::new(),
            queued: BTreeMap::new(),
            majority_inflight: BTreeMap::new(),
            replica_sets: config.replica_sets,
            batch_cfg: config.batch,
            open_batches: BTreeMap::new(),
            next_batch_gen: 0,
            detector_cfg: config.detector,
            detectors: BTreeMap::new(),
            elections: BTreeMap::new(),
            granted_votes: BTreeMap::new(),
            detector_beat: 0,
        };
        if system.detector_cfg.enabled() {
            // Every node starts with a full silence allowance for each of
            // its monitor peers (under full replication: every peer); the
            // first sweep happens one period in.
            for i in 0..n {
                let mut d = FailureDetector::new(
                    system.detector_cfg.heartbeat_period,
                    crate::config::SUSPECT_AFTER,
                );
                for peer in system.monitor_peers(NodeId(i)) {
                    d.track(peer, SimTime::ZERO);
                }
                system.detectors.insert(NodeId(i), d);
            }
            // The recurring tick re-arms itself; with the detector off it
            // is never scheduled, keeping default runs byte-identical.
            let first = SimTime::ZERO + system.detector_cfg.heartbeat_period;
            system.engine.schedule_at(first, Ev::DetectorTick);
        }
        Ok(system)
    }

    // ---- driver API ----------------------------------------------------

    /// Schedule a transaction submission at absolute time `at`.
    pub fn submit_at(&mut self, at: SimTime, submission: Submission) {
        self.engine.schedule_at(at, Ev::Submit(submission));
    }

    /// Schedule a network change at absolute time `at`.
    pub fn net_change_at(&mut self, at: SimTime, change: NetworkChange) {
        self.engine.schedule_at(at, Ev::Net(change));
    }

    /// Schedule an entire partition schedule.
    pub fn schedule_partitions(&mut self, schedule: &fragdb_net::PartitionSchedule) {
        for (at, change) in schedule.events() {
            self.engine.schedule_at(*at, Ev::Net(change.clone()));
        }
    }

    /// Schedule an agent move at absolute time `at`.
    pub fn move_agent_at(&mut self, at: SimTime, fragment: FragmentId, to: NodeId) {
        self.engine.schedule_at(at, Ev::Move { fragment, to });
    }

    /// Schedule a node crash at absolute time `at`.
    pub fn crash_at(&mut self, at: SimTime, node: NodeId) {
        self.engine.schedule_at(at, Ev::Crash(node));
    }

    /// Schedule a §6 replica-set shrink at absolute time `at`. The new set
    /// must be a non-empty subset of the fragment's current replica set
    /// (all nodes, if fully replicated) containing the token home. An
    /// invalid request, or one that lands while a move, an election or a
    /// majority commit is in flight on the fragment, is skipped silently;
    /// the caller retries.
    pub fn shrink_replica_set_at(
        &mut self,
        at: SimTime,
        fragment: FragmentId,
        new_set: BTreeSet<NodeId>,
    ) {
        self.engine
            .schedule_at(at, Ev::ShrinkReplicaSet { fragment, new_set });
    }

    /// Schedule a node recovery at absolute time `at`.
    pub fn recover_at(&mut self, at: SimTime, node: NodeId) {
        self.engine.schedule_at(at, Ev::Recover(node));
    }

    /// Is `node` currently crashed?
    pub fn is_down(&self, node: NodeId) -> bool {
        self.down.contains(&node)
    }

    /// Handle the next event at or before `limit`. Returns `None` when no
    /// such event remains (clock advances to `limit`).
    pub fn step_until(&mut self, limit: SimTime) -> Option<(SimTime, Vec<Notification>)> {
        let (at, ev) = self.engine.pop_until(limit)?;
        let notes = self.handle(at, ev);
        Some((at, notes))
    }

    /// Pump every event up to `limit`, collecting all notifications.
    /// Only use when the driver has no triggers to run; otherwise loop over
    /// [`System::step_until`].
    pub fn run_until(&mut self, limit: SimTime) -> Vec<Notification> {
        let mut all = Vec::new();
        while let Some((_, notes)) = self.step_until(limit) {
            all.extend(notes);
        }
        all
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// A node's replica (read-only).
    pub fn replica(&self, node: NodeId) -> &Replica {
        &self.nodes[node.0 as usize].replica
    }

    /// The fragment catalog.
    pub fn catalog(&self) -> &FragmentCatalog {
        &self.catalog
    }

    /// The token registry.
    pub fn tokens(&self) -> &TokenRegistry {
        &self.tokens
    }

    /// Reliable-network activity counters.
    pub fn net_stats(&self) -> fragdb_net::ReliableStats {
        self.net.stats()
    }

    /// Publish reliable-layer totals into the metrics registry (gauge
    /// semantics — the stats are running totals, not deltas). Harnesses
    /// call this once at the end of a run so trace/report tooling sees the
    /// ack-compression win next to the event-level metrics.
    pub fn publish_net_metrics(&mut self) {
        let stats = self.net.stats();
        self.engine
            .metrics
            .set(keys::NET_ACK_CUMULATIVE, stats.cumulative_acks);
    }

    /// Number of nodes.
    pub fn node_count(&self) -> u32 {
        self.nodes.len() as u32
    }

    /// Fragments whose replicas currently diverge (content digests differ
    /// across nodes). Empty at quiescence ⟺ mutual consistency.
    pub fn divergent_fragments(&self) -> Vec<FragmentId> {
        let mut out = Vec::new();
        for frag in self.catalog.fragments() {
            let objects = &frag.objects;
            let mut digests = self
                .nodes
                .iter()
                .filter(|n| self.replicated_at(frag.id, n.replica.node))
                .map(|n| n.replica.digest(objects));
            let Some(first) = digests.next() else {
                continue;
            };
            if digests.any(|d| d != first) {
                out.push(frag.id);
            }
        }
        out
    }

    /// Count of submissions still parked behind an unfinished move.
    pub fn queued_submissions(&self) -> usize {
        self.queued.values().map(VecDeque::len).sum()
    }

    // ---- event dispatch --------------------------------------------------

    pub(crate) fn handle(&mut self, at: SimTime, ev: Ev) -> Vec<Notification> {
        match ev {
            Ev::Submit(sub) => self.handle_submission(at, sub),
            Ev::Pkt(pd) => self.handle_packet(at, pd),
            Ev::Rto(timer) => {
                let before = self.net_stats_if_telemetry();
                let actions = self.net.on_timer(at, timer, &mut self.engine.rng);
                self.schedule_net(actions);
                if let Some(b) = before {
                    self.emit_net_delta(b, timer.from, timer.to);
                }
                Vec::new()
            }
            Ev::Net(change) => {
                // Nothing to release: blocked traffic gets through on a
                // later retransmission once connectivity returns.
                self.net.apply_change(&change);
                Vec::new()
            }
            Ev::Crash(node) => self.handle_crash(at, node),
            Ev::Recover(node) => self.handle_recover(at, node),
            Ev::Move { fragment, to } => self.handle_move(at, fragment, to),
            Ev::DataArrive {
                fragment,
                to,
                snapshot,
                next_frag_seq,
                epoch,
            } => self.handle_data_arrive(at, fragment, to, snapshot, next_frag_seq, epoch),
            Ev::Timeout { txn } => self.handle_timeout(at, txn),
            Ev::FlushBatch { fragment, gen } => self.handle_flush_batch(at, fragment, gen),
            Ev::DetectorTick => self.handle_detector_tick(at),
            Ev::ElectionTimeout { fragment, epoch } => {
                self.handle_election_timeout(at, fragment, epoch)
            }
            Ev::ShrinkReplicaSet { fragment, new_set } => {
                self.handle_shrink_replica_set(at, fragment, new_set)
            }
        }
    }

    /// Schedule the reliable layer's follow-up work on the engine.
    pub(crate) fn schedule_net(&mut self, actions: Vec<NetAction<Envelope>>) {
        for action in actions {
            match action {
                NetAction::Deliver(deliver_at, pd) => {
                    self.engine.schedule_at(deliver_at, Ev::Pkt(pd));
                }
                NetAction::Timer(fire_at, timer) => {
                    self.engine.schedule_at(fire_at, Ev::Rto(timer));
                }
            }
        }
    }

    /// A wire packet arrives at a host. Crashed hosts drop everything on
    /// the floor (no ack — the sender keeps probing until the node
    /// recovers and resyncs); live hosts run the reliable layer, and each
    /// application message it releases is dispatched in order.
    fn handle_packet(&mut self, at: SimTime, pd: PktDelivery<Envelope>) -> Vec<Notification> {
        if self.down.contains(&pd.to) {
            self.engine.metrics.incr(keys::NET_DROPPED_AT_DOWN_NODE);
            let (from, to) = (pd.from, pd.to);
            self.engine.emit(|| TelemetryEvent::Dropped {
                from: from.0,
                to: to.0,
                count: 1,
            });
            return Vec::new();
        }
        let (from, to) = (pd.from, pd.to);
        let before = self.net_stats_if_telemetry();
        let (released, actions) = self.net.on_packet(at, pd, &mut self.engine.rng);
        self.schedule_net(actions);
        if let Some(b) = before {
            // Everything this call put on the wire went `to → from`: the
            // ack the receiver sent back, and the overdue packets that ack
            // progress on the reverse stream resent.
            self.emit_net_delta(b, to, from);
        }
        let mut notes = Vec::new();
        for d in released {
            notes.extend(self.handle_delivery(at, d));
        }
        notes
    }

    fn handle_delivery(&mut self, at: SimTime, d: Delivery<Envelope>) -> Vec<Notification> {
        self.engine.metrics.incr(d.msg.metric_key());
        let Delivery { from, to, msg } = d;
        let kind = msg.kind();
        self.engine.emit(|| TelemetryEvent::Delivered {
            from: from.0,
            to: to.0,
            kind,
        });
        self.dispatch(at, from, to, msg)
    }

    /// Run the handler for one envelope at `to`. The reliable layer has
    /// already released it exactly once and in per-pair send order (§3.2);
    /// nothing here re-orders or de-duplicates.
    fn dispatch(
        &mut self,
        at: SimTime,
        from: NodeId,
        to: NodeId,
        env: Envelope,
    ) -> Vec<Notification> {
        match env {
            Envelope::Quasi { quasi } => self.route_quasi_install(at, to, quasi),
            // Element by element, each as if it had arrived alone.
            Envelope::Batch { batch } => batch
                .into_iter()
                .flat_map(|quasi| self.route_quasi_install(at, to, quasi))
                .collect(),
            Envelope::Prepare { quasi } => self.on_prepare(at, from, to, quasi),
            Envelope::CommitCmd { txn, fragment } => {
                self.on_commit_cmd(at, from, to, txn, fragment)
            }
            Envelope::AbortCmd { txn } => {
                self.nodes[to.0 as usize].staged.remove(&txn);
                Vec::new()
            }
            Envelope::M0 {
                fragment,
                old_epoch,
                last_seq,
                entries,
                new_home,
            } => self.on_m0(at, to, fragment, old_epoch, last_seq, entries, new_home),
            Envelope::LockReq {
                txn,
                objects,
                reply_to,
            } => self.on_lock_req(at, to, txn, objects, reply_to),
            Envelope::LockGrant { txn, values } => self.on_lock_grant(at, from, txn, values),
            Envelope::LockDenied { txn } => self.on_lock_denied(at, txn),
            Envelope::LockRelease { txn } => self.on_lock_release(at, to, txn),
            Envelope::PrepareAck { txn, from: acker } => self.on_prepare_ack(at, txn, acker),
            Envelope::SeqQuery {
                fragment,
                have,
                upto,
                reply_to,
                include_staged,
            } => self.on_seq_query(at, to, fragment, have, upto, reply_to, include_staged),
            Envelope::SeqReply {
                fragment,
                from: replier,
                entries,
            } => self.on_seq_reply(at, to, fragment, replier, entries),
            Envelope::ForwardMissing { quasi } => self.noprep_install(at, to, quasi),
            Envelope::Heartbeat { from: beater, .. } => self.on_heartbeat(at, to, beater),
            Envelope::VoteReq {
                fragment,
                epoch,
                candidate,
                reply_to,
            } => self.on_vote_req(at, to, fragment, epoch, candidate, reply_to),
            Envelope::Vote {
                fragment,
                epoch,
                from: voter,
                granted,
            } => self.on_vote(at, to, fragment, epoch, voter, granted),
        }
    }

    // ---- shared plumbing -------------------------------------------------

    /// Telemetry causal id for a quasi-transaction's coordinates.
    pub(crate) fn cid(fragment: FragmentId, epoch: u64, frag_seq: u64) -> CausalId {
        CausalId {
            fragment: fragment.0,
            epoch,
            frag_seq,
        }
    }

    /// Snapshot reliable-layer stats, but only when telemetry will consume
    /// the delta — the disabled path stays a single branch.
    fn net_stats_if_telemetry(&self) -> Option<fragdb_net::ReliableStats> {
        self.engine.telemetry.is_enabled().then(|| self.net.stats())
    }

    /// Emit `Dropped` / `Retransmit` telemetry from a reliable-layer stats
    /// delta over one `send`/`on_timer`/`on_packet` call, attributed to the
    /// `from → to` direction the call transmitted in.
    fn emit_net_delta(&mut self, before: fragdb_net::ReliableStats, from: NodeId, to: NodeId) {
        let after = self.net.stats();
        let dropped =
            (after.fault_dropped - before.fault_dropped) + (after.unreachable - before.unreachable);
        if dropped > 0 {
            self.engine.emit(|| TelemetryEvent::Dropped {
                from: from.0,
                to: to.0,
                count: dropped,
            });
        }
        let retx = after.retransmissions - before.retransmissions;
        if retx > 0 {
            self.engine.emit(|| TelemetryEvent::Retransmit {
                from: from.0,
                to: to.0,
                count: retx,
            });
        }
    }

    /// Number of nodes a fragment-scoped broadcast addresses (the replica
    /// set minus the sender, which always holds a replica).
    pub(crate) fn broadcast_recipients(&self, fragment: FragmentId) -> u32 {
        match self.replica_sets.get(&fragment) {
            Some(set) => set.len().saturating_sub(1) as u32,
            None => self.nodes.len() as u32 - 1,
        }
    }

    /// The nodes holding a replica of `fragment` (§6 partial replication);
    /// `None` means fully replicated.
    pub fn replicas_of(&self, fragment: FragmentId) -> Option<&BTreeSet<NodeId>> {
        self.replica_sets.get(&fragment)
    }

    /// Is `fragment` replicated at `node`?
    pub fn replicated_at(&self, fragment: FragmentId, node: NodeId) -> bool {
        self.replica_sets
            .get(&fragment)
            .is_none_or(|set| set.contains(&node))
    }

    /// The peers `node` exchanges heartbeats with: every node it shares at
    /// least one fragment replica set with. Any fully replicated fragment
    /// (no explicit replica set) makes every other node a monitor peer, so
    /// fully replicated systems keep the all-pairs detector behavior and
    /// their golden traces; under partial replication the detector fan-out
    /// is bounded by the replica sets instead of O(n²).
    pub fn monitor_peers(&self, node: NodeId) -> BTreeSet<NodeId> {
        let n = self.nodes.len() as u32;
        let mut peers = BTreeSet::new();
        for frag in self.catalog.fragments() {
            match self.replica_sets.get(&frag.id) {
                None => {
                    return (0..n).map(NodeId).filter(|&p| p != node).collect();
                }
                Some(set) if set.contains(&node) => {
                    peers.extend(set.iter().copied().filter(|&p| p != node));
                }
                Some(_) => {}
            }
        }
        peers
    }

    /// §6: shrink `fragment`'s replica set to `new_set`. Validates that the
    /// fragment exists, the set is a non-empty subset of the current
    /// replica set containing the token home, and no move, election or
    /// majority commit is in flight; a refused request is skipped silently
    /// (the caller retries). A majority commit in flight would otherwise
    /// count acks from dropped nodes against the new set's smaller
    /// majority, and a later election over the new set could lose the
    /// commit. Dropped replicas stop receiving broadcasts immediately;
    /// majority quorums recompute over the new set; each node's detector
    /// roster is refreshed to the new monitor peers.
    fn handle_shrink_replica_set(
        &mut self,
        at: SimTime,
        fragment: FragmentId,
        new_set: BTreeSet<NodeId>,
    ) -> Vec<Notification> {
        if self.catalog.fragment(fragment).is_err()
            || new_set.is_empty()
            || self.move_state.contains_key(&fragment)
            || self.elections.contains_key(&fragment)
            || self.majority_inflight.contains_key(&fragment)
        {
            return Vec::new();
        }
        let n = self.nodes.len() as u32;
        let current_len = match self.replica_sets.get(&fragment) {
            Some(set) => {
                if !new_set.is_subset(set) {
                    return Vec::new();
                }
                set.len() as u32
            }
            None => {
                if new_set.iter().any(|r| r.0 >= n) {
                    return Vec::new();
                }
                n
            }
        };
        if !new_set.contains(&self.tokens.home(fragment)) {
            return Vec::new();
        }
        let to_count = new_set.len() as u32;
        if to_count == current_len {
            return Vec::new();
        }
        self.replica_sets.insert(fragment, new_set);
        self.engine.emit(|| TelemetryEvent::ReplicaSetChanged {
            fragment: fragment.0,
            from_count: current_len,
            to_count,
        });
        self.refresh_detector_peers(at);
        Vec::new()
    }

    /// Re-derive every live node's detector roster from the current
    /// replica sets: peers that stopped sharing a replica set are
    /// forgotten, newly shared peers start tracking with a full silence
    /// allowance from `at`. Existing entries keep their timestamps and
    /// standing suspicions.
    fn refresh_detector_peers(&mut self, at: SimTime) {
        if !self.detector_cfg.enabled() {
            return;
        }
        let nodes: Vec<NodeId> = self.detectors.keys().copied().collect();
        for node in nodes {
            let want = self.monitor_peers(node);
            let d = self.detectors.get_mut(&node).expect("collected above");
            for p in d.tracked() {
                if !want.contains(&p) {
                    d.forget(p);
                }
            }
            for p in want {
                if !d.is_tracked(p) {
                    d.track(p, at);
                }
            }
        }
    }

    /// The effective control strategy for `fragment` (§6 mixtures).
    pub fn strategy_for(&self, fragment: FragmentId) -> &StrategyKind {
        self.strategy_overrides
            .get(&fragment)
            .unwrap_or(&self.strategy)
    }

    /// The effective movement policy for `fragment` (§6 mixtures).
    pub fn move_policy_for(&self, fragment: FragmentId) -> &MovePolicy {
        self.move_overrides
            .get(&fragment)
            .unwrap_or(&self.move_policy)
    }

    /// Allocate a fresh transaction id for a transaction executing at `node`.
    pub(crate) fn alloc_txn(&mut self, node: NodeId) -> TxnId {
        let seq = &mut self.next_txn_seq[node.0 as usize];
        let id = TxnId::new(node, *seq);
        *seq += 1;
        id
    }

    /// Broadcast a fragment-scoped envelope from `from` to every other
    /// holder of a replica of `fragment` (§6 partial replication; every
    /// other node when fully replicated). §3.2 broadcast is this fan-out
    /// loop over the reliable layer's per-pair FIFO streams: each target
    /// gets a clone, payloads are `Arc`-shared.
    pub(crate) fn broadcast_fragment(
        &mut self,
        at: SimTime,
        from: NodeId,
        fragment: FragmentId,
        env: Envelope,
    ) {
        let n = self.nodes.len() as u32;
        let mut next = 0;
        loop {
            // Walk the targets in ascending node order without holding a
            // borrow of the replica set across the send.
            let to = match self.replica_sets.get(&fragment) {
                Some(set) => set.range(NodeId(next)..).next().copied(),
                None => (next < n).then_some(NodeId(next)),
            };
            let Some(to) = to else { return };
            next = to.0 + 1;
            if to != from {
                self.send_remote(at, from, to, env.clone());
            }
        }
    }

    /// Meter an outgoing payload-bearing envelope: the payload travels as a
    /// shared reference, where it used to be deep-cloned once per receiver.
    fn meter_payload_share(&mut self, env: &Envelope) {
        if let Some(bytes) = env.payload_bytes() {
            self.engine.metrics.incr(keys::PAYLOAD_SHARES);
            self.engine.metrics.add(keys::PAYLOAD_SHARE_BYTES, bytes);
        }
    }

    /// Materialize a commit's broadcast payload from its owned writes — the
    /// single deep copy the commit performs; every downstream copy
    /// (envelopes, retransmission buffers, hold-back, staging, WALs) shares
    /// the allocation. Metered so tests can assert the O(1)-per-commit
    /// property.
    pub(crate) fn materialize_payload(&mut self, writes: Vec<(ObjectId, Value)>) -> Updates {
        let updates: Updates = writes.into();
        self.engine.metrics.incr(keys::PAYLOAD_CLONES);
        self.engine
            .metrics
            .add(keys::PAYLOAD_CLONE_BYTES, updates.approx_bytes());
        updates
    }

    /// Send a point-to-point envelope (retransmitted until acknowledged;
    /// loopback is dispatched inline).
    pub(crate) fn send_direct(
        &mut self,
        at: SimTime,
        from: NodeId,
        to: NodeId,
        env: Envelope,
    ) -> Vec<Notification> {
        if from == to {
            return self.dispatch(at, from, to, env);
        }
        self.send_remote(at, from, to, env);
        Vec::new()
    }

    /// Hand one envelope to the reliable layer and schedule what it returns.
    fn send_remote(&mut self, at: SimTime, from: NodeId, to: NodeId, env: Envelope) {
        self.meter_payload_share(&env);
        let before = self.net_stats_if_telemetry();
        let actions = self.net.send(at, from, to, env, &mut self.engine.rng);
        self.schedule_net(actions);
        if let Some(b) = before {
            self.emit_net_delta(b, from, to);
        }
    }

    /// Schedule a timeout for a pending transaction.
    pub(crate) fn arm_timeout(&mut self, delay: SimDuration, txn: TxnId) {
        self.engine.schedule(delay, Ev::Timeout { txn });
    }

    fn handle_timeout(&mut self, at: SimTime, txn: TxnId) -> Vec<Notification> {
        if !self.pending.contains_key(&txn) {
            return Vec::new();
        }
        self.abort_pending(at, txn, AbortReason::Unavailable)
    }

    // ---- crash / recovery ------------------------------------------------

    /// A node fails: everything volatile is lost. The store, lock tables,
    /// staged prepares, hold-back queues, and pending protocol state
    /// vanish; the WAL (stable storage) survives. In-flight transactions
    /// homed at the node abort — but a dead node cannot broadcast its
    /// aborts, so they are recorded as tombstones announced at recovery
    /// (presumed abort).
    fn handle_crash(&mut self, at: SimTime, node: NodeId) -> Vec<Notification> {
        if !self.down.insert(node) {
            return Vec::new(); // already down
        }
        self.engine.metrics.incr(keys::NODE_CRASH);
        self.engine.emit(|| TelemetryEvent::Crash { node: node.0 });
        self.net.crash(node);
        // Un-flushed group-commit batches are volatile send-side state,
        // exactly like the reliable layer's unacked buffer: the commits
        // survive only in this node's WAL and reach the other replicas
        // through recovery anti-entropy. Each discarded quasi gets an
        // explicit `BatchDiscarded` event so its causal id is closed in
        // the telemetry join rather than dangling as a phantom lag.
        let dead_batches: Vec<FragmentId> = self
            .open_batches
            .iter()
            .filter(|(_, ob)| ob.home == node)
            .map(|(&f, _)| f)
            .collect();
        for f in dead_batches {
            let ob = self.open_batches.remove(&f).expect("collected above");
            for q in &ob.quasis {
                self.engine.metrics.incr(keys::BATCH_DISCARDED);
                let cause = Self::cid(q.fragment, q.epoch, q.frag_seq);
                self.engine.emit(|| TelemetryEvent::BatchDiscarded {
                    cause,
                    node: node.0,
                });
            }
        }

        let slot = &mut self.nodes[node.0 as usize];
        slot.replica.crash();
        slot.locks = LockManager::new();
        slot.remote_reqs.clear();
        slot.staged.clear();
        slot.next_install.clear();
        slot.holdback.clear();
        slot.regime_close.clear();
        slot.noprep_handled.clear();

        let mine: Vec<TxnId> = self
            .pending
            .iter()
            .filter(|(_, p)| match p {
                Pending::LockAcq { home, .. }
                | Pending::XWait { home, .. }
                | Pending::Majority { home, .. } => *home == node,
            })
            .map(|(&t, _)| t)
            .collect();
        let mut notes = Vec::new();
        for txn in mine {
            notes.extend(self.abort_crashed(node, txn));
        }
        notes.extend(self.unwind_moves_on_crash(at, node));
        self.election_cleanup_on_crash(node);
        self.detectors.remove(&node);
        notes.push(Notification::Crashed { node, at });
        notes
    }

    /// Bug-sweep (liveness): a crash of a move endpoint used to leave the
    /// `MoveState` entry in place forever — nothing re-drove it, so the
    /// fragment stayed write-unavailable and queued submissions never
    /// drained. Unwind or re-drive every affected move.
    fn unwind_moves_on_crash(&mut self, at: SimTime, node: NodeId) -> Vec<Notification> {
        let affected: Vec<FragmentId> = self
            .move_state
            .iter()
            .filter(|(_, st)| match st {
                MoveState::MajorityRecovery {
                    new_home, old_home, ..
                }
                | MoveState::AwaitingData { new_home, old_home }
                | MoveState::AwaitingSeq {
                    new_home, old_home, ..
                } => *new_home == node || *old_home == node,
            })
            .map(|(&f, _)| f)
            .collect();
        let mut notes = Vec::new();
        for fragment in affected {
            let st = self.move_state.get(&fragment).expect("collected above");
            let (new_home, old_home) = match st {
                MoveState::MajorityRecovery {
                    new_home, old_home, ..
                }
                | MoveState::AwaitingData { new_home, old_home }
                | MoveState::AwaitingSeq {
                    new_home, old_home, ..
                } => (*new_home, *old_home),
            };
            if new_home == node {
                // The destination died mid-move: abort the move. The token
                // reattaches to the old home when it is still alive (epoch
                // bumps, fencing any stray destination-side traffic); when
                // it is not — an elected recovery whose candidate crashed —
                // the token stays put and the next detector sweep elects a
                // fresh candidate.
                self.move_state.remove(&fragment);
                if !self.down.contains(&old_home) {
                    self.tokens.reattach(fragment, old_home);
                    // Resume the sequence from the old home's installed
                    // prefix, exactly as a *completed* recovery would
                    // (`check_recovery_done`). Without this, a sequence
                    // number reserved by a commit the move orphan-aborted
                    // stays consumed — the abort's epoch fence refused to
                    // roll the counter back — and the permanent hole holds
                    // back every later install at every replica.
                    let next = self.nodes[old_home.0 as usize]
                        .next_install
                        .get(&fragment)
                        .copied()
                        .unwrap_or(0);
                    self.tokens.set_next_frag_seq(fragment, next);
                }
                self.engine.emit(|| TelemetryEvent::MoveAborted {
                    fragment: fragment.0,
                    from: old_home.0,
                    to: new_home.0,
                });
                notes.extend(self.drain_queued(at, fragment));
            } else if matches!(st, MoveState::AwaitingSeq { .. }) {
                // §4.4.2B with the old home dead: the missing prefix may
                // have died in the old home's unacked send buffer. Re-drive
                // via anti-entropy against every other replica — a live one
                // answers from its installed copy, and the query addressed
                // to the dead old home itself is retransmitted until it
                // recovers and answers from its WAL, so the move completes
                // even when no live replica ever saw the missing entries.
                let MoveState::AwaitingSeq { upto, .. } =
                    *self.move_state.get(&fragment).expect("collected above")
                else {
                    unreachable!("matched above");
                };
                let have = self.nodes[new_home.0 as usize]
                    .replica
                    .last_frag_seq(fragment);
                let targets: Vec<NodeId> = match self.replicas_of(fragment) {
                    Some(set) => set.iter().copied().collect(),
                    None => (0..self.nodes.len() as u32).map(NodeId).collect(),
                };
                for t in targets {
                    if t == new_home {
                        continue;
                    }
                    notes.extend(self.send_direct(
                        at,
                        new_home,
                        t,
                        Envelope::SeqQuery {
                            fragment,
                            have,
                            upto: upto.checked_sub(1),
                            reply_to: new_home,
                            include_staged: false,
                        },
                    ));
                }
            }
            // MajorityRecovery with the old home dead needs nothing: the
            // recovery majority forms from the surviving replicas'
            // `SeqReply`s (every committed entry was acked by a majority).
        }
        notes
    }

    /// Abort one in-flight transaction that died with its home node,
    /// recording the cleanup messages the node owes as tombstones.
    fn abort_crashed(&mut self, node: NodeId, txn: TxnId) -> Vec<Notification> {
        let Some(pending) = self.pending.remove(&txn) else {
            return Vec::new();
        };
        let (fragment, tombstone) = match pending {
            Pending::LockAcq {
                fragment,
                contacted_sites,
                ..
            }
            | Pending::XWait {
                fragment,
                contacted_sites,
                ..
            } => {
                let sites: BTreeSet<NodeId> =
                    contacted_sites.into_iter().filter(|s| *s != node).collect();
                (
                    fragment,
                    (!sites.is_empty()).then_some(CrashTombstone::LockRelease { txn, sites }),
                )
            }
            Pending::Majority {
                fragment, quasi, ..
            } => {
                self.majority_inflight.remove(&fragment);
                // Return the reserved sequence number so no gap forms —
                // unless the token has since been re-homed (epoch bumped):
                // the new regime's recovery already reset the counter, and
                // rolling it back would corrupt the new home's sequence.
                if quasi.epoch == self.tokens.epoch(fragment) {
                    let seq = self.tokens.peek_frag_seq(fragment);
                    self.tokens
                        .set_next_frag_seq(fragment, seq.saturating_sub(1));
                }
                (fragment, Some(CrashTombstone::AbortCmd { fragment, txn }))
            }
        };
        if let Some(t) = tombstone {
            self.tombstones.entry(node).or_default().push(t);
        }
        self.finish_abort(txn, fragment, AbortReason::Unavailable)
    }

    /// A node restarts: replay the WAL into the store, resync the reliable
    /// layer's streams touching the node (pre-crash packets drain as
    /// duplicates), announce the tombstoned aborts, and run `SeqQuery`
    /// anti-entropy against each fragment's home to catch up on what was
    /// missed.
    fn handle_recover(&mut self, at: SimTime, node: NodeId) -> Vec<Notification> {
        if !self.down.remove(&node) {
            return Vec::new(); // was not down
        }
        self.engine.metrics.incr(keys::NODE_RECOVER);

        let frags: Vec<FragmentId> = self.catalog.fragments().iter().map(|f| f.id).collect();
        let slot = &mut self.nodes[node.0 as usize];
        slot.replica.recover(at);
        for &f in &frags {
            if let Some(s) = slot.replica.last_frag_seq(f) {
                slot.next_install.insert(f, s + 1);
            }
        }

        self.net.resync_node(node);

        if self.detector_cfg.enabled() {
            // The liveness view is volatile: restart with a fresh full
            // silence allowance for every peer, so stale pre-crash
            // timestamps cannot produce instant suspicions.
            let mut d = FailureDetector::new(
                self.detector_cfg.heartbeat_period,
                crate::config::SUSPECT_AFTER,
            );
            for peer in self.monitor_peers(node) {
                d.track(peer, at);
            }
            self.detectors.insert(node, d);
        }

        let mut notes = Vec::new();
        for t in self.tombstones.remove(&node).unwrap_or_default() {
            match t {
                CrashTombstone::AbortCmd { fragment, txn } => {
                    self.broadcast_fragment(at, node, fragment, Envelope::AbortCmd { txn });
                }
                CrashTombstone::LockRelease { txn, sites } => {
                    for site in sites {
                        notes.extend(self.send_direct(
                            at,
                            node,
                            site,
                            Envelope::LockRelease { txn },
                        ));
                    }
                }
            }
        }

        // Anti-entropy: the home has the full installed sequence (it
        // commits locally before broadcasting), so one round trip per
        // fragment closes the gap. `recovering` records the catch-up
        // target; `do_install` observes `latency.recovery` when it's met.
        for &f in &frags {
            if !self.replicated_at(f, node) {
                continue;
            }
            let target = self.tokens.peek_frag_seq(f);
            let have = self.nodes[node.0 as usize].replica.last_frag_seq(f);
            let home = self.tokens.home(f);
            if have.map_or(0, |h| h + 1) >= target || home == node || self.down.contains(&home) {
                continue;
            }
            self.recovering.insert((node, f), (target, at));
            // Bounded range anti-entropy: the catch-up target is known, so
            // ask for exactly `have+1 ..= target-1`. Commits issued after
            // this instant reach the node as ordinary broadcasts.
            notes.extend(self.send_direct(
                at,
                node,
                home,
                Envelope::SeqQuery {
                    fragment: f,
                    have,
                    upto: target.checked_sub(1),
                    reply_to: node,
                    include_staged: false,
                },
            ));
        }
        let behind = self.recovering.keys().filter(|&&(n, _)| n == node).count() as u64;
        self.engine.emit(|| TelemetryEvent::Recover {
            node: node.0,
            behind_fragments: behind,
        });
        if behind == 0 {
            // Nothing was missed: recovery completes with WAL replay alone.
            self.engine.metrics.observe(keys::LATENCY_RECOVERY, 0);
            self.engine
                .emit(|| TelemetryEvent::CatchupComplete { node: node.0 });
        }
        notes.push(Notification::Recovered { node, at });
        notes
    }
}
