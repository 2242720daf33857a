//! The [`System`]: `n` replicated nodes wired to a simulated network,
//! executing transactions under a chosen control strategy and movement
//! policy, recording everything into a [`History`].
//!
//! The system is *driven*: workload code schedules [`Ev`]s (submissions,
//! partitions, agent moves) on the engine and then pumps
//! [`System::step_until`], reacting to the returned [`Notification`]s.
//! Inside, every handler pushes its notifications, in order, into the one
//! `Vec` a step returns.
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
use std::rc::Rc;

use fragdb_model::{
    AgentId, FragmentCatalog, FragmentId, History, NodeId, ObjectId, QuasiTransaction, TxnId,
    Updates, Value,
};
use fragdb_net::{
    Delivery, FailureDetector, NetAction, NetworkChange, PktDelivery, ReliableNet, Topology,
};
use fragdb_sim::metrics::keys::slot;
use fragdb_sim::{CausalId, Engine, SimDuration, SimRng, SimTime, TelemetryEvent};
use fragdb_storage::{LockManager, Replica};

use crate::config::SystemConfig;
use crate::envelope::Envelope;
use crate::events::{AbortReason, Ev, Notification, Submission};
use crate::movement::MovePolicy;
use crate::program::{TxnEffects, UpdateFn};
use crate::strategy::{StrategyError, StrategyKind};
use crate::tokens::TokenRegistry;

/// The sink a step's handlers push their notifications into, in the order
/// they happen.
pub(crate) type Notes = Vec<Notification>;

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
    /// `next_install[f]`: the next `frag_seq` of fragment `f` ordered
    /// installation expects; `None` (or past the end) until the node
    /// tracks `f`. Indexed by the (dense from 0) fragment id, so an install
    /// finds it without a search, and grown on first use, so a node that
    /// installs nothing holds nothing.
    pub next_install: Vec<Option<u64>>,
    /// Out-of-order quasi-transactions held until their predecessors land.
    pub holdback: BTreeMap<FragmentId, BTreeMap<u64, QuasiTransaction>>,
    /// §4.4.3: what this node learned from `M0` about a closed regime.
    pub regime_close: BTreeMap<FragmentId, RegimeClose>,
    /// §4.4.3: late `(epoch, frag_seq)` transactions this node (as a new
    /// home) has already repackaged — a late transaction can arrive twice,
    /// once from the origin's broadcast and once forwarded by a third node.
    pub noprep_handled: BTreeMap<FragmentId, BTreeSet<(u64, u64)>>,
}

impl NodeSlot {
    /// The next `frag_seq` this node installs of `fragment` (0 while
    /// untracked).
    pub fn install_frontier(&self, fragment: FragmentId) -> u64 {
        let tracked = self.next_install.get(fragment.0 as usize).copied();
        tracked.flatten().unwrap_or(0)
    }

    /// Ordered installation of `fragment` resumes at `next`.
    pub fn set_install_frontier(&mut self, fragment: FragmentId, next: u64) {
        *self.frontier_mut(fragment) = Some(next);
    }

    /// `fragment`'s entry of `next_install`, grown into existence.
    pub fn frontier_mut(&mut self, fragment: FragmentId) -> &mut Option<u64> {
        let f = fragment.0 as usize;
        if f >= self.next_install.len() {
            self.next_install.resize(f + 1, None);
        }
        &mut self.next_install[f]
    }
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
        /// The transaction's buffers: its reads, flushed at commit, and
        /// the acks counted so far.
        effects: TxnEffects,
        submitted_at: SimTime,
    },
}

/// Per-fragment state while an agent move is in progress. It remembers
/// `old_home` so a crash of either endpoint mid-move can be unwound (the
/// token reattaches to the surviving side instead of the move stalling
/// forever).
pub(crate) struct MoveState {
    pub new_home: NodeId,
    pub old_home: NodeId,
    /// What the new home waits for before the move completes.
    pub wait: MoveWait,
}

/// What a move in progress waits for, per movement policy.
pub(crate) enum MoveWait {
    /// §4.4.1: new home is recovering the update sequence from a majority.
    MajorityRecovery {
        /// `true` when a quorum election (not the driver) started the
        /// recovery; completion then emits `TokenRecovered`.
        elected: bool,
        /// Each replier (the new home included) and its installed
        /// frontier when it answered.
        replies: BTreeMap<NodeId, Option<u64>>,
    },
    /// §4.4.2A: waiting for the couriered fragment copy.
    AwaitingData,
    /// §4.4.2B: new home waits until it has installed everything below
    /// `upto`.
    AwaitingSeq { upto: u64 },
}

/// A submission parked while its fragment is mid-move (or behind a
/// serialized majority commit).
pub(crate) struct QueuedSub {
    pub submission: Submission,
    pub queued_at: SimTime,
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
    /// Sends each crashed node made while down, in order: `(to, envelope)`.
    /// A dead node cannot send; they go out when it recovers ("presumed
    /// abort, declared on restart").
    pub(crate) owed: BTreeMap<NodeId, Vec<(NodeId, Envelope)>>,
    /// Crash-recovery catch-up in progress: `(node, fragment)` → the
    /// `next_install` target that means "caught up", and when recovery
    /// started (for the `latency.recovery` metric).
    pub(crate) recovering: BTreeMap<(NodeId, FragmentId), (u64, SimTime)>,
    pub(crate) next_txn_seq: Vec<u64>,
    pub(crate) pending: BTreeMap<TxnId, Pending>,
    pub(crate) move_state: BTreeMap<FragmentId, MoveState>,
    pub(crate) queued: BTreeMap<FragmentId, VecDeque<QueuedSub>>,
    /// §6: partial replication map (absent = fully replicated). Fixed by
    /// `build`; nothing changes membership afterwards. Shared, so a
    /// broadcast walks a set it looked up once while it sends.
    pub(crate) replica_sets: BTreeMap<FragmentId, Rc<BTreeSet<NodeId>>>,
    /// Each node's [`System::monitor_peers`], derived from the replica
    /// sets at build; `None` when a fully replicated fragment makes every
    /// other node a peer, which needs no table.
    pub(crate) peer_sets: Option<Vec<Vec<NodeId>>>,
    /// Group-commit batching knob (off by default).
    pub(crate) batch_cfg: crate::config::BatchConfig,
    /// Each fragment's group-commit batch at its home, indexed by fragment
    /// id and grown on first use; open while it holds a quasi. A flushed
    /// batch keeps its buffer for the next one.
    pub(crate) open_batches: Vec<OpenBatch>,
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
    /// The reliable layer's actions and released messages, kept between
    /// calls so the per-message path allocates no fresh `Vec`.
    net_actions: Vec<NetAction<Envelope>>,
    net_released: Vec<Delivery<Envelope>>,
    /// Transaction buffers not lent out: one set per transaction that has
    /// been in flight at once, each handed back cleared.
    spare_effects: Vec<TxnEffects>,
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
                next_install: Vec::new(),
                holdback: BTreeMap::new(),
                regime_close: BTreeMap::new(),
                noprep_handled: BTreeMap::new(),
            })
            .collect();
        let peer_sets = peer_sets(&catalog, &config.replica_sets, n);
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
            owed: BTreeMap::new(),
            recovering: BTreeMap::new(),
            next_txn_seq: vec![0; n as usize],
            pending: BTreeMap::new(),
            move_state: BTreeMap::new(),
            queued: BTreeMap::new(),
            peer_sets,
            replica_sets: (config.replica_sets.into_iter())
                .map(|(f, set)| (f, Rc::new(set)))
                .collect(),
            batch_cfg: config.batch,
            open_batches: Vec::new(),
            next_batch_gen: 0,
            detector_cfg: config.detector,
            detectors: BTreeMap::new(),
            elections: BTreeMap::new(),
            granted_votes: BTreeMap::new(),
            detector_beat: 0,
            net_actions: Vec::new(),
            net_released: Vec::new(),
            spare_effects: Vec::new(),
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
        let mut notes = Vec::new();
        self.handle(at, ev, &mut notes);
        Some((at, notes))
    }

    /// Pump every event up to `limit`, collecting all notifications.
    /// Only use when the driver has no triggers to run; otherwise loop over
    /// [`System::step_until`].
    pub fn run_until(&mut self, limit: SimTime) -> Vec<Notification> {
        let mut all = Vec::new();
        while let Some((at, ev)) = self.engine.pop_until(limit) {
            self.handle(at, ev, &mut all);
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
            .set(slot::NET_ACK_CUMULATIVE, stats.cumulative_acks);
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

    /// Handle one event, pushing its notifications onto `notes`.
    pub(crate) fn handle(&mut self, at: SimTime, ev: Ev, notes: &mut Notes) {
        match ev {
            Ev::Submit(sub) => self.handle_submission(at, sub, notes),
            Ev::Pkt(pd) => self.handle_packet(at, pd, notes),
            Ev::Rto(timer) => {
                let before = self.net_stats_if_telemetry();
                self.net_call(|net, rng, out| net.on_timer_into(at, timer, rng, out));
                if let Some(b) = before {
                    self.emit_net_delta(b, timer.from, timer.to);
                }
            }
            // Nothing to release: blocked traffic gets through on a later
            // retransmission once connectivity returns.
            Ev::Net(change) => self.net.apply_change(&change),
            Ev::Crash(node) => self.handle_crash(at, node, notes),
            Ev::Recover(node) => self.handle_recover(at, node, notes),
            Ev::Move { fragment, to } => self.handle_move(at, fragment, to, notes),
            Ev::DataArrive {
                fragment,
                to,
                snapshot,
                next_frag_seq,
                ..
            } => self.handle_data_arrive(at, fragment, to, snapshot, next_frag_seq, notes),
            Ev::Timeout { txn } => self.abort_pending(at, txn, AbortReason::Unavailable, notes),
            Ev::FlushBatch { fragment, gen } => self.handle_flush_batch(at, fragment, gen),
            Ev::DetectorTick => self.handle_detector_tick(at, notes),
            Ev::ElectionTimeout { fragment, epoch } => {
                self.handle_election_timeout(at, fragment, epoch)
            }
        }
    }

    /// Run one reliable-layer call against the reused action buffer and
    /// schedule the follow-up work it produced on the engine.
    fn net_call(
        &mut self,
        call: impl FnOnce(&mut ReliableNet<Envelope>, &mut SimRng, &mut Vec<NetAction<Envelope>>),
    ) {
        let mut actions = std::mem::take(&mut self.net_actions);
        call(&mut self.net, &mut self.engine.rng, &mut actions);
        for action in actions.drain(..) {
            match action {
                NetAction::Deliver(deliver_at, pd) => {
                    self.engine.schedule_at(deliver_at, Ev::Pkt(pd));
                }
                NetAction::Timer(fire_at, timer) => {
                    self.engine.schedule_at(fire_at, Ev::Rto(timer));
                }
            }
        }
        self.net_actions = actions;
    }

    /// A wire packet arrives at a host. Crashed hosts drop everything on
    /// the floor (no ack — the sender keeps probing until the node
    /// recovers and resyncs); live hosts run the reliable layer, and each
    /// application message it releases is dispatched in order.
    fn handle_packet(&mut self, at: SimTime, pd: PktDelivery<Envelope>, notes: &mut Notes) {
        if self.down.contains(&pd.to) {
            self.engine.metrics.incr(slot::NET_DROPPED_AT_DOWN_NODE);
            let (from, to) = (pd.from, pd.to);
            self.engine.emit(|| TelemetryEvent::Dropped {
                from: from.0,
                to: to.0,
                count: 1,
            });
            return;
        }
        let (from, to) = (pd.from, pd.to);
        let before = self.net_stats_if_telemetry();
        let mut released = std::mem::take(&mut self.net_released);
        self.net_call(|net, rng, out| net.on_packet_into(at, pd, rng, &mut released, out));
        if let Some(b) = before {
            // Everything this call put on the wire went `to → from`: the
            // ack the receiver sent back, and the overdue packets that ack
            // progress on the reverse stream resent.
            self.emit_net_delta(b, to, from);
        }
        for d in released.drain(..) {
            self.handle_delivery(at, d, notes);
        }
        self.net_released = released;
    }

    fn handle_delivery(&mut self, at: SimTime, d: Delivery<Envelope>, notes: &mut Notes) {
        self.engine.metrics.incr(d.msg.metric_slot());
        let Delivery { from, to, msg } = d;
        let kind = msg.kind();
        self.engine.emit(|| TelemetryEvent::Delivered {
            from: from.0,
            to: to.0,
            kind,
        });
        self.dispatch(at, from, to, msg, notes);
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
        notes: &mut Notes,
    ) {
        match env {
            Envelope::Quasi { quasi } => self.route_quasi_install(at, to, quasi, notes),
            // Element by element, each as if it had arrived alone; each
            // installs with one notification, so the sink grows once.
            Envelope::Batch { batch } => {
                notes.reserve(batch.len());
                for quasi in batch.iter() {
                    self.route_quasi_install(at, to, quasi.clone(), notes);
                }
            }
            Envelope::Prepare { quasi } => self.on_prepare(at, from, to, quasi, notes),
            Envelope::CommitCmd { txn, fragment } => {
                self.on_commit_cmd(at, from, to, txn, fragment, notes)
            }
            Envelope::AbortCmd { txn } => {
                self.nodes[to.0 as usize].staged.remove(&txn);
            }
            Envelope::M0 {
                fragment,
                old_epoch,
                last_seq,
                entries,
                new_home,
            } => {
                let close = RegimeClose {
                    old_epoch,
                    last_seq,
                    new_home,
                };
                self.on_m0(at, to, fragment, close, entries, notes)
            }
            Envelope::LockReq {
                txn,
                objects,
                reply_to,
            } => self.on_lock_req(at, to, txn, objects, reply_to, notes),
            Envelope::LockGrant { txn, values } => self.on_lock_grant(at, from, txn, values, notes),
            Envelope::LockDenied { txn } => {
                self.abort_pending(at, txn, AbortReason::Deadlock, notes)
            }
            Envelope::LockRelease { txn } => self.on_lock_release(at, to, txn, notes),
            Envelope::PrepareAck { txn, from: acker } => self.on_prepare_ack(at, txn, acker, notes),
            Envelope::SeqQuery {
                fragment,
                have,
                upto,
                reply_to,
                include_staged,
            } => self.on_seq_query(
                at,
                to,
                fragment,
                have,
                upto,
                reply_to,
                include_staged,
                notes,
            ),
            Envelope::SeqReply {
                fragment,
                from: replier,
                frontier,
                entries,
            } => self.on_seq_reply(at, to, fragment, replier, frontier, entries, notes),
            Envelope::ForwardMissing { quasi } => self.noprep_install(at, to, quasi, notes),
            Envelope::Heartbeat { from: beater, .. } => self.on_heartbeat(at, to, beater),
            Envelope::VoteReq {
                fragment,
                epoch,
                candidate,
                reply_to,
            } => self.on_vote_req(at, to, fragment, epoch, candidate, reply_to, notes),
            Envelope::Vote {
                fragment,
                epoch,
                from: voter,
                granted,
            } => self.on_vote(at, to, fragment, epoch, voter, granted, notes),
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
        self.replica_sets.get(&fragment).map(|set| &**set)
    }

    /// The nodes holding a replica of `fragment`, ascending: its replica
    /// set, or every node when fully replicated.
    pub(crate) fn roster(&self, fragment: FragmentId) -> Vec<NodeId> {
        match self.replica_sets.get(&fragment) {
            Some(set) => set.iter().copied().collect(),
            None => (0..self.nodes.len() as u32).map(NodeId).collect(),
        }
    }

    /// Is `fragment` replicated at `node`?
    pub fn replicated_at(&self, fragment: FragmentId, node: NodeId) -> bool {
        self.replica_sets
            .get(&fragment)
            .is_none_or(|set| set.contains(&node))
    }

    /// The peers `node` exchanges heartbeats with, ascending: every node it
    /// shares at least one fragment replica set with. Any fully replicated
    /// fragment (no explicit replica set) makes every other node a monitor
    /// peer, so fully replicated systems keep the all-pairs detector
    /// behavior and their golden traces; under partial replication the
    /// detector fan-out is bounded by the replica sets instead of O(n²).
    pub fn monitor_peers(&self, node: NodeId) -> Vec<NodeId> {
        (0..).map_while(|i| self.monitor_peer(node, i)).collect()
    }

    /// `node`'s `i`-th monitor peer in ascending order, if it has that
    /// many: the detector walks the peers by index, borrowing nothing
    /// across its sends.
    pub(crate) fn monitor_peer(&self, node: NodeId, i: usize) -> Option<NodeId> {
        match &self.peer_sets {
            Some(sets) => sets[node.0 as usize].get(i).copied(),
            // Every node but `node` itself.
            None => (i + 1 < self.nodes.len())
                .then(|| NodeId((i + usize::from(i >= node.0 as usize)) as u32)),
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
    /// other node when fully replicated), in ascending node order. §3.2
    /// broadcast is this fan-out loop over the reliable layer's per-pair
    /// FIFO streams: each target gets a clone, payloads are `Arc`-shared.
    pub(crate) fn broadcast_fragment(
        &mut self,
        at: SimTime,
        from: NodeId,
        fragment: FragmentId,
        env: Envelope,
    ) {
        let others = |to: &NodeId| *to != from;
        match self.replica_sets.get(&fragment).cloned() {
            Some(set) => {
                for &to in set.iter().filter(|to| others(to)) {
                    self.send_remote(at, from, to, env.clone());
                }
            }
            None => {
                for to in (0..self.nodes.len() as u32).map(NodeId).filter(others) {
                    self.send_remote(at, from, to, env.clone());
                }
            }
        }
    }

    /// Meter an outgoing payload-bearing envelope: the payload travels as a
    /// shared reference, where it used to be deep-cloned once per receiver.
    fn meter_payload_share(&mut self, env: &Envelope) {
        if let Some(bytes) = env.payload_bytes() {
            self.engine.metrics.incr(slot::PAYLOAD_SHARES);
            self.engine.metrics.add(slot::PAYLOAD_SHARE_BYTES, bytes);
        }
    }

    /// Materialize a commit's broadcast payload from its writes — the
    /// single allocation the commit makes for it (a drained buffer moves
    /// its values in); every downstream copy (envelopes, retransmission
    /// buffers, hold-back, staging, WALs) shares it. Metered so tests can
    /// assert the O(1)-per-commit property.
    pub(crate) fn materialize_payload(&mut self, writes: &mut Vec<(ObjectId, Value)>) -> Updates {
        let updates: Updates = writes.drain(..).collect();
        self.engine.metrics.incr(slot::PAYLOAD_CLONES);
        self.engine
            .metrics
            .add(slot::PAYLOAD_CLONE_BYTES, updates.approx_bytes());
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
        notes: &mut Notes,
    ) {
        if from == to {
            self.dispatch(at, from, to, env, notes);
        } else {
            self.send_remote(at, from, to, env);
        }
    }

    /// Hand one envelope to the reliable layer and schedule what it returns.
    /// A crashed sender's envelope waits in `owed` for its recovery.
    fn send_remote(&mut self, at: SimTime, from: NodeId, to: NodeId, env: Envelope) {
        if self.down.contains(&from) {
            self.owed.entry(from).or_default().push((to, env));
            return;
        }
        self.meter_payload_share(&env);
        let before = self.net_stats_if_telemetry();
        self.net_call(|net, rng, out| net.send_into(at, from, to, env, rng, out));
        if let Some(b) = before {
            self.emit_net_delta(b, from, to);
        }
    }

    /// Take a transaction's buffers back when it ends, however it ends.
    pub(crate) fn return_effects(&mut self, mut effects: TxnEffects) {
        effects.clear();
        self.spare_effects.push(effects);
    }

    /// Schedule a timeout for a pending transaction.
    pub(crate) fn arm_timeout(&mut self, delay: SimDuration, txn: TxnId) {
        self.engine.schedule(delay, Ev::Timeout { txn });
    }

    // ---- crash / recovery ------------------------------------------------

    /// A node fails: everything volatile is lost. The store, lock tables,
    /// staged prepares, hold-back queues, and pending protocol state
    /// vanish; the WAL (stable storage) survives. In-flight transactions
    /// homed at the node abort through `abort_pending` — but a dead node
    /// cannot send, so the messages announcing the aborts wait in `owed`
    /// until it recovers (presumed abort).
    fn handle_crash(&mut self, at: SimTime, node: NodeId, notes: &mut Notes) {
        if !self.down.insert(node) {
            return; // already down
        }
        self.engine.metrics.incr(slot::NODE_CRASH);
        self.engine.emit(|| TelemetryEvent::Crash { node: node.0 });
        self.net.crash(node);
        // Un-flushed group-commit batches are volatile send-side state,
        // exactly like the reliable layer's unacked buffer: the commits
        // survive only in this node's WAL and reach the other replicas
        // through recovery anti-entropy. Each discarded quasi gets an
        // explicit `BatchDiscarded` event so its causal id is closed in
        // the telemetry join rather than dangling as a phantom lag.
        for ob in self.open_batches.iter_mut().filter(|ob| ob.home == node) {
            for q in ob.quasis.drain(..) {
                self.engine.metrics.incr(slot::BATCH_DISCARDED);
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
        for txn in mine {
            self.abort_pending(at, txn, AbortReason::Unavailable, notes);
        }
        self.unwind_moves_on_crash(at, node, notes);
        self.election_cleanup_on_crash(node);
        self.detectors.remove(&node);
        notes.push(Notification::Crashed { node, at });
    }

    /// Bug-sweep (liveness): a crash of a move endpoint used to leave the
    /// `MoveState` entry in place forever — nothing re-drove it, so the
    /// fragment stayed write-unavailable and queued submissions never
    /// drained. Unwind or re-drive every affected move.
    fn unwind_moves_on_crash(&mut self, at: SimTime, node: NodeId, notes: &mut Notes) {
        let affected: Vec<FragmentId> = self
            .move_state
            .iter()
            .filter(|(_, st)| st.new_home == node || st.old_home == node)
            .map(|(&f, _)| f)
            .collect();
        for fragment in affected {
            let st = &self.move_state[&fragment];
            let (new_home, old_home) = (st.new_home, st.old_home);
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
                    let next = self.nodes[old_home.0 as usize].install_frontier(fragment);
                    self.tokens.set_next_frag_seq(fragment, next);
                }
                self.engine.emit(|| TelemetryEvent::MoveAborted {
                    fragment: fragment.0,
                    from: old_home.0,
                    to: new_home.0,
                });
                self.drain_queued(at, fragment, notes);
            } else if let MoveWait::AwaitingSeq { upto } = st.wait {
                // §4.4.2B with the old home dead: the missing prefix may
                // have died in the old home's unacked send buffer. Re-drive
                // via anti-entropy against every other replica — a live one
                // answers from its installed copy, and the query addressed
                // to the dead old home itself is retransmitted until it
                // recovers and answers from its WAL, so the move completes
                // even when no live replica ever saw the missing entries.
                let upto = upto.checked_sub(1);
                self.send_seq_query(at, new_home, fragment, self.roster(fragment), upto, false);
            }
            // MajorityRecovery with the old home dead needs nothing: the
            // recovery majority forms from the surviving replicas'
            // `SeqReply`s (every committed entry was acked by a majority).
        }
    }

    /// A node restarts: replay the WAL into the store, resync the reliable
    /// layer's streams touching the node (pre-crash packets drain as
    /// duplicates), send what it owes, run `SeqQuery` anti-entropy
    /// against each fragment's home to catch up on what was missed, and
    /// drain the queues of the fragments still homed here.
    fn handle_recover(&mut self, at: SimTime, node: NodeId, notes: &mut Notes) {
        if !self.down.remove(&node) {
            return; // was not down
        }
        self.engine.metrics.incr(slot::NODE_RECOVER);

        let frags: Vec<FragmentId> = self.catalog.fragments().iter().map(|f| f.id).collect();
        let slot = &mut self.nodes[node.0 as usize];
        slot.replica.recover(at);
        for &f in &frags {
            if let Some(s) = slot.replica.last_frag_seq(f) {
                slot.set_install_frontier(f, s + 1);
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

        for (to, env) in self.owed.remove(&node).unwrap_or_default() {
            self.send_remote(at, node, to, env);
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
            self.send_seq_query(at, node, f, [home], target.checked_sub(1), false);
        }
        let behind = self.recovering.keys().filter(|&&(n, _)| n == node).count() as u64;
        self.engine.emit(|| TelemetryEvent::Recover {
            node: node.0,
            behind_fragments: behind,
        });
        if behind == 0 {
            // Nothing was missed: recovery completes with WAL replay alone.
            self.engine.metrics.observe(slot::LATENCY_RECOVERY, 0);
            self.engine
                .emit(|| TelemetryEvent::CatchupComplete { node: node.0 });
        }
        notes.push(Notification::Recovered { node, at });
        // A submission parked behind a commit that died with this home has
        // nothing else to wake it when no election re-homed the fragment.
        for f in frags {
            if self.tokens.home(f) == node && !self.fragment_busy(f) {
                self.drain_queued(at, f, notes);
            }
        }
    }
}

/// Each node's monitor peers under `replica_sets`, ascending (see
/// [`System::monitor_peers`]); `None` when some fragment has no replica
/// set, which makes every other node a peer of every node.
fn peer_sets(
    catalog: &FragmentCatalog,
    replica_sets: &BTreeMap<FragmentId, BTreeSet<NodeId>>,
    n: u32,
) -> Option<Vec<Vec<NodeId>>> {
    let mut peers = vec![BTreeSet::new(); n as usize];
    for frag in catalog.fragments() {
        let set = replica_sets.get(&frag.id)?;
        for &node in set {
            peers[node.0 as usize].extend(set.iter().copied().filter(|&p| p != node));
        }
    }
    Some(peers.into_iter().map(Vec::from_iter).collect())
}
