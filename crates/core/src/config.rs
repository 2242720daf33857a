//! System configuration.
//!
//! §6: *"it is also possible to combine several of our strategies in a
//! single system … guarantee mutual consistency for some fragments,
//! fragmentwise serializability for a set of other fragments, and
//! conventional serializability within another group."* The configuration
//! therefore carries a *default* strategy and movement policy plus
//! per-fragment overrides; the system consults the effective policy of
//! the fragment each decision concerns.

use std::collections::BTreeMap;

use fragdb_model::FragmentId;
use fragdb_net::FaultConfig;
use fragdb_sim::SimDuration;

use crate::movement::MovePolicy;
use crate::strategy::StrategyKind;

/// Group-commit batching of the §3.2 quasi-transaction broadcast.
///
/// The home node coalesces consecutive commits for the same fragment into
/// one `Batch` envelope, cutting steady-state messages from
/// O(commits × R) to O(batches × R). Each batched quasi-transaction keeps
/// its own causal id `(fragment, epoch, frag_seq)`, so FIFO/hold-back
/// logic and telemetry joins are unchanged. Defaults to **off**: the
/// default path is byte-identical to the unbatched broadcast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Maximum quasi-transactions coalesced into one envelope; a full
    /// window flushes immediately. `0` or `1` disables batching.
    pub window: usize,
    /// How long an under-full batch may wait for more commits. Zero means
    /// "flush on idle": the batch is flushed once every event at the
    /// current instant has run, so same-instant commits still coalesce.
    pub linger: SimDuration,
}

impl BatchConfig {
    /// Batching disabled (the default): every commit broadcasts alone.
    pub fn off() -> Self {
        BatchConfig {
            window: 1,
            linger: SimDuration::ZERO,
        }
    }

    /// Batch up to `window` commits, lingering at most 5 ms for the
    /// window to fill.
    pub fn window(window: usize) -> Self {
        BatchConfig {
            window,
            linger: SimDuration::from_millis(5),
        }
    }

    /// No size bound; a batch flushes as soon as the engine drains every
    /// event at the current instant (maximal same-instant coalescing with
    /// no added latency).
    pub fn flush_on_idle() -> Self {
        BatchConfig {
            window: usize::MAX,
            linger: SimDuration::ZERO,
        }
    }

    /// Is group-commit batching on?
    pub fn enabled(&self) -> bool {
        self.window > 1
    }
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig::off()
    }
}

/// Consecutive missed heartbeats before a node raises a suspicion.
pub(crate) const SUSPECT_AFTER: u32 = 3;

/// Self-healing token recovery: heartbeat failure detection plus quorum
/// election.
///
/// When enabled, every node broadcasts a heartbeat each `heartbeat_period`
/// over `ReliableNet`, and every node counts beats it should have seen
/// from each peer. After three (`SUSPECT_AFTER`) consecutive missed beats the
/// observer raises a suspicion; if the suspect is the token home of a
/// fragment the observer replicates, the lowest-id live replica starts a
/// majority vote among the fragment's replicas. Winning re-homes the token
/// through the §4.4.1 recovery machinery under a **bumped epoch**, fencing
/// out the old home: in-flight majority commits from the dead epoch are
/// refused at completion time, so a falsely-suspected (slow or
/// partitioned) home that rejoins cannot split-brain the token.
///
/// Defaults to **off**: with the detector disabled no heartbeat traffic
/// or timers exist and runs are byte-identical to a build without it
/// (same pattern as [`BatchConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectorConfig {
    /// Heartbeat broadcast period; `ZERO` disables the detector.
    pub heartbeat_period: SimDuration,
    /// How long an election waits for votes before aborting the round.
    pub election_timeout: SimDuration,
}

impl DetectorConfig {
    /// Detector disabled (the default): no heartbeats, no elections.
    pub fn off() -> Self {
        DetectorConfig {
            heartbeat_period: SimDuration::ZERO,
            election_timeout: SimDuration::from_secs(2),
        }
    }

    /// Detector enabled with the given heartbeat period, suspecting after
    /// 3 missed beats, with a 2-second election timeout.
    pub fn period(heartbeat_period: SimDuration) -> Self {
        DetectorConfig {
            heartbeat_period,
            ..DetectorConfig::off()
        }
    }

    /// Replace the election timeout (builder style).
    pub fn with_election_timeout(mut self, election_timeout: SimDuration) -> Self {
        self.election_timeout = election_timeout;
        self
    }

    /// Is the failure detector on?
    pub fn enabled(&self) -> bool {
        self.heartbeat_period > SimDuration::ZERO
    }

    /// Upper bound on detection latency: the suspicion threshold worth of
    /// heartbeat periods, plus one period of sampling skew.
    pub fn detection_bound(&self) -> SimDuration {
        SimDuration::from_micros(self.heartbeat_period.micros() * (u64::from(SUSPECT_AFTER) + 1))
    }
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig::off()
    }
}

/// Everything the [`System`](crate::system::System) needs besides the
/// schema and the topology.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Default control strategy (§4.1–§4.3).
    pub strategy: StrategyKind,
    /// Default agent movement policy (§4.4).
    pub move_policy: MovePolicy,
    /// §6: per-fragment strategy overrides.
    pub strategy_overrides: BTreeMap<FragmentId, StrategyKind>,
    /// §6: per-fragment movement-policy overrides.
    pub move_overrides: BTreeMap<FragmentId, MovePolicy>,
    /// §6: partial replication — the nodes holding a copy of each
    /// fragment. Fragments absent from the map are fully replicated.
    /// A fragment's agent home must always be in its replica set.
    pub replica_sets: BTreeMap<FragmentId, std::collections::BTreeSet<fragdb_model::NodeId>>,
    /// Per-link fault injection (drop/duplicate/jitter); clean by default.
    pub faults: FaultConfig,
    /// Group-commit batching of the quasi broadcast (off by default).
    pub batch: BatchConfig,
    /// Self-healing token recovery (off by default).
    pub detector: DetectorConfig,
    /// RNG seed for the run.
    pub seed: u64,
}

impl SystemConfig {
    /// The paper's "center of the spectrum" default: unrestricted reads
    /// (§4.3), fixed agents.
    pub fn unrestricted(seed: u64) -> Self {
        SystemConfig {
            strategy: StrategyKind::Unrestricted,
            move_policy: MovePolicy::Fixed,
            strategy_overrides: BTreeMap::new(),
            move_overrides: BTreeMap::new(),
            replica_sets: BTreeMap::new(),
            faults: FaultConfig::clean(),
            batch: BatchConfig::off(),
            detector: DetectorConfig::off(),
            seed,
        }
    }

    /// §4.1 with a default 30-second lock patience.
    pub fn read_locks(seed: u64) -> Self {
        SystemConfig::unrestricted(seed).with_strategy(StrategyKind::ReadLocks {
            timeout: SimDuration::from_secs(30),
        })
    }

    /// Replace the default movement policy (builder style).
    pub fn with_move_policy(mut self, policy: MovePolicy) -> Self {
        self.move_policy = policy;
        self
    }

    /// Replace the default strategy (builder style).
    pub fn with_strategy(mut self, strategy: StrategyKind) -> Self {
        self.strategy = strategy;
        self
    }

    /// Inject link faults (builder style).
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Turn on group-commit batching of the quasi broadcast (builder
    /// style).
    pub fn with_batching(mut self, batch: BatchConfig) -> Self {
        self.batch = batch;
        self
    }

    /// Turn on self-healing token recovery (builder style).
    pub fn with_detector(mut self, detector: DetectorConfig) -> Self {
        self.detector = detector;
        self
    }

    /// §6: run `fragment` under its own strategy (builder style).
    pub fn with_fragment_strategy(mut self, fragment: FragmentId, strategy: StrategyKind) -> Self {
        self.strategy_overrides.insert(fragment, strategy);
        self
    }

    /// §6: move `fragment`'s agent under its own policy (builder style).
    pub fn with_fragment_move_policy(mut self, fragment: FragmentId, policy: MovePolicy) -> Self {
        self.move_overrides.insert(fragment, policy);
        self
    }

    /// §6: replicate `fragment` only at `nodes` (builder style). The
    /// fragment's agent home must be one of them.
    pub fn with_replica_set(
        mut self,
        fragment: FragmentId,
        nodes: impl IntoIterator<Item = fragdb_model::NodeId>,
    ) -> Self {
        self.replica_sets
            .insert(fragment, nodes.into_iter().collect());
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_and_builders() {
        let c = SystemConfig::unrestricted(7);
        assert!(matches!(c.strategy, StrategyKind::Unrestricted));
        assert_eq!(c.move_policy, MovePolicy::Fixed);
        assert_eq!(c.seed, 7);

        let c = SystemConfig::read_locks(1).with_move_policy(MovePolicy::NoPrep);
        assert!(c.strategy.uses_read_locks());
        assert_eq!(c.move_policy, MovePolicy::NoPrep);

        let c = SystemConfig::unrestricted(1).with_strategy(StrategyKind::ReadLocks {
            timeout: SimDuration::from_secs(1),
        });
        assert!(c.strategy.uses_read_locks());
    }

    #[test]
    fn batching_defaults_off_and_builders_enable() {
        let c = SystemConfig::unrestricted(1);
        assert_eq!(c.batch, BatchConfig::off());
        assert!(!c.batch.enabled());
        assert!(!BatchConfig::window(1).enabled());

        let c = c.with_batching(BatchConfig::window(8));
        assert!(c.batch.enabled());
        assert_eq!(c.batch.window, 8);
        assert_eq!(c.batch.linger, SimDuration::from_millis(5));

        let idle = BatchConfig::flush_on_idle();
        assert!(idle.enabled());
        assert_eq!(idle.linger, SimDuration::ZERO);
    }

    #[test]
    fn detector_defaults_off_and_builders_enable() {
        let c = SystemConfig::unrestricted(1);
        assert_eq!(c.detector, DetectorConfig::off());
        assert!(!c.detector.enabled());

        let d = DetectorConfig::period(SimDuration::from_millis(500))
            .with_election_timeout(SimDuration::from_secs(1));
        assert!(d.enabled());
        assert_eq!(d.election_timeout, SimDuration::from_secs(1));
        // 3 missed beats + 1 period of sampling skew at 500 ms each.
        assert_eq!(d.detection_bound(), SimDuration::from_millis(2000));

        let c = c.with_detector(d);
        assert!(c.detector.enabled());
    }

    #[test]
    fn per_fragment_overrides_accumulate() {
        let c = SystemConfig::unrestricted(1)
            .with_fragment_strategy(
                FragmentId(1),
                StrategyKind::ReadLocks {
                    timeout: SimDuration::from_secs(2),
                },
            )
            .with_fragment_move_policy(FragmentId(2), MovePolicy::NoPrep);
        assert!(c.strategy_overrides[&FragmentId(1)].uses_read_locks());
        assert_eq!(c.move_overrides[&FragmentId(2)], MovePolicy::NoPrep);
        assert!(matches!(c.strategy, StrategyKind::Unrestricted));
    }
}
