//! Self-healing token recovery (§5): acceptance and safety properties.
//!
//! The failure detector + quorum election must turn a crashed token home
//! from a permanent outage into a bounded blip:
//!
//! * **Bounded unavailability** — under seeded crash faults, the token is
//!   recovered within detection-bound + election-bound virtual time, and
//!   writes commit again afterwards;
//! * **Golden baseline** — with the detector disabled (the default) the
//!   subsystem schedules nothing: seed-42 runs are byte-identical with and
//!   without the config block, and no detector metric or event appears;
//! * **Crash-during-move liveness** (bug-sweep regression) — a crash of
//!   the move destination unwinds the move instead of wedging the
//!   fragment, and the `frag.<f>.move_stall` probe is observed (not
//!   leaked) on the aborted path;
//! * **False-suspicion safety** — a slow-but-alive home that regains
//!   connectivity mid-election never yields two token holders in the same
//!   epoch, and no causal id ever commits twice.
//!
//! All randomized loops are seeded through the in-tree [`SimRng`] so every
//! failure is reproducible from the printed seed.

use std::collections::{BTreeMap, BTreeSet};

use fragdb::core::{DetectorConfig, MovePolicy, Notification, Submission, System, SystemConfig};
use fragdb::model::{AgentId, FragmentCatalog, FragmentId, NodeId, ObjectId, UserId};
use fragdb::net::{FaultConfig, FaultPlan, NetworkChange, PartitionSchedule, Topology};
use fragdb::sim::{SimDuration, SimRng, SimTime, Telemetry, TelemetryEvent};

fn secs(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

const FRAG: FragmentId = FragmentId(0);
const HOME: NodeId = NodeId(0);

fn detector() -> DetectorConfig {
    DetectorConfig::period(ms(500)).with_election_timeout(SimDuration::from_secs(2))
}

/// 5-node full mesh, one majority-commit fragment homed at node 0.
fn protected_system(seed: u64, det: DetectorConfig, faults: Option<FaultPlan>) -> System {
    let mut b = FragmentCatalog::builder();
    let (f, _) = b.add_fragment("PROTECTED", 2);
    assert_eq!(f, FRAG);
    let mut config = SystemConfig::unrestricted(seed)
        .with_move_policy(MovePolicy::MajorityCommit {
            timeout: SimDuration::from_secs(5),
        })
        .with_detector(det);
    if let Some(plan) = faults {
        config = config.with_faults(FaultConfig::uniform(plan));
    }
    System::build(
        Topology::full_mesh(5, ms(10)),
        b.build(),
        vec![(FRAG, AgentId::User(UserId(0)), HOME)],
        config,
    )
    .expect("admissible config")
}

fn bump(obj: ObjectId) -> fragdb::core::UpdateFn {
    Box::new(move |ctx| {
        let v = ctx.read_int(obj, 0);
        ctx.write(obj, v + 1)?;
        Ok(())
    })
}

/// Drive to `limit`, collecting commit/abort counts.
fn run(sys: &mut System, limit: SimTime) -> (u64, u64) {
    let (mut committed, mut aborted) = (0u64, 0u64);
    while let Some((_, notes)) = sys.step_until(limit) {
        for note in notes {
            match note {
                Notification::Committed { .. } => committed += 1,
                Notification::Aborted { .. } => aborted += 1,
                _ => {}
            }
        }
    }
    (committed, aborted)
}

/// The §5 acceptance bound: crash the home under mild link faults; the
/// token must be recovered within detection-bound + election timeout +
/// recovery slack, writes must flow again, and the verdicts must hold.
#[test]
fn crash_of_home_heals_within_bound() {
    for seed in [42u64, 7, 0x5EAF] {
        let det = detector();
        let mut sys = protected_system(seed, det, Some(FaultPlan::new(0.10, 0.05, ms(20))));
        sys.engine.telemetry = Telemetry::bounded(200_000);
        let obj = ObjectId(0);
        for k in 0..40u64 {
            sys.submit_at(secs(k + 1), Submission::update(FRAG, bump(obj)));
        }
        let crash_at = secs(10);
        sys.crash_at(crash_at, HOME);
        sys.recover_at(secs(40), HOME);
        let (committed, _) = run(&mut sys, secs(200));
        assert!(committed > 0, "seed {seed}: nothing committed");

        let recovered_at = sys
            .engine
            .telemetry
            .events()
            .find_map(|r| match r.event {
                TelemetryEvent::TokenRecovered { fragment, .. } if fragment == FRAG.0 => Some(r.at),
                _ => None,
            })
            .unwrap_or_else(|| panic!("seed {seed}: token never recovered"));

        // Detection bound (2s with the 500ms/3 defaults) + the election's
        // patience + slack for the §4.4.1 recovery round trips under a
        // 10% lossy plan (a lost packet is probed every 200ms RTO, no
        // backoff).
        let bound = det.detection_bound() + det.election_timeout + SimDuration::from_secs(3);
        let window = recovered_at.since(crash_at);
        assert!(
            window <= bound,
            "seed {seed}: unavailability {window:?} exceeds bound {bound:?}"
        );

        // The new regime serves writes: at least one commit after recovery.
        let post_recovery_commits = sys
            .engine
            .telemetry
            .events()
            .filter(|r| r.at > recovered_at && matches!(r.event, TelemetryEvent::Committed { .. }))
            .count();
        assert!(
            post_recovery_commits > 0,
            "seed {seed}: no commits after token recovery"
        );

        // The unavailability probe observed the window.
        let h = sys
            .engine
            .metrics
            .histogram("frag.0.unavail_window")
            .unwrap_or_else(|| panic!("seed {seed}: unavail_window not observed"));
        assert!(h.count() >= 1);

        // §4 verdicts survive the regime change, on both checkers.
        let batch = fragdb::graphs::analyze(&sys.history);
        assert!(
            batch.fragmentwise_serializable(),
            "seed {seed}: history not fragmentwise serializable"
        );
        let incremental = fragdb::graphs::IncrementalAnalyzer::from_history(&sys.history).verdict();
        assert!(
            incremental.agrees_with(&batch),
            "seed {seed}: incremental checker diverged from the batch oracle"
        );
        assert_eq!(
            sys.divergent_fragments().len(),
            0,
            "seed {seed}: replicas diverged after self-heal"
        );
    }
}

/// Off by default means *zero* footprint: seed-42 runs with and without
/// the (disabled) detector config block are byte-identical, and no
/// detector event or metric exists.
#[test]
fn detector_off_is_byte_identical_at_seed_42() {
    let fingerprint = |det: Option<DetectorConfig>| {
        let mut sys = protected_system(42, det.unwrap_or_else(DetectorConfig::off), None);
        sys.engine.telemetry = Telemetry::bounded(200_000);
        let obj = ObjectId(0);
        for k in 0..12u64 {
            sys.submit_at(secs(k + 1), Submission::update(FRAG, bump(obj)));
        }
        sys.crash_at(secs(5), NodeId(4));
        sys.recover_at(secs(9), NodeId(4));
        run(&mut sys, secs(60));
        let detector_events = sys
            .engine
            .telemetry
            .events()
            .filter(|r| {
                matches!(
                    r.event,
                    TelemetryEvent::SuspectRaised { .. }
                        | TelemetryEvent::ElectionStarted { .. }
                        | TelemetryEvent::ElectionWon { .. }
                        | TelemetryEvent::ElectionAborted { .. }
                        | TelemetryEvent::TokenRecovered { .. }
                )
            })
            .count();
        assert_eq!(detector_events, 0, "disabled detector emitted events");
        assert_eq!(sys.engine.metrics.counter("detector.heartbeats"), 0);
        assert_eq!(sys.engine.metrics.counter("election.rounds"), 0);
        sys.engine.telemetry.render_jsonl()
    };
    let explicit_off = fingerprint(Some(DetectorConfig::off()));
    let default_off = fingerprint(None);
    assert_eq!(
        explicit_off, default_off,
        "an explicit off() config must not perturb the seed-42 trace"
    );
}

/// Bug-sweep regression: the move destination crashes mid-§4.4.1-move.
/// Before the sweep the `MoveState` entry wedged the fragment forever;
/// now the move unwinds (MoveAborted), the `move_stall` probe records the
/// real stall instead of leaking its open entry, and writes keep
/// committing at the surviving old home.
#[test]
fn crash_of_move_destination_unwinds_the_move() {
    let mut sys = protected_system(42, DetectorConfig::off(), None);
    sys.engine.telemetry = Telemetry::bounded(200_000);
    let obj = ObjectId(0);
    for k in 0..20u64 {
        sys.submit_at(secs(k + 1), Submission::update(FRAG, bump(obj)));
    }
    sys.move_agent_at(secs(5), FRAG, NodeId(2));
    // 5ms after the move begins the SeqQuery round (10ms links) is still
    // in flight: the destination dies holding a half-built recovery.
    sys.crash_at(secs(5) + ms(5), NodeId(2));
    sys.recover_at(secs(30), NodeId(2));
    let (committed, aborted) = run(&mut sys, secs(120));

    let aborted_move = sys.engine.telemetry.events().any(|r| {
        matches!(
            r.event,
            TelemetryEvent::MoveAborted { fragment, to, .. } if fragment == FRAG.0 && to == 2
        )
    });
    assert!(
        aborted_move,
        "crashed-destination move must abort, not wedge"
    );

    // The stall window was observed on the aborted path — emitted, not
    // leaked as a dangling open entry.
    let h = sys
        .engine
        .metrics
        .histogram("frag.0.move_stall")
        .expect("move_stall observed on the aborted path");
    assert!(h.count() >= 1);

    // Liveness: nothing wedges. The one submission that races the move
    // start is orphan-aborted by design (in-flight transactions do not
    // survive a token move); every other update must commit at the
    // surviving home, and the sequence number the abort consumed must be
    // reclaimed so replicas converge instead of holding back forever.
    assert!(aborted <= 1, "only the move-racing submission may abort");
    assert_eq!(
        committed + aborted,
        20,
        "aborted move wedged the fragment: {committed} committed, {aborted} aborted"
    );
    assert_eq!(sys.divergent_fragments().len(), 0);
    assert_eq!(
        *sys.replica(HOME).read(obj),
        fragdb::model::Value::Int(committed as i64),
        "installed prefix must equal the committed count (no holes)"
    );
}

/// False-suspicion safety, as a seeded property loop: the home is slow
/// (partitioned), not dead. Whether the partition heals before, during,
/// or after the election, there is never more than one election winner
/// per fenced epoch and no causal id commits twice.
#[test]
fn false_suspicion_never_yields_two_holders_in_one_epoch() {
    let mut seed_rng = SimRng::new(0x5E1F_4EA1);
    for case in 0..6u64 {
        let seed = seed_rng.gen_range(1..u64::MAX / 2);
        let det = detector();
        let mut sys = protected_system(seed, det, None);
        sys.engine.telemetry = Telemetry::bounded(400_000);
        let obj = ObjectId(0);
        for k in 0..30u64 {
            sys.submit_at(secs(k + 1), Submission::update(FRAG, bump(obj)));
        }
        // Cut the home off somewhere between "just suspected" and "well
        // past the election" — the interesting raceable range.
        let cut = secs(8);
        let heal_after_ms = 1_500 + seed_rng.gen_range(0..5_000u64);
        let schedule = PartitionSchedule::none()
            .at(
                cut,
                NetworkChange::Split(vec![
                    vec![HOME],
                    vec![NodeId(1), NodeId(2), NodeId(3), NodeId(4)],
                ]),
            )
            .at(cut + ms(heal_after_ms), NetworkChange::HealAll);
        sys.schedule_partitions(&schedule);
        run(&mut sys, secs(150));

        // At most one winner per (fragment, fenced epoch): the per-voter
        // grant ledger must make a second majority impossible.
        let mut winners: BTreeMap<(u32, u64), BTreeSet<u32>> = BTreeMap::new();
        for r in sys.engine.telemetry.events() {
            if let TelemetryEvent::ElectionWon {
                fragment,
                epoch,
                node,
            } = r.event
            {
                winners.entry((fragment, epoch)).or_default().insert(node);
            }
        }
        for ((fragment, epoch), nodes) in &winners {
            assert!(
                nodes.len() <= 1,
                "case {case} (seed {seed}): fragment {fragment} epoch {epoch} \
                 has {} winners: {nodes:?}",
                nodes.len()
            );
        }

        // No causal id ever commits twice — the epoch fence turned the
        // deposed regime's in-flight commits into aborts, not duplicates.
        let mut seen = BTreeSet::new();
        for r in sys.engine.telemetry.events() {
            if let TelemetryEvent::Committed { cause, .. } = r.event {
                assert!(
                    seen.insert(cause),
                    "case {case} (seed {seed}): causal id {cause:?} committed twice"
                );
            }
        }

        let batch = fragdb::graphs::analyze(&sys.history);
        assert!(
            batch.fragmentwise_serializable(),
            "case {case} (seed {seed}): history not fragmentwise serializable"
        );
        assert_eq!(
            sys.divergent_fragments().len(),
            0,
            "case {case} (seed {seed}): replicas diverged after heal"
        );
    }
}

/// The write of divergent shape (d): set the object to 7.
fn write_seven(obj: ObjectId) -> Submission {
    Submission::update(
        FRAG,
        Box::new(move |ctx| {
            ctx.write(obj, 7)?;
            Ok(())
        }),
    )
}

/// The five replicas' values of `obj`, asserted mutually consistent and
/// holding the re-homed write.
fn assert_all_read_seven(sys: &System, obj: ObjectId) {
    let values: Vec<_> = (0..5)
        .map(|n| sys.replica(NodeId(n)).read(obj).clone())
        .collect();
    assert_eq!(
        sys.divergent_fragments(),
        Vec::new(),
        "replicas read {values:?}"
    );
    assert_eq!(
        values,
        vec![fragdb::model::Value::Int(7); 5],
        "a replica never received the re-homed entry"
    );
}

/// Divergent shape (d): an election re-homes a majority fragment whose
/// last commit a live replica never prepared. Node 2 is cut off with node
/// 1 while the home commits 7 with the acks of {3, 4}; the home then
/// crashes, the partition heals, and node 1 is elected and recovers the
/// entry from a majority. Node 2 answered the recovery query from behind,
/// so the new home sends it the tail it lacks before any new prepare;
/// without that push it would stay behind until a later commit repaired
/// it, and here there is none.
#[test]
fn rehomed_entry_reaches_the_replica_that_missed_its_prepare() {
    let mut sys = protected_system(1, detector(), None);
    let obj = ObjectId(0);
    sys.net_change_at(
        SimTime::ZERO,
        NetworkChange::Split(vec![
            vec![HOME, NodeId(3), NodeId(4)],
            vec![NodeId(1), NodeId(2)],
        ]),
    );
    sys.submit_at(secs(1), write_seven(obj));
    sys.crash_at(secs(2), HOME);
    sys.net_change_at(secs(3), NetworkChange::HealAll);
    sys.recover_at(secs(60), HOME);
    run(&mut sys, secs(60) + ms(900));
    assert_all_read_seven(&sys, obj);
}

/// Shape (d) with the lagging member's reply arriving after the recovery
/// completed. Node 2 stays cut off through the election, so node 1
/// recovers from {1, 3, 4} without it; once the partition heals, node 2
/// answers the new home's query late, and the home sends it the tail it
/// lacks.
#[test]
fn a_reply_after_the_recovery_still_gets_the_rehomed_entry() {
    let mut sys = protected_system(1, detector(), None);
    let obj = ObjectId(0);
    sys.net_change_at(
        SimTime::ZERO,
        NetworkChange::Split(vec![
            vec![HOME, NodeId(3), NodeId(4)],
            vec![NodeId(1), NodeId(2)],
        ]),
    );
    sys.submit_at(secs(1), write_seven(obj));
    sys.crash_at(secs(2), HOME);
    sys.net_change_at(secs(3), NetworkChange::HealAll);
    sys.net_change_at(
        secs(3),
        NetworkChange::Split(vec![
            vec![HOME, NodeId(1), NodeId(3), NodeId(4)],
            vec![NodeId(2)],
        ]),
    );
    run(&mut sys, secs(20));
    assert_eq!(sys.tokens().home(FRAG), NodeId(1), "node 1 was elected");
    assert_eq!(
        sys.replica(NodeId(1)).read(obj),
        &fragdb::model::Value::Int(7)
    );
    assert_eq!(
        sys.replica(NodeId(2)).read(obj),
        &fragdb::model::Value::Null,
        "node 2 is still cut off"
    );
    sys.net_change_at(secs(20), NetworkChange::HealAll);
    sys.recover_at(secs(60), HOME);
    run(&mut sys, secs(60) + ms(900));
    assert_all_read_seven(&sys, obj);
}

/// Divergent shape (e): a client told `Aborted` later sees its write
/// installed. The home's `Prepare`s leave at 1 s and node 0 is cut off
/// 5 ms later, before any ack returns; the majority-commit timeout aborts
/// the transaction at the home, while {1, 2, 3, 4} still hold it staged.
/// The detector elects a new home among them, whose recovery adopts what
/// a majority staged, so the aborted write is installed everywhere. ROADMAP
/// item 1 leaves open what a timed-out prepare that a majority staged
/// should report; until that is decided this test fails.
#[test]
#[ignore = "shape (e), ROADMAP item 1: fails today"]
fn aborted_prepare_is_not_resurrected_by_an_election() {
    let mut sys = protected_system(42, detector(), None);
    sys.submit_at(secs(1), write_seven(ObjectId(0)));
    sys.net_change_at(
        secs(1) + ms(5),
        NetworkChange::Split(vec![
            vec![HOME],
            vec![NodeId(1), NodeId(2), NodeId(3), NodeId(4)],
        ]),
    );
    sys.net_change_at(secs(20), NetworkChange::HealAll);
    let mut aborted = BTreeSet::new();
    while let Some((_, notes)) = sys.step_until(secs(60)) {
        for note in notes {
            if let Notification::Aborted { txn, .. } = note {
                aborted.insert(txn);
            }
        }
    }
    assert!(
        !aborted.is_empty(),
        "the majority-commit timeout never fired"
    );
    let installed: Vec<_> = (0..5)
        .flat_map(|n| {
            let wal = sys.replica(NodeId(n)).wal();
            wal.entries()
                .filter(|e| aborted.contains(&e.txn))
                .map(move |e| (NodeId(n), e.txn))
                .collect::<Vec<_>>()
        })
        .collect();
    assert!(
        installed.is_empty(),
        "aborted transaction installed: (node, txn) {installed:?}"
    );
}
