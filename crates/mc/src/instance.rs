//! Model-checking instances: a named, rebuildable protocol scenario.

use fragdb_core::System;
use fragdb_model::FragmentId;

/// A bounded-model-checking instance: a builder closure that reconstructs
/// the *identical* initial system and schedule every time it is called,
/// plus the safety expectations the explorer should enforce.
///
/// The builder is the replay primitive: because `System` owns boxed update
/// programs it cannot be cloned, so the DFS backtracks by rebuilding and
/// replaying recorded choice keys. Builders must therefore be pure — same
/// seed, same submissions, same injected events on every call.
pub struct McInstance {
    /// Display name (matches the `harness::configs` entry for shrunk
    /// registry instances).
    pub name: String,
    /// Expect global serializability at every explored state. Set for
    /// instances whose every fragment runs §4.1 or §4.2; unrestricted
    /// (§4.3) instances only guarantee fragmentwise serializability.
    pub expect_global: bool,
    /// The scenario injects crash/recover events: retransmission timers
    /// become real choices (a down node needs them to catch up) and
    /// convergence is only asserted when every node is back up.
    pub has_faults: bool,
    /// Fragments the scenario moves between agents. The core documents
    /// that a move racing in-flight commands can resurrect a staged share
    /// at the new home or (under `NoPrep`) shed a commit across the epoch
    /// cut; drivers are required to quiesce a fragment before moving it.
    /// The checker explores *every* interleaving — including the races the
    /// driver contract excludes — so convergence and commit durability are
    /// not asserted for these fragments. Everything else (token
    /// uniqueness, frontier monotonicity, serializability) still is.
    pub moved: Vec<FragmentId>,
    build: Box<dyn Fn() -> System>,
}

impl McInstance {
    /// Create an instance from a pure builder closure.
    pub fn new(
        name: impl Into<String>,
        expect_global: bool,
        has_faults: bool,
        build: impl Fn() -> System + 'static,
    ) -> Self {
        McInstance {
            name: name.into(),
            expect_global,
            has_faults,
            moved: Vec::new(),
            build: Box::new(build),
        }
    }

    /// Declare that the scenario moves `fragment` (builder style); see
    /// [`McInstance::moved`].
    #[must_use]
    pub fn with_moved(mut self, fragment: FragmentId) -> Self {
        self.moved.push(fragment);
        self
    }

    /// Build a fresh copy of the initial state.
    pub fn build(&self) -> System {
        (self.build)()
    }

    /// Rebuild and replay a recorded choice-key prefix. Panics if the
    /// prefix does not replay — that would mean the builder is impure,
    /// which breaks the whole exploration contract.
    pub fn replay(&self, prefix: &[u64]) -> System {
        let mut sys = self.build();
        for (i, &seq) in prefix.iter().enumerate() {
            sys.mc_step(seq)
                .unwrap_or_else(|| panic!("non-deterministic builder: replay broke at step {i}"));
        }
        sys
    }
}

impl std::fmt::Debug for McInstance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("McInstance")
            .field("name", &self.name)
            .field("expect_global", &self.expect_global)
            .field("has_faults", &self.has_faults)
            .finish_non_exhaustive()
    }
}
