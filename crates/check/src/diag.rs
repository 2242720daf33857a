//! Structured diagnostics: stable codes, severities, rustc-style rendering.
//!
//! Every check emits [`Diagnostic`]s carrying a stable [`Code`], so drivers
//! can match on outcomes programmatically while humans read the rendered
//! [`Report`]. Codes are never reused; retired codes stay reserved.

use std::fmt;

/// How bad a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Purely informational — explains a non-obvious consequence of the
    /// declarations (e.g. why an own-fragment read is not a RAG edge).
    Info,
    /// The configuration is admissible but smells — e.g. a lock-order
    /// cycle that *can* deadlock under §4.1.
    Warning,
    /// The configuration violates a precondition: the run would abort,
    /// wedge, or void a paper guarantee. Admission refuses it.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Stable diagnostic codes. The block structure mirrors the paper:
/// `FDB00x` schema (§3.1), `FDB01x` transaction classes (§3.2), `FDB02x`
/// read-access graph (§4.2), `FDB03x` strategy/topology compatibility
/// (§4.1, §4.4.1, §6), `FDB04x` lock analysis (§4.1), `FDB05x`
/// self-healing token recovery (§5).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Code {
    /// Fragments are not disjoint (§3.1).
    Fdb001,
    /// Bad token/agent assignment or a reference to an undeclared
    /// fragment (§3.1: exactly one token per fragment).
    Fdb002,
    /// An agent's home node is invalid (out of range, or a node agent
    /// homed away from its own node) (§3.1).
    Fdb003,
    /// A class declares writes outside its initiator's fragment — the
    /// initiation requirement would be violated at run time (§3.2).
    Fdb010,
    /// The read-access graph is not elementarily acyclic (§4.2).
    Fdb020,
    /// A class reads its own fragment: by definition (`i ≠ j`) this is
    /// *not* a RAG edge and cannot create a cycle (§4.2).
    Fdb021,
    /// The §4.2 strategy is selected but no transaction classes are
    /// declared: every update would abort as an undeclared class.
    Fdb022,
    /// A §4.4.1 majority is unreachable from the fragment's home even
    /// with every link up (§4.4.1).
    Fdb030,
    /// A §4.1 lock site is unreachable from a class initiator's home even
    /// with every link up (§4.1).
    Fdb031,
    /// A declared read is not covered by a replica at the node that would
    /// perform it (§6 partial replication).
    Fdb032,
    /// §4.1 read locks combined with a movement policy — read locks are
    /// defined for fixed agents only (§4.1/§4.4).
    Fdb033,
    /// A fragment's agent home is outside its own replica set (§6).
    Fdb034,
    /// A malformed replica set: empty, an unknown node, or an unknown
    /// fragment (§6).
    Fdb035,
    /// Deadlock-prone cyclic lock acquisition across §4.1 classes.
    Fdb040,
    /// The failure detector is enabled but no fragment runs under the
    /// §4.4.1 majority-commit policy — elections can never act, so the
    /// self-healing configuration is inert (§5).
    Fdb050,
    /// A majority-commit fragment's population is smaller than 3 with the
    /// detector enabled: an election cannot out-vote the (dead) home, so
    /// self-healing cannot recover this fragment (§5).
    Fdb051,
    /// The election timeout is zero with the detector enabled: every round
    /// aborts before a single vote can arrive (§5).
    Fdb052,
    /// The election timeout is shorter than the detector's own detection
    /// bound: rounds abort and restart faster than a failure can even be
    /// confirmed, so elections livelock instead of converging (§5).
    Fdb053,
    /// A replica in a fragment's replica set is unreachable from the
    /// fragment's home even with every link up — the broadcast can never
    /// deliver updates to it, so the replica diverges by construction
    /// (§6).
    Fdb060,
    /// An even-sized replica set under §4.4.1 majority commit: the
    /// majority threshold is the same as for the next-smaller odd set, so
    /// the extra replica adds broadcast cost without adding fault
    /// tolerance (§4.4.1/§6).
    Fdb061,
    /// A replica set that explicitly names every node in the topology:
    /// equivalent to the full-replication default, so the declaration
    /// buys no fan-out reduction (§6).
    Fdb062,
}

impl Code {
    /// Every code the analyzer can emit, in numeric order. Tests assert
    /// this stays complete, so `--explain` can never lag behind a new
    /// check.
    pub const ALL: [Code; 21] = [
        Code::Fdb001,
        Code::Fdb002,
        Code::Fdb003,
        Code::Fdb010,
        Code::Fdb020,
        Code::Fdb021,
        Code::Fdb022,
        Code::Fdb030,
        Code::Fdb031,
        Code::Fdb032,
        Code::Fdb033,
        Code::Fdb034,
        Code::Fdb035,
        Code::Fdb040,
        Code::Fdb050,
        Code::Fdb051,
        Code::Fdb052,
        Code::Fdb053,
        Code::Fdb060,
        Code::Fdb061,
        Code::Fdb062,
    ];

    /// Parse a code string such as `"FDB020"` (case-insensitive).
    pub fn parse(s: &str) -> Option<Code> {
        Code::ALL
            .into_iter()
            .find(|c| c.as_str().eq_ignore_ascii_case(s))
    }

    /// The rustc-style long-form explanation (`--explain`): what the
    /// check means, why the paper requires it, and what to do about it.
    pub fn explain(self) -> &'static str {
        match self {
            Code::Fdb001 => {
                "The database must be partitioned into disjoint fragments (§3.1): every \
                 object belongs to exactly one fragment, and the fragment's token is the \
                 sole authority over updates to those objects. Two fragments claiming the \
                 same object would mean two tokens could serialize conflicting updates to \
                 it independently, which voids the §3 model before any protocol runs. Fix \
                 the catalog so each object appears in exactly one fragment."
            }
            Code::Fdb002 => {
                "Each fragment has exactly one token, held by exactly one agent (§3.1). \
                 This report fires when the agent assignment references an undeclared \
                 fragment, declares two agents for one fragment, or leaves a fragment \
                 without an agent. Updates to an agent-less fragment can never commit; a \
                 doubly-agented fragment would mint two independent update sequences. \
                 Declare exactly one (fragment, agent, home) triple per fragment."
            }
            Code::Fdb003 => {
                "An agent's home node must exist in the topology, and a node agent must \
                 be homed at its own node (§3.1: node agents represent the node itself, \
                 so homing one elsewhere is contradictory). Point the home at a declared \
                 node, or use a user agent if the token should live away from the node."
            }
            Code::Fdb010 => {
                "A transaction must be initiated at the agent holding the token of the \
                 fragment it updates (§3.2's initiation requirement). A class declaring \
                 writes outside its initiator's fragment would commit updates whose \
                 token-holder never saw them, so every instance aborts with an initiation \
                 violation. Restrict the class's writes to the initiating fragment, and \
                 let each other written fragment's own agent initiate a sibling \
                 transaction for its share."
            }
            Code::Fdb020 => {
                "The §4.2 strategy commits foreign-read transactions locally, without \
                 coordination, and stays globally serializable only while the read-access \
                 graph — fragment i points at fragment j when some class initiated at i \
                 reads j — is elementarily acyclic. A cycle means two fragments can each \
                 commit a transaction that read the other's past, producing a global \
                 serialization-graph cycle no local order can repair (run `fragdb-mc` for \
                 the two-step counterexample). Remove a read edge, split a fragment, or \
                 run the cyclic classes under §4.1 read locks instead."
            }
            Code::Fdb021 => {
                "A class reads its own fragment. The read-access graph only tracks reads \
                 of *other* fragments (§4.2 defines edges for i ≠ j): own-fragment reads \
                 are serialized by the fragment's own token and can never contribute to a \
                 cycle. This note confirms the read was deliberately ignored."
            }
            Code::Fdb022 => {
                "The §4.2 strategy admits only transactions belonging to declared \
                 classes — that is how the analyzer knows the read-access graph it \
                 certified is the one that runs. With no classes declared, every update \
                 is undeclared and aborts. Declare the transaction classes, or choose a \
                 strategy that does not require them."
            }
            Code::Fdb030 => {
                "A fragment under §4.4.1 majority commit can only commit while its home \
                 can gather acknowledgments from a majority of the fragment's replicas. \
                 Here the topology (with every link up) gives the home no path to any \
                 majority, so every commit times out and aborts: permanent unavailability \
                 by construction, not by failure (run `fragdb-mc` for the trace). Add \
                 links, move the home, or shrink the replica set."
            }
            Code::Fdb031 => {
                "Under §4.1, a transaction that reads another fragment must first acquire \
                 a read lock at that fragment's lock site. A class initiator with no path \
                 to the lock site can never acquire the lock: the request is undeliverable \
                 and the transaction aborts on lock timeout, every time (run `fragdb-mc` \
                 for the trace). Connect the nodes or re-home one of the fragments."
            }
            Code::Fdb032 => {
                "With §6 partial replication, a transaction executes at its initiating \
                 agent's home using that node's local replicas. A declared read of a \
                 fragment the home does not replicate has no data to read — execution \
                 aborts with a logic error at run time (run `fragdb-mc` for the \
                 one-step trace). Add the home to the read fragment's replica set, or \
                 initiate the class at a node that replicates it."
            }
            Code::Fdb033 => {
                "§4.1 read locks name a fixed lock site per fragment — the paper defines \
                 the protocol for agents that do not move. Combining read locks with a \
                 movement policy would leave remote lock holders pointing at a node that \
                 no longer owns the token after a move. The system refuses to build this \
                 configuration; pin the fragment (MovePolicy::Fixed) or use a strategy \
                 that does not take remote locks."
            }
            Code::Fdb034 => {
                "A fragment's agent home must be inside the fragment's own replica set \
                 (§6): the home is where updates execute and commit, so it needs the \
                 data. The system refuses to build such a configuration. Add the home to \
                 the replica set or move the agent."
            }
            Code::Fdb035 => {
                "A replica set is malformed: empty, naming an undeclared fragment, or \
                 naming a node outside the topology (§6). An empty set would leave the \
                 fragment stored nowhere. The system refuses to build such a \
                 configuration; fix the replica-set declaration."
            }
            Code::Fdb040 => {
                "§4.1 classes acquire read locks in declaration order. Two classes that \
                 acquire locks on the same fragments in opposite orders can deadlock; \
                 the runtime resolves this by lock timeout (aborting one side), so this \
                 is a warning about wasted work and latency, not a safety hole. Order \
                 the declared reads consistently to avoid the aborts."
            }
            Code::Fdb050 => {
                "The §5 failure detector is enabled, but no fragment runs under §4.4.1 \
                 majority commit — the only policy whose epoch fencing and majority \
                 recovery make a takeover safe. Elections can trigger but never act, so \
                 the heartbeat traffic buys nothing. That costs messages, not safety, so \
                 this is a warning: a workload may keep the detector on to measure the \
                 heartbeat cost. Otherwise run a fragment under \
                 MovePolicy::MajorityCommit or disable the detector."
            }
            Code::Fdb051 => {
                "Self-healing (§5) re-homes a dead token by majority vote among the \
                 fragment's replicas. With fewer than 3 replicas, any majority must \
                 include the dead home itself, so no election can ever win and the \
                 fragment stays unavailable until manual recovery. Replicate at 3 or \
                 more nodes for the vote to be winnable."
            }
            Code::Fdb052 => {
                "The election timeout is zero with the detector enabled (§5): every \
                 election round expires before a single vote can arrive, so takeovers \
                 abort forever while heartbeats keep announcing the failure. Set \
                 election_timeout to at least one network round trip."
            }
            Code::Fdb053 => {
                "The election timeout is shorter than the detector's own detection \
                 bound — heartbeat_period × 4 (3 missed beats + 1), the time it takes to \
                 confirm a silent node (§5). A round that expires before the failure it \
                 reacts to can be confirmed restarts against the same silence, \
                 livelocking instead of recovering. Raise election_timeout to at least \
                 the detection bound."
            }
            Code::Fdb060 => {
                "Every replica in a fragment's replica set must be reachable from the \
                 fragment's home with all links up (§6): the home's broadcast is the \
                 only way updates reach a replica, so an unreachable replica never \
                 receives a single update and diverges from the first commit onward. \
                 Unlike FDB030 this can strike even when a majority is reachable — \
                 commits keep succeeding while the cut-off replica silently rots, and a \
                 later election or read at that node observes stale data (run \
                 `fragdb-mc` for the divergence trace). Add links, or drop the \
                 unreachable node from the replica set."
            }
            Code::Fdb061 => {
                "A §4.4.1 majority over an even-sized replica set needs n/2 + 1 \
                 acknowledgments — exactly the same threshold as the odd set one \
                 smaller. The extra replica therefore adds one broadcast message per \
                 commit and one more node that can be down, while tolerating no \
                 additional failures: 4 replicas and 3 replicas both survive exactly \
                 one. Declare the odd size with `with_replica_set`, or shrink to it at \
                 run time with `shrink_replica_set_at`, or grow by two if more \
                 tolerance is actually wanted."
            }
            Code::Fdb062 => {
                "This replica set explicitly lists every node in the topology, which is \
                 exactly the full-replication default a fragment gets with no replica \
                 set declared (§6). The declaration is harmless but buys nothing: \
                 broadcasts still fan out to all nodes and commits still pay the full \
                 price the partial-replication machinery exists to avoid. Either drop \
                 the declaration for clarity or shrink the set to the nodes that \
                 actually read the fragment."
            }
        }
    }

    /// The stable code string, e.g. `"FDB020"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::Fdb001 => "FDB001",
            Code::Fdb002 => "FDB002",
            Code::Fdb003 => "FDB003",
            Code::Fdb010 => "FDB010",
            Code::Fdb020 => "FDB020",
            Code::Fdb021 => "FDB021",
            Code::Fdb022 => "FDB022",
            Code::Fdb030 => "FDB030",
            Code::Fdb031 => "FDB031",
            Code::Fdb032 => "FDB032",
            Code::Fdb033 => "FDB033",
            Code::Fdb034 => "FDB034",
            Code::Fdb035 => "FDB035",
            Code::Fdb040 => "FDB040",
            Code::Fdb050 => "FDB050",
            Code::Fdb051 => "FDB051",
            Code::Fdb052 => "FDB052",
            Code::Fdb053 => "FDB053",
            Code::Fdb060 => "FDB060",
            Code::Fdb061 => "FDB061",
            Code::Fdb062 => "FDB062",
        }
    }

    /// The paper section the check derives from.
    pub fn paper_section(self) -> &'static str {
        match self {
            Code::Fdb001 | Code::Fdb002 | Code::Fdb003 => "§3.1",
            Code::Fdb010 => "§3.2",
            Code::Fdb020 | Code::Fdb021 | Code::Fdb022 => "§4.2",
            Code::Fdb030 => "§4.4.1",
            Code::Fdb031 | Code::Fdb040 => "§4.1",
            Code::Fdb032 | Code::Fdb034 | Code::Fdb035 | Code::Fdb060 | Code::Fdb062 => "§6",
            Code::Fdb033 => "§4.1/§4.4",
            Code::Fdb050 | Code::Fdb051 | Code::Fdb052 | Code::Fdb053 => "§5",
            Code::Fdb061 => "§4.4.1/§6",
        }
    }

    /// The severity this code is always emitted at.
    pub fn severity(self) -> Severity {
        match self {
            Code::Fdb021 | Code::Fdb062 => Severity::Info,
            Code::Fdb022 | Code::Fdb040 | Code::Fdb050 | Code::Fdb051 | Code::Fdb061 => {
                Severity::Warning
            }
            _ => Severity::Error,
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// One finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code.
    pub code: Code,
    /// Severity (always `code.severity()`).
    pub severity: Severity,
    /// What is wrong, one line.
    pub message: String,
    /// The offending declaration, e.g. ``class `reserve` `` or
    /// `fragment F2`.
    pub subject: String,
    /// A suggested fix, when one is mechanical.
    pub help: Option<String>,
}

impl Diagnostic {
    /// Build a diagnostic at the code's canonical severity.
    pub fn new(code: Code, subject: impl Into<String>, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            message: message.into(),
            subject: subject.into(),
            help: None,
        }
    }

    /// Attach a suggested fix (builder style).
    pub fn with_help(mut self, help: impl Into<String>) -> Self {
        self.help = Some(help.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}[{}]: {} ({})",
            self.severity,
            self.code,
            self.message,
            self.code.paper_section()
        )?;
        writeln!(f, "  --> {}", self.subject)?;
        if let Some(help) = &self.help {
            writeln!(f, "  = help: {help}")?;
        }
        Ok(())
    }
}

/// All findings from one analysis run, errors first.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Report {
    diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Wrap raw findings, sorting errors before warnings before infos
    /// (ties broken by code, then subject, for deterministic output).
    pub fn new(mut diagnostics: Vec<Diagnostic>) -> Self {
        diagnostics.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then(a.code.cmp(&b.code))
                .then(a.subject.cmp(&b.subject))
        });
        Report { diagnostics }
    }

    /// The findings, errors first.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Consume into the raw findings.
    pub fn into_diagnostics(self) -> Vec<Diagnostic> {
        self.diagnostics
    }

    /// Does any finding have `code`?
    pub fn has(&self, code: Code) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of findings at `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// No findings at all?
    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Admissible ⟺ no error-severity findings.
    pub fn is_admissible(&self) -> bool {
        self.error_count() == 0
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        write!(
            f,
            "{} error(s), {} warning(s), {} note(s)",
            self.error_count(),
            self.count(Severity::Warning),
            self.count(Severity::Info)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_sectioned() {
        assert_eq!(Code::Fdb020.as_str(), "FDB020");
        assert_eq!(Code::Fdb020.paper_section(), "§4.2");
        assert_eq!(Code::Fdb030.paper_section(), "§4.4.1");
        assert_eq!(Code::Fdb021.severity(), Severity::Info);
        assert_eq!(Code::Fdb040.severity(), Severity::Warning);
        assert_eq!(Code::Fdb001.severity(), Severity::Error);
    }

    #[test]
    fn all_codes_listed_parseable_and_explained() {
        assert!(Code::ALL.windows(2).all(|w| w[0] < w[1]), "ALL is ordered");
        for code in Code::ALL {
            assert_eq!(Code::parse(code.as_str()), Some(code));
            assert_eq!(Code::parse(&code.as_str().to_lowercase()), Some(code));
            let text = code.explain();
            assert!(
                text.len() > 100,
                "{code} explanation should be long-form, got {} chars",
                text.len()
            );
        }
        assert_eq!(Code::parse("FDB999"), None);
    }

    #[test]
    fn report_sorts_errors_first_and_counts() {
        let r = Report::new(vec![
            Diagnostic::new(Code::Fdb021, "class `a`", "own-fragment read"),
            Diagnostic::new(Code::Fdb020, "class `b`", "cycle"),
            Diagnostic::new(Code::Fdb040, "classes", "lock cycle"),
        ]);
        assert_eq!(r.diagnostics()[0].code, Code::Fdb020);
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.count(Severity::Warning), 1);
        assert!(!r.is_admissible() || r.error_count() == 0);
        assert!(r.has(Code::Fdb021));
        assert!(!r.has(Code::Fdb001));
    }

    #[test]
    fn rendering_is_rustc_like() {
        let d = Diagnostic::new(Code::Fdb020, "class `scan` (edge F1 -> F2)", "cycle closed")
            .with_help("remove the read of F2");
        let s = d.to_string();
        assert!(s.starts_with("error[FDB020]: cycle closed (§4.2)"));
        assert!(s.contains("--> class `scan`"));
        assert!(s.contains("help: remove the read of F2"));
        let r = Report::new(vec![d]);
        assert!(r.to_string().contains("1 error(s)"));
    }
}
