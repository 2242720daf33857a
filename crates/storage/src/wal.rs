//! Per-node write-ahead log of installed transactions.
//!
//! Every update installed at a node — whether a local commit or a remote
//! quasi-transaction — is appended here. The log answers the questions the
//! §4.4 movement protocols ask during recovery:
//!
//! * "which transactions on fragment F have I seen?" (§4.4.1 majority
//!   recovery, §4.4.3's `M0` message),
//! * "give me transactions `j+1 ..= i` on F" (catch-up transfers),
//! * "has object x been overwritten since transaction q?" (§4.4.3's
//!   stale-update stripping),
//!
//! and it is what the log-transformation baseline exchanges after a
//! partition heals.
//!
//! The log is its entries plus each fragment's positions in installation
//! order, kept in a table indexed by the (dense from 0) fragment id, so an
//! append is two pushes and no search. The questions above, asked only on
//! recovery and movement paths, walk one fragment's positions or the log
//! backwards (DESIGN.md §3d).

use fragdb_model::{FragmentId, ObjectId, TxnId, Updates};
use fragdb_sim::SimTime;

/// One installed transaction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalEntry {
    /// Originating transaction.
    pub txn: TxnId,
    /// Fragment the updates belong to.
    pub fragment: FragmentId,
    /// Position in the fragment's update sequence.
    pub frag_seq: u64,
    /// Token epoch under which the update was issued.
    pub epoch: u64,
    /// The installed `(object, value)` pairs — shared with every other
    /// in-flight copy of the originating quasi-transaction, so logging (and
    /// shipping WAL entries during catch-up) never deep-copies the payload.
    pub updates: Updates,
    /// Virtual time of installation at this node.
    pub installed_at: SimTime,
}

/// Append-only installation log with a per-fragment position list.
#[derive(Clone, Debug, Default)]
pub struct Wal {
    entries: Vec<WalEntry>,
    /// `by_fragment[f]`: indices into `entries` of fragment `f`'s entries,
    /// in installation order.
    by_fragment: Vec<Vec<usize>>,
}

impl Wal {
    /// Empty log.
    pub fn new() -> Self {
        Wal::default()
    }

    /// Append an entry.
    pub fn append(&mut self, entry: WalEntry) {
        let f = entry.fragment.0 as usize;
        if f >= self.by_fragment.len() {
            self.by_fragment.resize_with(f + 1, Vec::new);
        }
        self.by_fragment[f].push(self.entries.len());
        self.entries.push(entry);
    }

    /// All entries, installation order.
    pub fn entries(&self) -> &[WalEntry] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the log is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries for one fragment, installation order.
    pub fn fragment_entries(&self, fragment: FragmentId) -> impl Iterator<Item = &WalEntry> {
        self.by_fragment
            .get(fragment.0 as usize)
            .into_iter()
            .flatten()
            .map(move |&i| &self.entries[i])
    }

    /// Highest `frag_seq` installed for `fragment`, or `None`.
    pub fn last_frag_seq(&self, fragment: FragmentId) -> Option<u64> {
        self.fragment_entries(fragment).map(|e| e.frag_seq).max()
    }

    /// Entries on `fragment` with `frag_seq` in the given inclusive range,
    /// ordered by `frag_seq` (catch-up transfer for §4.4.1 / §4.4.2B). The
    /// sort is stable: same-seq entries keep their installation order.
    pub fn fragment_range(&self, fragment: FragmentId, from: u64, to: u64) -> Vec<&WalEntry> {
        let mut out: Vec<&WalEntry> = self
            .fragment_entries(fragment)
            .filter(|e| (from..=to).contains(&e.frag_seq))
            .collect();
        out.sort_by_key(|e| e.frag_seq);
        out
    }

    /// The last transaction (by installation order at this node) that wrote
    /// `object`, if any — used by §4.4.3 to decide whether a late update has
    /// been overwritten.
    pub fn last_writer_of(&self, object: ObjectId) -> Option<&WalEntry> {
        self.entries
            .iter()
            .rev()
            .find(|e| e.updates.iter().any(|(o, _)| *o == object))
    }

    /// Entries installed strictly after virtual time `t` (log-transformation
    /// baseline: "transactions executed during the partition").
    pub fn entries_after(&self, t: SimTime) -> impl Iterator<Item = &WalEntry> {
        self.entries.iter().filter(move |e| e.installed_at > t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fragdb_model::{NodeId, Value};

    fn entry(frag: u32, frag_seq: u64, obj: u64, at: u64) -> WalEntry {
        WalEntry {
            txn: TxnId::new(NodeId(0), frag_seq),
            fragment: FragmentId(frag),
            frag_seq,
            epoch: 0,
            updates: vec![(ObjectId(obj), Value::Int(frag_seq as i64))].into(),
            installed_at: SimTime(at),
        }
    }

    #[test]
    fn append_preserves_order() {
        let mut w = Wal::new();
        w.append(entry(0, 0, 10, 1));
        w.append(entry(1, 0, 20, 2));
        w.append(entry(0, 1, 10, 3));
        assert_eq!(w.len(), 3);
        let f0: Vec<u64> = w
            .fragment_entries(FragmentId(0))
            .map(|e| e.frag_seq)
            .collect();
        assert_eq!(f0, vec![0, 1]);
        let f1: Vec<u64> = w
            .fragment_entries(FragmentId(1))
            .map(|e| e.frag_seq)
            .collect();
        assert_eq!(f1, vec![0]);
    }

    #[test]
    fn last_frag_seq_tracks_max() {
        let mut w = Wal::new();
        assert_eq!(w.last_frag_seq(FragmentId(0)), None);
        w.append(entry(0, 0, 10, 1));
        w.append(entry(0, 2, 10, 2)); // gap: seq 1 missing
        assert_eq!(w.last_frag_seq(FragmentId(0)), Some(2));
    }

    #[test]
    fn fragment_range_is_sorted_and_bounded() {
        let mut w = Wal::new();
        // Install out of frag_seq order (possible under §4.4.3).
        w.append(entry(0, 3, 10, 1));
        w.append(entry(0, 1, 10, 2));
        w.append(entry(0, 2, 10, 3));
        w.append(entry(0, 5, 10, 4));
        let seqs: Vec<u64> = w
            .fragment_range(FragmentId(0), 1, 3)
            .iter()
            .map(|e| e.frag_seq)
            .collect();
        assert_eq!(seqs, vec![1, 2, 3]);
    }

    #[test]
    fn last_writer_of_finds_most_recent() {
        let mut w = Wal::new();
        w.append(entry(0, 0, 7, 1));
        w.append(entry(0, 1, 8, 2));
        w.append(entry(0, 2, 7, 3));
        assert_eq!(w.last_writer_of(ObjectId(7)).unwrap().frag_seq, 2);
        assert_eq!(w.last_writer_of(ObjectId(8)).unwrap().frag_seq, 1);
        assert!(w.last_writer_of(ObjectId(99)).is_none());
    }

    #[test]
    fn entries_after_filters_by_time() {
        let mut w = Wal::new();
        w.append(entry(0, 0, 1, 10));
        w.append(entry(0, 1, 1, 20));
        w.append(entry(0, 2, 1, 30));
        let after: Vec<u64> = w.entries_after(SimTime(15)).map(|e| e.frag_seq).collect();
        assert_eq!(after, vec![1, 2]);
        assert_eq!(w.entries_after(SimTime(30)).count(), 0);
    }

    #[test]
    fn empty_wal() {
        let w = Wal::new();
        assert!(w.is_empty());
        assert_eq!(w.fragment_entries(FragmentId(0)).count(), 0);
        assert!(w.fragment_range(FragmentId(0), 0, 10).is_empty());
    }

    #[test]
    fn inverted_range_is_empty() {
        let mut w = Wal::new();
        w.append(entry(0, 2, 10, 1));
        assert!(w.fragment_range(FragmentId(0), 3, 1).is_empty());
    }

    /// Seeded pseudo-random log (out-of-order seqs, duplicate seqs across
    /// epochs, overlapping write sets): every lookup must meet its
    /// specification, stated over `entries()` alone.
    #[test]
    fn indexed_lookups_agree_with_scan_oracles() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            // xorshift64* — deterministic, no external RNG needed here.
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
            state
        };
        let mut w = Wal::new();
        for i in 0..400u64 {
            let frag = (next() % 3) as u32;
            let frag_seq = next() % 40;
            let nobj = 1 + next() % 3;
            let updates: Updates = (0..nobj)
                .map(|_| (ObjectId(next() % 20), Value::Int(next() as i64)))
                .collect();
            w.append(WalEntry {
                txn: TxnId::new(NodeId(frag), i),
                fragment: FragmentId(frag),
                frag_seq,
                epoch: next() % 4,
                updates,
                installed_at: SimTime(i),
            });
        }
        // `installed_at` is each entry's position in `entries()`.
        let pos = |e: &WalEntry| e.installed_at.0 as usize;
        let log = w.entries();
        assert!(log.iter().enumerate().all(|(i, e)| pos(e) == i));
        let writes = |e: &WalEntry, o: ObjectId| e.updates.iter().any(|(x, _)| *x == o);

        for frag in 0..4u32 {
            let f = FragmentId(frag);
            for from in 0..42u64 {
                for span in [0u64, 1, 5, 40] {
                    let to = from.saturating_add(span);
                    let got = w.fragment_range(f, from, to);
                    let in_range =
                        |e: &WalEntry| e.fragment == f && (from..=to).contains(&e.frag_seq);
                    let ctx = format!("frag={frag} from={from} to={to}");
                    assert!(got.iter().all(|e| in_range(e)), "foreign entry, {ctx}");
                    assert_eq!(
                        got.len(),
                        log.iter().filter(|e| in_range(e)).count(),
                        "missing entry, {ctx}"
                    );
                    // Strictly increasing on (seq, position): sorted by seq,
                    // same-seq entries in log order, and no entry twice —
                    // which with the count above makes `got` every match.
                    for pair in got.windows(2) {
                        assert!(
                            (pair[0].frag_seq, pos(pair[0])) < (pair[1].frag_seq, pos(pair[1])),
                            "order, {ctx}"
                        );
                    }
                }
            }
            let seqs = || log.iter().filter(|e| e.fragment == f).map(|e| e.frag_seq);
            match w.last_frag_seq(f) {
                Some(last) => {
                    assert!(seqs().all(|s| s <= last), "below max, frag={frag}");
                    assert!(seqs().any(|s| s == last), "not installed, frag={frag}");
                }
                None => assert_eq!(seqs().count(), 0, "fragment has entries, frag={frag}"),
            }
        }
        for obj in 0..22u64 {
            let o = ObjectId(obj);
            match w.last_writer_of(o) {
                Some(e) => {
                    assert!(writes(e, o), "does not write, obj={obj}");
                    assert!(
                        !log[pos(e) + 1..].iter().any(|later| writes(later, o)),
                        "a later entry writes, obj={obj}"
                    );
                }
                None => assert!(
                    !log.iter().any(|e| writes(e, o)),
                    "writer missed, obj={obj}"
                ),
            }
        }
    }
}
