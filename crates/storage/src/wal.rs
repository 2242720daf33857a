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

use std::collections::BTreeMap;

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

/// Append-only installation log with a per-fragment index.
#[derive(Clone, Debug, Default)]
pub struct Wal {
    entries: Vec<WalEntry>,
    /// `fragment -> indices into entries`, in installation order.
    by_fragment: BTreeMap<FragmentId, Vec<usize>>,
    /// `fragment -> frag_seq -> indices into entries`. §4.4.3 installs out
    /// of `frag_seq` order, so an ordered map (not a sorted `Vec` + binary
    /// search over `by_fragment`) is what keeps range queries correct; the
    /// inner `Vec` preserves installation order for same-seq re-installs
    /// under different epochs.
    seq_index: BTreeMap<FragmentId, BTreeMap<u64, Vec<usize>>>,
    /// `object -> index of the last entry (installation order) writing it`.
    last_writer: BTreeMap<ObjectId, usize>,
}

impl Wal {
    /// Empty log.
    pub fn new() -> Self {
        Wal::default()
    }

    /// Append an entry.
    pub fn append(&mut self, entry: WalEntry) {
        let idx = self.entries.len();
        self.by_fragment
            .entry(entry.fragment)
            .or_default()
            .push(idx);
        self.seq_index
            .entry(entry.fragment)
            .or_default()
            .entry(entry.frag_seq)
            .or_default()
            .push(idx);
        for (o, _) in &entry.updates {
            self.last_writer.insert(*o, idx);
        }
        self.entries.push(entry);
    }

    /// Append a group-commit batch of entries in one call. One reservation
    /// covers the whole batch (a single "group fsync" in a disk-backed
    /// log); each entry is then indexed exactly as [`Wal::append`] would.
    pub fn append_batch(&mut self, batch: impl IntoIterator<Item = WalEntry>) {
        let batch = batch.into_iter();
        let (lo, _) = batch.size_hint();
        self.entries.reserve(lo);
        for entry in batch {
            self.append(entry);
        }
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
            .get(&fragment)
            .into_iter()
            .flatten()
            .map(move |&i| &self.entries[i])
    }

    /// Highest `frag_seq` installed for `fragment`, or `None`.
    pub fn last_frag_seq(&self, fragment: FragmentId) -> Option<u64> {
        self.seq_index
            .get(&fragment)
            .and_then(|seqs| seqs.keys().next_back().copied())
    }

    /// Has a transaction with this `frag_seq` on `fragment` been installed?
    pub fn has_frag_seq(&self, fragment: FragmentId, frag_seq: u64) -> bool {
        self.seq_index
            .get(&fragment)
            .is_some_and(|seqs| seqs.contains_key(&frag_seq))
    }

    /// Entries on `fragment` with `frag_seq` in the given inclusive range,
    /// ordered by `frag_seq` (catch-up transfer for §4.4.1 / §4.4.2B).
    pub fn fragment_range(&self, fragment: FragmentId, from: u64, to: u64) -> Vec<&WalEntry> {
        if from > to {
            return Vec::new();
        }
        self.seq_index
            .get(&fragment)
            .into_iter()
            .flat_map(|seqs| seqs.range(from..=to))
            .flat_map(|(_, idxs)| idxs.iter().map(|&i| &self.entries[i]))
            .collect()
    }

    /// The last transaction (by installation order at this node) that wrote
    /// `object`, if any — used by §4.4.3 to decide whether a late update has
    /// been overwritten.
    pub fn last_writer_of(&self, object: ObjectId) -> Option<&WalEntry> {
        self.last_writer.get(&object).map(|&i| &self.entries[i])
    }

    /// Scan-based reference implementation of [`Wal::fragment_range`]: walk
    /// the whole log, filter, sort — touching no index at all. Retained as
    /// the oracle the indexed path is tested against; production code
    /// should use `fragment_range`.
    pub fn fragment_range_scan(&self, fragment: FragmentId, from: u64, to: u64) -> Vec<&WalEntry> {
        let mut out: Vec<&WalEntry> = self
            .entries
            .iter()
            .filter(|e| e.fragment == fragment && (from..=to).contains(&e.frag_seq))
            .collect();
        out.sort_by_key(|e| e.frag_seq);
        out
    }

    /// Scan-based reference implementation of [`Wal::last_writer_of`]
    /// (reverse scan over every entry) — oracle / bench "before" arm.
    pub fn last_writer_of_scan(&self, object: ObjectId) -> Option<&WalEntry> {
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
        assert!(w.has_frag_seq(FragmentId(0), 2));
        assert!(!w.has_frag_seq(FragmentId(0), 1));
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
        assert!(w.fragment_range_scan(FragmentId(0), 3, 1).is_empty());
    }

    /// Seeded pseudo-random log (out-of-order seqs, duplicate seqs across
    /// epochs, overlapping write sets): the indexed lookups must agree with
    /// the scan oracles on every query.
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
        for frag in 0..4u32 {
            let f = FragmentId(frag);
            for from in 0..42u64 {
                for span in [0u64, 1, 5, 40] {
                    let to = from.saturating_add(span);
                    assert_eq!(
                        w.fragment_range(f, from, to),
                        w.fragment_range_scan(f, from, to),
                        "range mismatch frag={frag} from={from} to={to}"
                    );
                }
                assert_eq!(
                    w.has_frag_seq(f, from),
                    w.fragment_entries(f).any(|e| e.frag_seq == from),
                    "has_frag_seq mismatch frag={frag} seq={from}"
                );
            }
            assert_eq!(
                w.last_frag_seq(f),
                w.fragment_entries(f).map(|e| e.frag_seq).max(),
                "last_frag_seq mismatch frag={frag}"
            );
        }
        for obj in 0..22u64 {
            assert_eq!(
                w.last_writer_of(ObjectId(obj)),
                w.last_writer_of_scan(ObjectId(obj)),
                "last_writer mismatch obj={obj}"
            );
        }
    }
}
