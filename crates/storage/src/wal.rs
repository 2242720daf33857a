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
//! The log is a list of segments that are never reallocated: the first
//! holds 64 entries and each later one as many as all before it, so the
//! cumulative capacities are 64, 128, 256, … . An append is one push into
//! the last segment, or one allocation of the next: as many allocations
//! as a doubling `Vec`, but no entry is ever copied, and no outgrown
//! buffer is left behind. There is no index. The questions above, asked
//! only on recovery and movement paths, scan the log (DESIGN.md §3d): at
//! seed 42 only `chaos-observed` asks them, 294 times over 1 045 671
//! entries in all, while `wide-mesh`, `rf3-wide` and `dense-few` append
//! 307 k, 480 k and 262 k entries and ask nothing.

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

/// Append-only installation log in segments that never move.
#[derive(Clone, Debug, Default)]
pub struct Wal {
    /// The entries in installation order. Segment `k` is allocated full
    /// size when the log first needs it (64 entries, then `32 << k`) and
    /// is only ever pushed into up to its capacity.
    segments: Vec<Vec<WalEntry>>,
}

impl Wal {
    /// Empty log.
    pub fn new() -> Self {
        Wal::default()
    }

    /// Append an entry.
    pub fn append(&mut self, entry: WalEntry) {
        match self.segments.last_mut() {
            Some(last) if last.len() < last.capacity() => last.push(entry),
            _ => {
                let k = self.segments.len();
                let mut next = Vec::with_capacity(if k == 0 { 64 } else { 32 << k });
                next.push(entry);
                self.segments.push(next);
            }
        }
    }

    /// All entries, installation order (`rev` for newest first).
    pub fn entries(&self) -> impl DoubleEndedIterator<Item = &WalEntry> {
        self.segments.iter().flatten()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.segments.iter().map(Vec::len).sum()
    }

    /// True if the log is empty.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Entries for one fragment, installation order.
    pub fn fragment_entries(&self, fragment: FragmentId) -> impl Iterator<Item = &WalEntry> {
        self.entries().filter(move |e| e.fragment == fragment)
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
        self.entries()
            .rev()
            .find(|e| e.updates.iter().any(|(o, _)| *o == object))
    }

    /// Entries installed strictly after virtual time `t` (log-transformation
    /// baseline: "transactions executed during the partition").
    pub fn entries_after(&self, t: SimTime) -> impl Iterator<Item = &WalEntry> {
        self.entries().filter(move |e| e.installed_at > t)
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
    /// epochs, overlapping write sets) of 1 000 entries, so across the
    /// segment boundaries at 64, 128, 256 and 512, kept beside a plain
    /// `Vec` oracle: every scan must answer what a scan of the oracle
    /// does, and every lookup must meet its specification over it.
    #[test]
    fn segmented_log_matches_a_vec_oracle() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            // xorshift64* — deterministic, no external RNG needed here.
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
            state
        };
        let (mut w, mut log) = (Wal::new(), Vec::new());
        for i in 0..1000u64 {
            let frag = (next() % 3) as u32;
            let frag_seq = next() % 40;
            let nobj = 1 + next() % 3;
            let updates: Updates = (0..nobj)
                .map(|_| (ObjectId(next() % 20), Value::Int(next() as i64)))
                .collect();
            let e = WalEntry {
                txn: TxnId::new(NodeId(frag), i),
                fragment: FragmentId(frag),
                frag_seq,
                epoch: next() % 4,
                updates,
                installed_at: SimTime(i),
            };
            log.push(e.clone());
            w.append(e);
        }
        assert_eq!(w.len(), log.len());
        assert!(w.entries().eq(&log), "forward order");
        assert!(w.entries().rev().eq(log.iter().rev()), "backward order");
        for t in [0, 63, 64, 127, 128, 300, 511, 512, 999, 1000] {
            let after = log.iter().filter(|e| e.installed_at > SimTime(t));
            assert!(w.entries_after(SimTime(t)).eq(after), "after t={t}");
        }
        // `installed_at` is each entry's position in the log.
        let pos = |e: &WalEntry| e.installed_at.0 as usize;
        let writes = |e: &WalEntry, o: ObjectId| e.updates.iter().any(|(x, _)| *x == o);

        for frag in 0..4u32 {
            let f = FragmentId(frag);
            let mine = || log.iter().filter(|e| e.fragment == f);
            assert!(w.fragment_entries(f).eq(mine()), "frag={frag}");
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
            let last = mine().map(|e| e.frag_seq).max();
            assert_eq!(w.last_frag_seq(f), last, "frag={frag}");
        }
        for obj in 0..22u64 {
            let o = ObjectId(obj);
            let last = log.iter().rev().find(|e| writes(e, o));
            assert_eq!(w.last_writer_of(o), last, "obj={obj}");
        }
    }

    /// No entry moves once appended: each keeps the address it had right
    /// after its own append, across 1 000 appends and four new segments.
    #[test]
    fn appended_entries_never_move() {
        let mut w = Wal::new();
        let mut addresses = Vec::new();
        for i in 0..1000u64 {
            w.append(entry(0, i, i, i));
            let newest = w.entries().next_back().expect("just appended");
            addresses.push(std::ptr::from_ref(newest));
        }
        let now: Vec<*const WalEntry> = w.entries().map(std::ptr::from_ref).collect();
        assert_eq!(now, addresses);
    }
}
