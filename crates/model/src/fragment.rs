//! Fragments and the fragment catalog.
//!
//! §3.1: *"The entire database is logically divided into k non-overlapping
//! subsets called fragments."* The [`FragmentCatalog`] is the authoritative
//! object→fragment mapping; it validates disjointness at construction and
//! answers the lookup every admission check needs (`fragment_of`).

use std::collections::BTreeMap;

use crate::error::ModelError;
use crate::ids::{FragmentId, ObjectId};

/// One fragment: a named, disjoint set of data objects.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fragment {
    /// Identifier, dense from 0.
    pub id: FragmentId,
    /// Human-readable name, e.g. `"BALANCES"` or `"ACTIVITY(0001)"`.
    pub name: String,
    /// Objects contained in this fragment, sorted.
    pub objects: Vec<ObjectId>,
}

impl Fragment {
    /// Construct a fragment; objects are sorted and deduplicated.
    pub fn new(id: FragmentId, name: impl Into<String>, mut objects: Vec<ObjectId>) -> Self {
        objects.sort_unstable();
        objects.dedup();
        Fragment {
            id,
            name: name.into(),
            objects,
        }
    }

    /// Does this fragment contain `object`?
    pub fn contains(&self, object: ObjectId) -> bool {
        self.objects.binary_search(&object).is_ok()
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True if the fragment has no objects (legal: §4.2's central fragment
    /// could start empty).
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }
}

/// The validated set of all fragments: the database schema.
#[derive(Clone, Debug, Default)]
pub struct FragmentCatalog {
    fragments: Vec<Fragment>,
    /// Maximal runs of consecutive object ids in one fragment,
    /// `(first, last, fragment)`, sorted by id. A builder catalog has one
    /// run per fragment; sparse ids make more, shorter runs.
    runs: Vec<(ObjectId, ObjectId, FragmentId)>,
}

impl FragmentCatalog {
    /// Build a catalog, checking that fragments are pairwise disjoint.
    pub fn new(fragments: Vec<Fragment>) -> Result<Self, ModelError> {
        let mut object_to_fragment = BTreeMap::new();
        for frag in &fragments {
            for &obj in &frag.objects {
                if let Some(&prev) = object_to_fragment.get(&obj) {
                    return Err(ModelError::OverlappingFragments {
                        object: obj,
                        first: prev,
                        second: frag.id,
                    });
                }
                object_to_fragment.insert(obj, frag.id);
            }
        }
        // A map iterates in key order, so the runs come out sorted.
        let mut runs: Vec<(ObjectId, ObjectId, FragmentId)> = Vec::new();
        for (obj, frag) in object_to_fragment {
            match runs.last_mut() {
                Some((_, last, f)) if *f == frag && last.0 + 1 == obj.0 => *last = obj,
                _ => runs.push((obj, obj, frag)),
            }
        }
        Ok(FragmentCatalog { fragments, runs })
    }

    /// Incremental builder for workload setup code.
    pub fn builder() -> FragmentCatalogBuilder {
        FragmentCatalogBuilder::default()
    }

    /// The fragment containing `object`.
    pub fn fragment_of(&self, object: ObjectId) -> Result<FragmentId, ModelError> {
        // The last run starting at or below `object` holds it, if any does.
        let after = self.runs.partition_point(|&(first, _, _)| first <= object);
        match after.checked_sub(1).map(|i| self.runs[i]) {
            Some((_, last, fragment)) if object <= last => Ok(fragment),
            _ => Err(ModelError::UnknownObject(object)),
        }
    }

    /// Fragment metadata by id.
    pub fn fragment(&self, id: FragmentId) -> Result<&Fragment, ModelError> {
        self.fragments
            .iter()
            .find(|f| f.id == id)
            .ok_or(ModelError::UnknownFragment(id))
    }

    /// All fragments.
    pub fn fragments(&self) -> &[Fragment] {
        &self.fragments
    }

    /// Number of fragments (`k` in the paper).
    pub fn len(&self) -> usize {
        self.fragments.len()
    }

    /// True if no fragments are declared.
    pub fn is_empty(&self) -> bool {
        self.fragments.is_empty()
    }

    /// Every object in the database, in id order.
    pub fn all_objects(&self) -> impl Iterator<Item = ObjectId> + '_ {
        let ids = self
            .runs
            .iter()
            .flat_map(|&(first, last, _)| first.0..=last.0);
        ids.map(ObjectId)
    }

    /// Total number of objects across all fragments.
    pub fn object_count(&self) -> usize {
        self.all_objects().count()
    }
}

/// Builder that allocates fragment ids densely and object ids on demand.
#[derive(Debug, Default)]
pub struct FragmentCatalogBuilder {
    fragments: Vec<Fragment>,
    next_object: u64,
}

impl FragmentCatalogBuilder {
    /// Add a fragment with `n_objects` freshly allocated objects. Returns
    /// the new fragment id and the allocated object ids.
    pub fn add_fragment(
        &mut self,
        name: impl Into<String>,
        n_objects: usize,
    ) -> (FragmentId, Vec<ObjectId>) {
        let id = FragmentId(self.fragments.len() as u32);
        let objects: Vec<ObjectId> = (0..n_objects)
            .map(|i| ObjectId(self.next_object + i as u64))
            .collect();
        self.next_object += n_objects as u64;
        self.fragments
            .push(Fragment::new(id, name, objects.clone()));
        (id, objects)
    }

    /// Finish building. Cannot fail: the builder allocates disjoint ids by
    /// construction, but we still run the validating constructor as a
    /// defense in depth.
    pub fn build(self) -> FragmentCatalog {
        FragmentCatalog::new(self.fragments)
            .expect("builder allocates disjoint object ids by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(i: u64) -> ObjectId {
        ObjectId(i)
    }

    #[test]
    fn catalog_maps_objects_to_fragments() {
        let cat = FragmentCatalog::new(vec![
            Fragment::new(FragmentId(0), "A", vec![obj(0), obj(1)]),
            Fragment::new(FragmentId(1), "B", vec![obj(2)]),
        ])
        .unwrap();
        assert_eq!(cat.fragment_of(obj(0)).unwrap(), FragmentId(0));
        assert_eq!(cat.fragment_of(obj(2)).unwrap(), FragmentId(1));
        assert_eq!(cat.len(), 2);
        assert_eq!(cat.object_count(), 3);
    }

    /// With gaps between ids every object still maps to its fragment, an
    /// absent one is unknown, and objects list in id order.
    #[test]
    fn sparse_ids_map_to_their_fragments() {
        let cat = FragmentCatalog::new(vec![
            Fragment::new(FragmentId(0), "A", vec![obj(7), obj(900)]),
            Fragment::new(FragmentId(1), "B", vec![obj(1), obj(40)]),
        ])
        .unwrap();
        for (o, f) in [(1, 1), (7, 0), (40, 1), (900, 0)] {
            assert_eq!(cat.fragment_of(obj(o)).unwrap(), FragmentId(f), "x{o}");
        }
        for o in [0, 2, 3, 899, u64::MAX] {
            assert!(cat.fragment_of(obj(o)).is_err(), "x{o}");
        }
        let ids: Vec<u64> = cat.all_objects().map(ObjectId::raw).collect();
        assert_eq!(ids, vec![1, 7, 40, 900]);
    }

    /// Consecutive ids of one fragment share a run: a run's ends and the
    /// ids either side of it resolve right, and a fragment split by
    /// another's ids is two runs.
    #[test]
    fn consecutive_ids_map_through_runs() {
        let cat = FragmentCatalog::new(vec![
            Fragment::new(FragmentId(0), "A", vec![obj(2), obj(3), obj(4), obj(8)]),
            Fragment::new(FragmentId(1), "B", vec![obj(5), obj(6), obj(u64::MAX)]),
        ])
        .unwrap();
        assert_eq!(cat.runs.len(), 4);
        for (o, f) in [
            (2, 0),
            (3, 0),
            (4, 0),
            (5, 1),
            (6, 1),
            (8, 0),
            (u64::MAX, 1),
        ] {
            assert_eq!(cat.fragment_of(obj(o)).unwrap(), FragmentId(f), "x{o}");
        }
        for o in [0, 1, 7, 9, u64::MAX - 1] {
            assert!(cat.fragment_of(obj(o)).is_err(), "x{o}");
        }
        assert_eq!(cat.object_count(), 7);
        let mut b = FragmentCatalog::builder();
        for name in ["A", "B", "C"] {
            b.add_fragment(name, 64);
        }
        let cat = b.build();
        assert_eq!(
            cat.runs.len(),
            3,
            "a builder catalog is one run per fragment"
        );
        assert_eq!(cat.fragment_of(obj(127)).unwrap(), FragmentId(1));
        assert_eq!(cat.fragment_of(obj(128)).unwrap(), FragmentId(2));
        assert!(cat.fragment_of(obj(192)).is_err());
    }

    #[test]
    fn overlap_is_rejected() {
        let err = FragmentCatalog::new(vec![
            Fragment::new(FragmentId(0), "A", vec![obj(0)]),
            Fragment::new(FragmentId(1), "B", vec![obj(0)]),
        ])
        .unwrap_err();
        assert!(matches!(err, ModelError::OverlappingFragments { .. }));
    }

    #[test]
    fn unknown_object_is_reported() {
        let cat = FragmentCatalog::new(vec![]).unwrap();
        assert_eq!(
            cat.fragment_of(obj(5)).unwrap_err(),
            ModelError::UnknownObject(obj(5))
        );
    }

    #[test]
    fn unknown_fragment_is_reported() {
        let cat = FragmentCatalog::new(vec![]).unwrap();
        assert_eq!(
            cat.fragment(FragmentId(9)).unwrap_err(),
            ModelError::UnknownFragment(FragmentId(9))
        );
    }

    #[test]
    fn fragment_contains_uses_sorted_lookup() {
        let f = Fragment::new(FragmentId(0), "A", vec![obj(5), obj(1), obj(3), obj(1)]);
        assert_eq!(f.len(), 3); // deduped
        assert!(f.contains(obj(3)));
        assert!(!f.contains(obj(2)));
    }

    #[test]
    fn empty_fragment_is_legal() {
        let f = Fragment::new(FragmentId(0), "C", vec![]);
        assert!(f.is_empty());
        let cat = FragmentCatalog::new(vec![f]).unwrap();
        assert_eq!(cat.len(), 1);
        assert_eq!(cat.object_count(), 0);
    }

    #[test]
    fn builder_allocates_dense_ids() {
        let mut b = FragmentCatalog::builder();
        let (f0, objs0) = b.add_fragment("BALANCES", 2);
        let (f1, objs1) = b.add_fragment("ACTIVITY(1)", 3);
        assert_eq!(f0, FragmentId(0));
        assert_eq!(f1, FragmentId(1));
        assert_eq!(objs0, vec![obj(0), obj(1)]);
        assert_eq!(objs1, vec![obj(2), obj(3), obj(4)]);
        let cat = b.build();
        assert_eq!(cat.fragment_of(obj(4)).unwrap(), f1);
        assert_eq!(cat.fragment(f0).unwrap().name, "BALANCES");
    }

    #[test]
    fn all_objects_iterates_in_order() {
        let mut b = FragmentCatalog::builder();
        b.add_fragment("A", 2);
        b.add_fragment("B", 2);
        let cat = b.build();
        let objs: Vec<ObjectId> = cat.all_objects().collect();
        assert_eq!(objs, vec![obj(0), obj(1), obj(2), obj(3)]);
    }
}
