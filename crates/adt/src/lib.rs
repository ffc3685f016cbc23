//! Core abstract data types for the VSFS pointer-analysis workspace.
//!
//! This crate provides the low-level building blocks shared by every other
//! crate in the workspace:
//!
//! * [`SparseBitVector`] — a sparse bit set mirroring LLVM's
//!   `SparseBitVector`, used both for points-to sets and for meld labels
//!   (the paper's versions are sets of prelabels melded with bitwise-or).
//! * [`PointsToSet`] — a thin, element-typed wrapper over
//!   [`SparseBitVector`].
//! * [`index`] — typed `u32` indices ([`define_index!`](crate::define_index)) and dense
//!   index-keyed vectors ([`IndexVec`]).
//! * [`worklist`] — a FIFO worklist and the counted rank-bucketed
//!   [`Worklist`] of the flow-sensitive solvers, both with membership
//!   dedup.
//! * [`mem`] — a counting global allocator used by the benchmark harness to
//!   report peak live bytes (the reproduction's substitute for GNU `time`'s
//!   max-RSS column in Table III).
//! * [`fxhash`] — the in-tree Fx hasher and the [`FxHashMap`] /
//!   [`FxHashSet`] aliases. The keying rule: a map keyed by ids the
//!   program mints (arena indices, interned set ids, sets of them) uses
//!   the Fx aliases; a map keyed by text from outside the program
//!   (identifier names in a request, or keys hashed from them) keeps
//!   std's randomly keyed SipHash, so a client cannot craft collisions.
//!   `clippy.toml` bans the bare std maps to hold the rule. Iteration
//!   order of either kind of map is not a contract: anything that
//!   leaves a map for output or a fingerprint is sorted first.
//! * [`meldpool`] — hash-consed meld labels with memoized melds, the
//!   label representation of object versioning.
//! * [`ptstore`] — hash-consed points-to sets ([`PtsId`] handles into a
//!   shared [`PtsStore`]) with memoized `union`/`insert` algebra, the
//!   storage representation of every solver stage.
//! * [`par`] — std-only deterministic parallelism: a sharded
//!   work-stealing worklist and the scoped-thread task driver behind
//!   parallel versioning.
//! * [`govern`] — resource budgets, cooperative cancellation, and typed
//!   [`Outcome`]s so every long-running solver entry point is bounded
//!   and degrades instead of dying.
//!
//! # Examples
//!
//! ```
//! use vsfs_adt::SparseBitVector;
//!
//! let mut a = SparseBitVector::new();
//! a.insert(3);
//! a.insert(400);
//! let mut b = SparseBitVector::new();
//! b.insert(400);
//! b.insert(7);
//! assert!(a.union_with(&b)); // changed
//! assert_eq!(a.iter().collect::<Vec<_>>(), vec![3, 7, 400]);
//! ```

pub mod fxhash;
pub mod govern;
pub mod index;
pub mod meldpool;
pub mod mem;
pub mod par;
pub mod ptstore;
pub mod sbv;
pub mod stats;
pub mod worklist;

pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use govern::{
    Budget, CancelToken, Completion, DegradeReason, FaultKind, FaultSpec, Governor, Outcome,
    WorkerFault,
};
pub use index::IndexVec;
pub use meldpool::{CapacityOverflow, MeldPool};
pub use par::{ParConfig, ParStats, ShardedWorklist};
pub use ptstore::{CarryStats, FlatReader, PtsCarry, PtsId, PtsStore, PtsStoreStats};
pub use sbv::SparseBitVector;
pub use worklist::{FifoWorklist, Worklist, WorklistStats};

use std::fmt;
use std::marker::PhantomData;

/// A set of elements identified by a typed `u32` index, backed by a
/// [`SparseBitVector`].
///
/// `PointsToSet<ObjId>` is the canonical points-to set of the analyses;
/// the same type with other index types is used for label sets and
/// reachability sets.
///
/// # Examples
///
/// ```
/// use vsfs_adt::{define_index, PointsToSet};
///
/// define_index!(ObjId, "o");
/// let mut pts = PointsToSet::<ObjId>::new();
/// pts.insert(ObjId::new(4));
/// assert!(pts.contains(ObjId::new(4)));
/// assert_eq!(pts.len(), 1);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct PointsToSet<I> {
    bits: SparseBitVector,
    _marker: PhantomData<I>,
}

impl<I> Default for PointsToSet<I> {
    fn default() -> Self {
        PointsToSet { bits: SparseBitVector::new(), _marker: PhantomData }
    }
}

impl<I: index::Idx> PointsToSet<I> {
    /// Creates an empty set.
    pub fn new() -> Self {
        PointsToSet { bits: SparseBitVector::new(), _marker: PhantomData }
    }

    /// Creates a set holding a single element.
    pub fn singleton(elem: I) -> Self {
        let mut s = Self::new();
        s.insert(elem);
        s
    }

    /// Inserts `elem`, returning `true` if it was not already present.
    pub fn insert(&mut self, elem: I) -> bool {
        self.bits.insert(elem.index() as u32)
    }

    /// Removes `elem`, returning `true` if it was present.
    pub fn remove(&mut self, elem: I) -> bool {
        self.bits.remove(elem.index() as u32)
    }

    /// Returns `true` if `elem` is in the set.
    pub fn contains(&self, elem: I) -> bool {
        self.bits.contains(elem.index() as u32)
    }

    /// Unions `other` into `self`; returns `true` if `self` changed.
    pub fn union_with(&mut self, other: &Self) -> bool {
        self.bits.union_with(&other.bits)
    }

    /// Removes every element of `other` from `self`; returns `true` if
    /// `self` changed.
    pub fn subtract(&mut self, other: &Self) -> bool {
        self.bits.subtract(&other.bits)
    }

    /// Keeps only elements also present in `other`; returns `true` if
    /// `self` changed.
    pub fn intersect_with(&mut self, other: &Self) -> bool {
        self.bits.intersect_with(&other.bits)
    }

    /// Returns `true` if the set has no elements.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Number of elements in the set.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Returns `true` if every element of `other` is in `self`.
    pub fn is_superset(&self, other: &Self) -> bool {
        self.bits.is_superset(&other.bits)
    }

    /// Returns `true` if the two sets share no elements.
    pub fn is_disjoint(&self, other: &Self) -> bool {
        self.bits.is_disjoint(&other.bits)
    }

    /// Iterates elements in ascending index order.
    pub fn iter(&self) -> impl Iterator<Item = I> + '_ {
        self.bits.iter().map(|raw| I::from_index(raw as usize))
    }

    /// If the set holds exactly one element, returns it.
    pub fn as_singleton(&self) -> Option<I> {
        self.bits.as_singleton().map(|raw| I::from_index(raw as usize))
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.bits.clear();
    }

    /// Access to the underlying untyped bit vector.
    pub fn raw(&self) -> &SparseBitVector {
        &self.bits
    }

    /// Builds a typed set from an untyped bit vector.
    pub fn from_raw(bits: SparseBitVector) -> Self {
        PointsToSet { bits, _marker: PhantomData }
    }

    /// Approximate heap footprint in bytes (used for logical memory stats).
    pub fn heap_bytes(&self) -> usize {
        self.bits.heap_bytes()
    }
}

impl<I: index::Idx> FromIterator<I> for PointsToSet<I> {
    fn from_iter<T: IntoIterator<Item = I>>(iter: T) -> Self {
        let mut s = Self::new();
        for e in iter {
            s.insert(e);
        }
        s
    }
}

impl<I: index::Idx> Extend<I> for PointsToSet<I> {
    fn extend<T: IntoIterator<Item = I>>(&mut self, iter: T) {
        for e in iter {
            self.insert(e);
        }
    }
}

impl<I: index::Idx + fmt::Debug> fmt::Debug for PointsToSet<I> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::define_index!(TestId, "t");

    #[test]
    fn typed_set_basic() {
        let mut s = PointsToSet::<TestId>::new();
        assert!(s.is_empty());
        assert!(s.insert(TestId::new(10)));
        assert!(!s.insert(TestId::new(10)));
        assert!(s.contains(TestId::new(10)));
        assert_eq!(s.len(), 1);
        assert_eq!(s.as_singleton(), Some(TestId::new(10)));
        assert!(s.insert(TestId::new(2)));
        assert_eq!(s.as_singleton(), None);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![TestId::new(2), TestId::new(10)]);
    }

    #[test]
    fn typed_set_ops() {
        let a: PointsToSet<TestId> = [1u32, 5, 9].iter().map(|&i| TestId::new(i)).collect();
        let b: PointsToSet<TestId> = [5u32, 7].iter().map(|&i| TestId::new(i)).collect();
        let mut u = a.clone();
        assert!(u.union_with(&b));
        assert_eq!(u.len(), 4);
        assert!(u.is_superset(&a) && u.is_superset(&b));
        let mut d = u.clone();
        assert!(d.subtract(&a));
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![TestId::new(7)]);
        assert!(d.is_disjoint(&a));
    }
}
