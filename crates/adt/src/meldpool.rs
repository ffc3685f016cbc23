//! Hash-consed meld labels with memoized melds.
//!
//! The paper closes Section V-B observing that versioning "could perhaps
//! be further reduced by designing a data structure specifically catered
//! to versioning rather than using one off-the-shelf (LLVM's
//! `SparseBitVector`)". This module is one such design:
//!
//! * every distinct label (set of prelabels) is *interned* once and
//!   referred to by a dense [`LabelId`];
//! * the meld of two labels is computed at most once — a memo table maps
//!   the (unordered) pair of ids to the result id, so repeated melds of
//!   the same operands (extremely common: meld labelling keeps combining
//!   the same few store labels) are O(1) lookups;
//! * algebraic shortcuts (`a ⊙ a = a`, `a ⊙ ε = a`, and melding into a
//!   known superset) avoid touching set data entirely.
//!
//! Object versioning (`vsfs_core::versioning`) labels every object's
//! subgraph through one pool per worker, cleared between objects; equal
//! labels get equal ids, so a version is a label id.

use crate::fxhash::{FxBuildHasher, FxHashMap};
use crate::sbv::SparseBitVector;
use std::fmt;
use std::hash::BuildHasher;

/// A dense id of an interned label.
pub type LabelId = u32;

/// A fixed-capacity id space ran out of ids.
///
/// Returned by [`MeldPool::try_singleton`] and [`MeldPool::try_meld`]
/// when a new label would exceed the pool's limit (the whole `u32` id
/// space by default, or the cap given to [`MeldPool::with_limit`]).
/// Callers on the governed path surface it as
/// `DegradeReason::CapacityExhausted` instead of aborting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapacityOverflow {
    /// The id-space size that was exceeded.
    pub limit: usize,
}

impl fmt::Display for CapacityOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "label id space exhausted ({} ids)", self.limit)
    }
}

impl std::error::Error for CapacityOverflow {}

/// An interning pool with memoized melds.
///
/// # Examples
///
/// ```
/// use vsfs_adt::meldpool::MeldPool;
///
/// let mut pool = MeldPool::new();
/// let a = pool.singleton(1);
/// let b = pool.singleton(2);
/// let ab = pool.meld(a, b);
/// assert_eq!(pool.meld(b, a), ab);      // memoized, order-insensitive
/// assert_eq!(pool.meld(ab, a), ab);     // absorption
/// assert_eq!(pool.meld(ab, MeldPool::EMPTY), ab); // identity
/// assert_eq!(pool.set(ab).iter().collect::<Vec<_>>(), vec![1, 2]);
/// ```
#[derive(Debug)]
pub struct MeldPool {
    /// The set of each label, by id; `sets[0]` is `ε`.
    sets: Vec<SparseBitVector>,
    /// The newest label id per set hash; older ids with the same hash
    /// chain through `next_same_hash`. Each set is stored once.
    by_hash: FxHashMap<u64, LabelId>,
    next_same_hash: Vec<LabelId>,
    /// Emptied set buffers kept by [`MeldPool::clear`] for reuse, so a
    /// pool that is cleared and refilled stops allocating.
    spare: Vec<SparseBitVector>,
    memo: FxHashMap<(LabelId, LabelId), LabelId>,
    limit: usize,
}

impl Default for MeldPool {
    fn default() -> Self {
        MeldPool::new()
    }
}

/// End of a `next_same_hash` chain.
const NO_LABEL: LabelId = LabelId::MAX;

impl MeldPool {
    /// The id of the identity label `ε` (the empty set).
    pub const EMPTY: LabelId = 0;

    /// Creates a pool pre-seeded with `ε`.
    pub fn new() -> Self {
        Self::with_limit(LabelId::MAX as usize + 1)
    }

    /// Creates a pool that holds at most `limit` distinct labels
    /// (including `ε`), so tests can reach the overflow path.
    ///
    /// # Panics
    ///
    /// Panics if `limit` is 0 or exceeds the `u32` id space.
    pub fn with_limit(limit: usize) -> Self {
        assert!(limit >= 1 && limit <= LabelId::MAX as usize + 1, "bad label pool limit {limit}");
        MeldPool {
            sets: vec![SparseBitVector::new()],
            by_hash: FxHashMap::default(),
            next_same_hash: vec![NO_LABEL],
            spare: Vec::new(),
            memo: FxHashMap::default(),
            limit,
        }
    }

    /// Forgets every label but `ε`, keeping the limit, the allocated
    /// capacity and the set buffers for the next labelling.
    pub fn clear(&mut self) {
        for mut set in self.sets.drain(1..) {
            set.clear();
            self.spare.push(set);
        }
        self.next_same_hash.truncate(1);
        self.by_hash.clear();
        self.memo.clear();
    }

    /// Interns a non-empty `set` (`ε` is never looked up: melds and
    /// singletons of non-empty labels are non-empty).
    fn intern(&mut self, set: SparseBitVector) -> Result<LabelId, CapacityOverflow> {
        let hash = FxBuildHasher::default().hash_one(&set);
        let head = self.by_hash.get(&hash).copied().unwrap_or(NO_LABEL);
        let mut id = head;
        while id != NO_LABEL && self.sets[id as usize] != set {
            id = self.next_same_hash[id as usize];
        }
        if id == NO_LABEL && self.sets.len() < self.limit {
            id = LabelId::try_from(self.sets.len()).expect("the limit bounds the id space");
            self.by_hash.insert(hash, id);
            self.next_same_hash.push(head);
            self.sets.push(set);
            return Ok(id);
        }
        let mut set = set;
        set.clear();
        self.spare.push(set);
        if id == NO_LABEL {
            Err(CapacityOverflow { limit: self.limit })
        } else {
            Ok(id)
        }
    }

    /// [`MeldPool::try_singleton`], panicking when the pool is full.
    pub fn singleton(&mut self, elem: u32) -> LabelId {
        self.try_singleton(elem).expect("label pool overflow")
    }

    /// The label containing exactly `elem`, or a [`CapacityOverflow`]
    /// once the id space is full.
    pub fn try_singleton(&mut self, elem: u32) -> Result<LabelId, CapacityOverflow> {
        let mut s = self.spare.pop().unwrap_or_default();
        s.insert(elem);
        self.intern(s)
    }

    /// [`MeldPool::try_meld`], panicking when the pool is full.
    pub fn meld(&mut self, a: LabelId, b: LabelId) -> LabelId {
        self.try_meld(a, b).expect("label pool overflow")
    }

    /// Melds two labels, memoizing the result, or returns a
    /// [`CapacityOverflow`] when the meld is a new label and the id space
    /// is full.
    pub fn try_meld(&mut self, a: LabelId, b: LabelId) -> Result<LabelId, CapacityOverflow> {
        if a == b || b == Self::EMPTY {
            return Ok(a);
        }
        if a == Self::EMPTY {
            return Ok(b);
        }
        let key = if a < b { (a, b) } else { (b, a) };
        if let Some(&r) = self.memo.get(&key) {
            return Ok(r);
        }
        // Subset shortcuts before allocating a union.
        let r = if self.sets[a as usize].is_superset(&self.sets[b as usize]) {
            a
        } else if self.sets[b as usize].is_superset(&self.sets[a as usize]) {
            b
        } else {
            let mut u = self.spare.pop().unwrap_or_default();
            u.assign_union(&self.sets[a as usize], &self.sets[b as usize]);
            self.intern(u)?
        };
        self.memo.insert(key, r);
        Ok(r)
    }

    /// The set behind a label.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this pool.
    pub fn set(&self, id: LabelId) -> &SparseBitVector {
        &self.sets[id as usize]
    }

    /// Number of distinct labels interned (including `ε`).
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// Returns `true` if only `ε` exists.
    pub fn is_empty(&self) -> bool {
        self.sets.len() <= 1
    }

    /// Number of memoized meld results (a cache diagnostic).
    pub fn memo_size(&self) -> usize {
        self.memo.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsfs_testkit::gen;

    #[test]
    fn identity_and_idempotence() {
        let mut p = MeldPool::new();
        let a = p.singleton(7);
        assert_eq!(p.meld(a, a), a);
        assert_eq!(p.meld(a, MeldPool::EMPTY), a);
        assert_eq!(p.meld(MeldPool::EMPTY, a), a);
        assert_eq!(p.meld(MeldPool::EMPTY, MeldPool::EMPTY), MeldPool::EMPTY);
    }

    #[test]
    fn memoization_and_subset_shortcuts() {
        let mut p = MeldPool::new();
        let a = p.singleton(1);
        let b = p.singleton(2);
        let ab = p.meld(a, b);
        let before = p.memo_size();
        assert_eq!(p.meld(b, a), ab, "commutative via unordered key");
        assert_eq!(p.memo_size(), before, "second meld hit the memo");
        assert_eq!(p.meld(ab, b), ab, "superset shortcut");
        assert_eq!(p.len(), 4); // ε, {1}, {2}, {1,2}
    }

    /// The pool agrees with direct sparse-bit-vector unions.
    #[test]
    fn matches_direct_unions() {
        vsfs_testkit::check("meldpool::matches_direct_unions", |rng| {
            let ops = gen::vec_with(rng, 1..40, |r| {
                (r.gen_range(0u32..64), r.gen_range(0usize..8), r.gen_range(0usize..8))
            });
            let mut p = MeldPool::new();
            let mut ids: Vec<LabelId> = vec![MeldPool::EMPTY];
            let mut sets: Vec<SparseBitVector> = vec![SparseBitVector::new()];
            for (elem, i, j) in ops {
                // Alternate: intern a singleton, then meld two existing.
                let s = p.singleton(elem);
                ids.push(s);
                let mut sv = SparseBitVector::new();
                sv.insert(elem);
                sets.push(sv);

                let (i, j) = (i % ids.len(), j % ids.len());
                let m = p.meld(ids[i], ids[j]);
                let mut u = sets[i].clone();
                u.union_with(&sets[j]);
                assert_eq!(p.set(m), &u);
                ids.push(m);
                sets.push(u);
            }
        });
    }

    #[test]
    fn limited_pool_reports_overflow() {
        // Room for ε plus two more labels.
        let mut p = MeldPool::with_limit(3);
        let a = p.try_singleton(1).expect("fits");
        let b = p.try_singleton(2).expect("fits");
        assert_eq!(p.try_singleton(1), Ok(a), "re-interning is always fine");
        assert_eq!(p.try_meld(a, MeldPool::EMPTY), Ok(a), "shortcuts need no id");
        let err = p.try_meld(a, b).unwrap_err();
        assert_eq!(err, CapacityOverflow { limit: 3 });
        assert!(err.to_string().contains("exhausted"));
        assert_eq!(p.try_singleton(3).unwrap_err(), err);
        // Clearing frees the ids but keeps the cap.
        p.clear();
        assert!(p.is_empty());
        let c = p.try_singleton(3).expect("fits after clear");
        assert_eq!(p.set(c).iter().collect::<Vec<_>>(), vec![3]);
    }
}
