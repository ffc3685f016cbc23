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
//! Used by the `ablations` benchmark to quantify the idea against plain
//! sparse bit vectors.

use crate::fxhash::FxHashMap;
use crate::sbv::SparseBitVector;

/// A dense id of an interned label.
pub type LabelId = u32;

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
#[derive(Debug, Default)]
pub struct MeldPool {
    sets: Vec<SparseBitVector>,
    ids: FxHashMap<SparseBitVector, LabelId>,
    memo: FxHashMap<(LabelId, LabelId), LabelId>,
}

impl MeldPool {
    /// The id of the identity label `ε` (the empty set).
    pub const EMPTY: LabelId = 0;

    /// Creates a pool pre-seeded with `ε`.
    pub fn new() -> Self {
        let mut p = MeldPool::default();
        let e = p.intern(SparseBitVector::new());
        debug_assert_eq!(e, Self::EMPTY);
        p
    }

    fn intern(&mut self, set: SparseBitVector) -> LabelId {
        if let Some(&id) = self.ids.get(&set) {
            return id;
        }
        let id = LabelId::try_from(self.sets.len()).expect("label pool overflow");
        self.ids.insert(set.clone(), id);
        self.sets.push(set);
        id
    }

    /// The label containing exactly `elem`.
    pub fn singleton(&mut self, elem: u32) -> LabelId {
        let mut s = SparseBitVector::new();
        s.insert(elem);
        self.intern(s)
    }

    /// Melds two labels, memoizing the result.
    pub fn meld(&mut self, a: LabelId, b: LabelId) -> LabelId {
        if a == b || b == Self::EMPTY {
            return a;
        }
        if a == Self::EMPTY {
            return b;
        }
        let key = if a < b { (a, b) } else { (b, a) };
        if let Some(&r) = self.memo.get(&key) {
            return r;
        }
        // Subset shortcuts before allocating a union.
        let r = if self.sets[a as usize].is_superset(&self.sets[b as usize]) {
            a
        } else if self.sets[b as usize].is_superset(&self.sets[a as usize]) {
            b
        } else {
            let mut u = self.sets[a as usize].clone();
            u.union_with(&self.sets[b as usize]);
            self.intern(u)
        };
        self.memo.insert(key, r);
        r
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
}
