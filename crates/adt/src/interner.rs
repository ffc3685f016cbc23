//! Hash-consing of sparse bit vectors.
//!
//! Meld labelling produces one label (a set of prelabels) per
//! (node, object) pair; many pairs share the same label. The interner maps
//! each distinct label to a dense `u32` id so the solver can compare and
//! index versions in O(1) and store the label set only once.

use crate::fxhash::FxHashMap;
use crate::sbv::SparseBitVector;
use std::fmt;

/// A fixed-capacity id space ran out of ids.
///
/// Returned by [`SbvInterner::try_intern`] when the next id would exceed
/// the interner's limit (`u32::MAX` by default, or the cap given to
/// [`SbvInterner::with_limit`]). Callers on the governed path surface it
/// as `DegradeReason::CapacityExhausted` instead of aborting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapacityOverflow {
    /// The id-space size that was exceeded.
    pub limit: usize,
}

impl fmt::Display for CapacityOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "interner id space exhausted ({} ids)", self.limit)
    }
}

impl std::error::Error for CapacityOverflow {}

/// Interns [`SparseBitVector`]s, assigning each distinct vector a dense id.
///
/// Id 0 is always the empty vector (the identity label `ε`).
///
/// # Examples
///
/// ```
/// use vsfs_adt::{SbvInterner, SparseBitVector};
///
/// let mut pool = SbvInterner::new();
/// assert_eq!(pool.intern(&SparseBitVector::new()), SbvInterner::EMPTY);
/// let a: SparseBitVector = [1u32, 2].into_iter().collect();
/// let id = pool.intern(&a);
/// assert_eq!(pool.intern(&a), id);
/// assert_eq!(pool.get(id), &a);
/// ```
#[derive(Debug)]
pub struct SbvInterner {
    map: FxHashMap<SparseBitVector, u32>,
    vecs: Vec<SparseBitVector>,
    limit: usize,
}

impl Default for SbvInterner {
    fn default() -> Self {
        SbvInterner::new()
    }
}

impl SbvInterner {
    /// The id of the empty vector.
    pub const EMPTY: u32 = 0;

    /// Creates an interner pre-seeded with the empty vector at id 0.
    pub fn new() -> Self {
        Self::with_limit(u32::MAX as usize + 1)
    }

    /// Creates an interner that holds at most `limit` distinct vectors
    /// (including the empty one). Lets tests exercise the overflow path
    /// without interning four billion sets.
    ///
    /// # Panics
    ///
    /// Panics if `limit` is 0 (the empty vector always occupies id 0) or
    /// exceeds the `u32` id space.
    pub fn with_limit(limit: usize) -> Self {
        assert!(limit >= 1 && limit <= u32::MAX as usize + 1, "bad interner limit {limit}");
        let mut i = SbvInterner { map: FxHashMap::default(), vecs: Vec::new(), limit };
        let id = i.try_intern(&SparseBitVector::new()).expect("limit >= 1");
        debug_assert_eq!(id, Self::EMPTY);
        i
    }

    /// Returns the id for `v`, allocating a new one if unseen.
    ///
    /// # Panics
    ///
    /// Panics on id-space overflow; governed callers use
    /// [`SbvInterner::try_intern`] instead and degrade cleanly.
    pub fn intern(&mut self, v: &SparseBitVector) -> u32 {
        self.try_intern(v).expect("interner overflow")
    }

    /// Returns the id for `v`, allocating a new one if unseen, or a
    /// [`CapacityOverflow`] once the id space is full.
    pub fn try_intern(&mut self, v: &SparseBitVector) -> Result<u32, CapacityOverflow> {
        if let Some(&id) = self.map.get(v) {
            return Ok(id);
        }
        if self.vecs.len() >= self.limit {
            return Err(CapacityOverflow { limit: self.limit });
        }
        let id = u32::try_from(self.vecs.len()).expect("limit bounds the id space");
        self.vecs.push(v.clone());
        self.map.insert(v.clone(), id);
        Ok(id)
    }

    /// Looks up a previously interned vector.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this interner.
    pub fn get(&self, id: u32) -> &SparseBitVector {
        &self.vecs[id as usize]
    }

    /// Number of distinct vectors interned (including the empty one).
    pub fn len(&self) -> usize {
        self.vecs.len()
    }

    /// Returns `true` if only the empty vector has been interned.
    pub fn is_empty(&self) -> bool {
        self.vecs.len() <= 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_zero() {
        let mut p = SbvInterner::new();
        assert_eq!(p.intern(&SparseBitVector::new()), 0);
        assert_eq!(p.len(), 1);
        assert!(p.is_empty());
    }

    #[test]
    fn dedups_equal_vectors() {
        let mut p = SbvInterner::new();
        let a: SparseBitVector = [3u32, 999].into_iter().collect();
        let b: SparseBitVector = [999u32, 3].into_iter().collect();
        let ia = p.intern(&a);
        let ib = p.intern(&b);
        assert_eq!(ia, ib);
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
    }

    #[test]
    fn distinct_vectors_get_distinct_ids() {
        let mut p = SbvInterner::new();
        let a: SparseBitVector = [1u32].into_iter().collect();
        let b: SparseBitVector = [2u32].into_iter().collect();
        let ia = p.intern(&a);
        let ib = p.intern(&b);
        assert_ne!(ia, ib);
        assert_eq!(p.get(ia), &a);
        assert_eq!(p.get(ib), &b);
    }

    #[test]
    fn limited_interner_reports_overflow() {
        // Room for ε plus one more vector.
        let mut p = SbvInterner::with_limit(2);
        let a: SparseBitVector = [1u32].into_iter().collect();
        let b: SparseBitVector = [2u32].into_iter().collect();
        let ia = p.try_intern(&a).expect("fits");
        assert_eq!(p.try_intern(&a), Ok(ia), "re-interning is always fine");
        assert_eq!(p.try_intern(&SparseBitVector::new()), Ok(SbvInterner::EMPTY));
        let err = p.try_intern(&b).unwrap_err();
        assert_eq!(err, CapacityOverflow { limit: 2 });
        assert!(err.to_string().contains("exhausted"));
    }
}
