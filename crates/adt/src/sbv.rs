//! A sparse bit vector over `u32` element indices.
//!
//! The representation mirrors LLVM's `SparseBitVector`, which the paper's
//! SVF implementation uses both for points-to sets and for meld labels: a
//! sorted sequence of 128-bit blocks, each covering an aligned range of
//! element indices. Dense clusters cost two machine words of payload per
//! 128 elements; sparse sets cost one block per populated cluster.
//!
//! All binary operations (`union_with`, `subtract`, `intersect_with`,
//! `is_superset`, `is_disjoint`) are merge joins over the sorted block
//! sequences and run in `O(blocks)`.

/// Number of bits covered by one block.
pub const BITS_PER_BLOCK: u32 = 128;
const WORDS_PER_BLOCK: usize = 2;
const BITS_PER_WORD: u32 = 64;

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct Block {
    /// Element index of bit 0 of this block; always a multiple of 128.
    base: u32,
    words: [u64; WORDS_PER_BLOCK],
}

impl Block {
    fn new(base: u32) -> Self {
        Block { base, words: [0; WORDS_PER_BLOCK] }
    }

    fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// Appends the merge join `a ∪ b` to `out`; returns `true` if it differs
/// from `a`.
fn merge_union(out: &mut Vec<Block>, a: &[Block], b: &[Block]) -> bool {
    let mut changed = false;
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        if x.base < y.base {
            out.push(x);
            i += 1;
        } else if x.base > y.base {
            out.push(y);
            changed = true;
            j += 1;
        } else {
            let mut merged = x;
            for k in 0..WORDS_PER_BLOCK {
                merged.words[k] |= y.words[k];
            }
            changed |= merged != x;
            out.push(merged);
            i += 1;
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    changed || j < b.len()
}

/// A sparse set of `u32` values.
///
/// # Examples
///
/// ```
/// use vsfs_adt::SparseBitVector;
///
/// let mut s = SparseBitVector::new();
/// assert!(s.insert(1000));
/// assert!(!s.insert(1000));
/// assert!(s.contains(1000));
/// assert_eq!(s.len(), 1);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct SparseBitVector {
    blocks: Vec<Block>,
}

impl SparseBitVector {
    /// Creates an empty set.
    pub fn new() -> Self {
        SparseBitVector { blocks: Vec::new() }
    }

    /// Returns `true` if the set has no elements.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Number of elements (population count).
    pub fn len(&self) -> usize {
        self.blocks.iter().map(Block::count).sum()
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.blocks.clear();
    }

    fn locate(&self, base: u32) -> Result<usize, usize> {
        self.blocks.binary_search_by_key(&base, |b| b.base)
    }

    /// Inserts `elem`; returns `true` if it was newly inserted.
    pub fn insert(&mut self, elem: u32) -> bool {
        let base = elem & !(BITS_PER_BLOCK - 1);
        let word = ((elem - base) / BITS_PER_WORD) as usize;
        let bit = 1u64 << (elem % BITS_PER_WORD);
        match self.locate(base) {
            Ok(i) => {
                let w = &mut self.blocks[i].words[word];
                let had = *w & bit != 0;
                *w |= bit;
                !had
            }
            Err(i) => {
                let mut b = Block::new(base);
                b.words[word] = bit;
                self.blocks.insert(i, b);
                true
            }
        }
    }

    /// Removes `elem`; returns `true` if it was present.
    pub fn remove(&mut self, elem: u32) -> bool {
        let base = elem & !(BITS_PER_BLOCK - 1);
        let word = ((elem - base) / BITS_PER_WORD) as usize;
        let bit = 1u64 << (elem % BITS_PER_WORD);
        match self.locate(base) {
            Ok(i) => {
                let had = self.blocks[i].words[word] & bit != 0;
                self.blocks[i].words[word] &= !bit;
                if had && self.blocks[i].is_empty() {
                    self.blocks.remove(i);
                }
                had
            }
            Err(_) => false,
        }
    }

    /// Returns `true` if `elem` is in the set.
    pub fn contains(&self, elem: u32) -> bool {
        let base = elem & !(BITS_PER_BLOCK - 1);
        let word = ((elem - base) / BITS_PER_WORD) as usize;
        let bit = 1u64 << (elem % BITS_PER_WORD);
        match self.locate(base) {
            Ok(i) => self.blocks[i].words[word] & bit != 0,
            Err(_) => false,
        }
    }

    /// Unions `other` into `self`; returns `true` if `self` changed.
    ///
    /// This is the meld operator used for object versioning: bitwise-or is
    /// commutative, associative, idempotent, and the empty set is its
    /// identity (Section IV-B of the paper).
    pub fn union_with(&mut self, other: &SparseBitVector) -> bool {
        if other.blocks.is_empty() {
            return false;
        }
        let mut out = Vec::with_capacity(self.blocks.len().max(other.blocks.len()));
        let changed = merge_union(&mut out, &self.blocks, &other.blocks);
        if changed {
            self.blocks = out;
        }
        changed
    }

    /// Sets `self` to `a ∪ b`, reusing `self`'s buffer — the
    /// allocation-free union of [`crate::MeldPool`]'s recycled sets.
    pub fn assign_union(&mut self, a: &SparseBitVector, b: &SparseBitVector) {
        self.blocks.clear();
        merge_union(&mut self.blocks, &a.blocks, &b.blocks);
    }

    /// Removes every element of `other` from `self`; returns `true` if
    /// `self` changed.
    pub fn subtract(&mut self, other: &SparseBitVector) -> bool {
        let mut changed = false;
        let mut i = 0;
        let mut j = 0;
        while i < self.blocks.len() && j < other.blocks.len() {
            let a_base = self.blocks[i].base;
            let b = &other.blocks[j];
            if a_base < b.base {
                i += 1;
            } else if a_base > b.base {
                j += 1;
            } else {
                for k in 0..WORDS_PER_BLOCK {
                    let w = self.blocks[i].words[k] & !b.words[k];
                    if w != self.blocks[i].words[k] {
                        changed = true;
                        self.blocks[i].words[k] = w;
                    }
                }
                j += 1;
                if self.blocks[i].is_empty() {
                    self.blocks.remove(i);
                } else {
                    i += 1;
                }
            }
        }
        changed
    }

    /// Keeps only elements also present in `other`; returns `true` if
    /// `self` changed.
    pub fn intersect_with(&mut self, other: &SparseBitVector) -> bool {
        let mut changed = false;
        let mut out = Vec::new();
        let mut i = 0;
        let mut j = 0;
        while i < self.blocks.len() && j < other.blocks.len() {
            let (a, b) = (self.blocks[i], other.blocks[j]);
            if a.base < b.base {
                changed = true;
                i += 1;
            } else if a.base > b.base {
                j += 1;
            } else {
                let mut merged = a;
                for k in 0..WORDS_PER_BLOCK {
                    let w = a.words[k] & b.words[k];
                    if w != a.words[k] {
                        changed = true;
                    }
                    merged.words[k] = w;
                }
                if !merged.is_empty() {
                    out.push(merged);
                }
                i += 1;
                j += 1;
            }
        }
        if i < self.blocks.len() {
            changed = true;
        }
        if changed {
            self.blocks = out;
        }
        changed
    }

    /// Returns `true` if every element of `other` is in `self`.
    pub fn is_superset(&self, other: &SparseBitVector) -> bool {
        let mut i = 0;
        for b in &other.blocks {
            while i < self.blocks.len() && self.blocks[i].base < b.base {
                i += 1;
            }
            if i >= self.blocks.len() || self.blocks[i].base != b.base {
                return false;
            }
            for k in 0..WORDS_PER_BLOCK {
                if b.words[k] & !self.blocks[i].words[k] != 0 {
                    return false;
                }
            }
        }
        true
    }

    /// Returns `true` if the two sets share no elements.
    pub fn is_disjoint(&self, other: &SparseBitVector) -> bool {
        let mut i = 0;
        let mut j = 0;
        while i < self.blocks.len() && j < other.blocks.len() {
            let (a, b) = (&self.blocks[i], &other.blocks[j]);
            if a.base < b.base {
                i += 1;
            } else if a.base > b.base {
                j += 1;
            } else {
                for k in 0..WORDS_PER_BLOCK {
                    if a.words[k] & b.words[k] != 0 {
                        return false;
                    }
                }
                i += 1;
                j += 1;
            }
        }
        true
    }

    /// If the set holds exactly one element, returns it.
    pub fn as_singleton(&self) -> Option<u32> {
        if self.blocks.len() != 1 {
            return None;
        }
        let b = &self.blocks[0];
        if b.count() != 1 {
            return None;
        }
        for (k, &w) in b.words.iter().enumerate() {
            if w != 0 {
                return Some(b.base + k as u32 * BITS_PER_WORD + w.trailing_zeros());
            }
        }
        unreachable!("non-empty block with no set word")
    }

    /// The smallest element, if any.
    pub fn first(&self) -> Option<u32> {
        self.iter().next()
    }

    /// Iterates elements in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            blocks: &self.blocks,
            block_idx: 0,
            word_idx: 0,
            word: self.blocks.first().map_or(0, |b| b.words[0]),
        }
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.blocks.capacity() * std::mem::size_of::<Block>()
    }

    /// Iterates the populated 128-bit blocks as `(base, words)` pairs,
    /// ascending by base. The bulk codec used by the chunked points-to
    /// store: one block is exactly one chunk.
    pub fn raw_blocks(&self) -> impl Iterator<Item = (u32, [u64; 2])> + '_ {
        self.blocks.iter().map(|b| (b.base, b.words))
    }

    /// Rebuilds a set from `(base, words)` blocks. Blocks must be
    /// 128-aligned, non-empty, and strictly ascending by base — the
    /// shape [`SparseBitVector::raw_blocks`] produces.
    pub fn from_raw_blocks(blocks: impl IntoIterator<Item = (u32, [u64; 2])>) -> SparseBitVector {
        let blocks: Vec<Block> =
            blocks.into_iter().map(|(base, words)| Block { base, words }).collect();
        debug_assert!(blocks.windows(2).all(|w| w[0].base < w[1].base));
        debug_assert!(blocks.iter().all(|b| b.base % BITS_PER_BLOCK == 0 && !b.is_empty()));
        SparseBitVector { blocks }
    }

    /// Number of populated 128-bit blocks (a density diagnostic).
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }
}

impl std::fmt::Debug for SparseBitVector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<u32> for SparseBitVector {
    fn from_iter<T: IntoIterator<Item = u32>>(iter: T) -> Self {
        let mut s = SparseBitVector::new();
        for e in iter {
            s.insert(e);
        }
        s
    }
}

impl Extend<u32> for SparseBitVector {
    fn extend<T: IntoIterator<Item = u32>>(&mut self, iter: T) {
        for e in iter {
            self.insert(e);
        }
    }
}

/// Iterator over the elements of a [`SparseBitVector`], ascending.
pub struct Iter<'a> {
    blocks: &'a [Block],
    block_idx: usize,
    word_idx: usize,
    word: u64,
}

impl Iterator for Iter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        loop {
            if self.block_idx >= self.blocks.len() {
                return None;
            }
            if self.word != 0 {
                let bit = self.word.trailing_zeros();
                self.word &= self.word - 1;
                let b = &self.blocks[self.block_idx];
                return Some(b.base + self.word_idx as u32 * BITS_PER_WORD + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= WORDS_PER_BLOCK {
                self.block_idx += 1;
                self.word_idx = 0;
            }
            if self.block_idx < self.blocks.len() {
                self.word = self.blocks[self.block_idx].words[self.word_idx];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use vsfs_testkit::{gen, Rng};

    #[test]
    fn insert_remove_contains() {
        let mut s = SparseBitVector::new();
        for &e in &[0u32, 1, 63, 64, 127, 128, 129, 100_000] {
            assert!(!s.contains(e));
            assert!(s.insert(e));
            assert!(s.contains(e));
            assert!(!s.insert(e));
        }
        assert_eq!(s.len(), 8);
        assert!(s.remove(64));
        assert!(!s.contains(64));
        assert!(!s.remove(64));
        assert_eq!(s.len(), 7);
    }

    #[test]
    fn iteration_is_sorted() {
        let elems = [500u32, 2, 130, 129, 128, 1_000_000, 3];
        let s: SparseBitVector = elems.iter().copied().collect();
        let got: Vec<u32> = s.iter().collect();
        let mut want = elems.to_vec();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn union_reports_change() {
        let mut a: SparseBitVector = [1u32, 2].into_iter().collect();
        let b: SparseBitVector = [2u32].into_iter().collect();
        assert!(!a.union_with(&b));
        let c: SparseBitVector = [300u32].into_iter().collect();
        assert!(a.union_with(&c));
        assert!(a.contains(300));
    }

    #[test]
    fn union_with_empty_is_noop() {
        let mut a: SparseBitVector = [1u32].into_iter().collect();
        let empty = SparseBitVector::new();
        assert!(!a.union_with(&empty));
        let mut e = SparseBitVector::new();
        assert!(e.union_with(&a));
        assert_eq!(e, a);
    }

    #[test]
    fn singleton_detection() {
        let mut s = SparseBitVector::new();
        assert_eq!(s.as_singleton(), None);
        s.insert(77);
        assert_eq!(s.as_singleton(), Some(77));
        s.insert(1000);
        assert_eq!(s.as_singleton(), None);
        s.remove(77);
        assert_eq!(s.as_singleton(), Some(1000));
    }

    #[test]
    fn subtract_empties_blocks() {
        let mut a: SparseBitVector = [1u32, 129].into_iter().collect();
        let b: SparseBitVector = [129u32].into_iter().collect();
        assert!(a.subtract(&b));
        assert_eq!(a.block_count(), 1);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1]);
        assert!(!a.subtract(&b));
    }

    #[test]
    fn superset_and_disjoint() {
        let a: SparseBitVector = [1u32, 200, 4000].into_iter().collect();
        let b: SparseBitVector = [200u32, 4000].into_iter().collect();
        let c: SparseBitVector = [5u32, 201].into_iter().collect();
        assert!(a.is_superset(&b));
        assert!(!b.is_superset(&a));
        assert!(a.is_superset(&a));
        assert!(a.is_superset(&SparseBitVector::new()));
        assert!(a.is_disjoint(&c));
        assert!(!a.is_disjoint(&b));
    }

    fn model(rng: &mut Rng) -> Vec<u32> {
        gen::vec_with(rng, 0..200, |r| r.gen_range(0u32..2048))
    }

    #[test]
    fn matches_btreeset_model() {
        vsfs_testkit::check("sbv::matches_btreeset_model", |rng| {
            let (xs, ys) = (model(rng), model(rng));
            let a: SparseBitVector = xs.iter().copied().collect();
            let b: SparseBitVector = ys.iter().copied().collect();
            let ma: BTreeSet<u32> = xs.iter().copied().collect();
            let mb: BTreeSet<u32> = ys.iter().copied().collect();

            assert_eq!(a.len(), ma.len());
            assert_eq!(a.iter().collect::<Vec<_>>(), ma.iter().copied().collect::<Vec<_>>());

            let mut u = a.clone();
            let changed = u.union_with(&b);
            let mu: BTreeSet<u32> = ma.union(&mb).copied().collect();
            assert_eq!(changed, mu != ma);
            assert_eq!(u.iter().collect::<Vec<_>>(), mu.iter().copied().collect::<Vec<_>>());
            // assign_union overwrites whatever the buffer held.
            let mut w = b.clone();
            w.assign_union(&a, &b);
            assert_eq!(w, u);

            let mut d = a.clone();
            let changed = d.subtract(&b);
            let md: BTreeSet<u32> = ma.difference(&mb).copied().collect();
            assert_eq!(changed, md != ma);
            assert_eq!(d.iter().collect::<Vec<_>>(), md.iter().copied().collect::<Vec<_>>());

            let mut n = a.clone();
            let changed = n.intersect_with(&b);
            let mn: BTreeSet<u32> = ma.intersection(&mb).copied().collect();
            assert_eq!(changed, mn != ma);
            assert_eq!(n.iter().collect::<Vec<_>>(), mn.iter().copied().collect::<Vec<_>>());

            assert_eq!(a.is_superset(&b), mb.is_subset(&ma));
            assert_eq!(a.is_disjoint(&b), ma.is_disjoint(&mb));
        });
    }

    #[test]
    fn meld_operator_laws() {
        vsfs_testkit::check("sbv::meld_operator_laws", |rng| {
            let (xs, ys, zs) = (model(rng), model(rng), model(rng));
            // union_with is the paper's meld operator; check the four laws
            // of Section IV-B: commutativity, associativity, idempotence,
            // identity.
            let a: SparseBitVector = xs.iter().copied().collect();
            let b: SparseBitVector = ys.iter().copied().collect();
            let c: SparseBitVector = zs.iter().copied().collect();

            let mut ab = a.clone();
            ab.union_with(&b);
            let mut ba = b.clone();
            ba.union_with(&a);
            assert_eq!(&ab, &ba); // commutative

            let mut a_bc = {
                let mut bc = b.clone();
                bc.union_with(&c);
                let mut r = a.clone();
                r.union_with(&bc);
                r
            };
            let ab_c = {
                let mut r = ab.clone();
                r.union_with(&c);
                r
            };
            assert_eq!(&a_bc, &ab_c); // associative
            let before = a_bc.clone();
            a_bc.union_with(&before);
            assert_eq!(&a_bc, &before); // idempotent

            let mut id = a.clone();
            assert!(!id.union_with(&SparseBitVector::new())); // identity
            assert_eq!(&id, &a);
        });
    }
}
